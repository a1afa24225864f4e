"""Process-wide metrics: counters, gauges, timers, simple histograms.

A :class:`MetricsRegistry` is a thread-safe bag of named instruments:

* **counters** — monotonically summed floats (``increment``);
* **gauges** — last-write-wins floats (``gauge``);
* **timers** — count/total/min/max aggregates of durations
  (``record_time`` or the ``time`` context manager);
* **histograms** — fixed-bound bucket counts (``observe``), defaulting
  to latency-friendly bounds in seconds.
"""

from __future__ import annotations

import bisect
import contextlib
import threading
import time
from collections.abc import Iterator, Sequence
from dataclasses import dataclass

#: Default histogram bounds (seconds): tuned for resource-call latency.
DEFAULT_LATENCY_BUCKETS: tuple[float, ...] = (
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
)


@dataclass
class TimerStat:
    """count/total/min/max aggregate of observed durations (seconds)."""

    count: int = 0
    total: float = 0.0
    min: float = float("inf")
    max: float = 0.0

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def record(self, seconds: float) -> None:
        self.count += 1
        self.total += seconds
        self.min = min(self.min, seconds)
        self.max = max(self.max, seconds)

    def as_dict(self) -> dict:
        return {
            "count": self.count,
            "total_s": self.total,
            "mean_s": self.mean,
            "min_s": self.min if self.count else 0.0,
            "max_s": self.max,
        }


@dataclass
class Histogram:
    """Fixed-bound bucket counts plus sum/count of observations."""

    bounds: tuple[float, ...]
    buckets: list[int]
    count: int = 0
    total: float = 0.0

    @classmethod
    def empty(cls, bounds: Sequence[float]) -> "Histogram":
        bounds = tuple(sorted(bounds))
        return cls(bounds=bounds, buckets=[0] * (len(bounds) + 1))

    def observe(self, value: float) -> None:
        self.buckets[bisect.bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.total += value

    def as_dict(self) -> dict:
        return {
            "bounds": list(self.bounds),
            "buckets": list(self.buckets),
            "count": self.count,
            "total": self.total,
        }


class MetricsRegistry:
    """Thread-safe instrument registry."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, float] = {}
        self._gauges: dict[str, float] = {}
        self._timers: dict[str, TimerStat] = {}
        self._histograms: dict[str, Histogram] = {}

    # -- recording ---------------------------------------------------------------

    def increment(self, name: str, value: float = 1.0) -> None:
        """Add ``value`` to a counter (created at zero)."""
        with self._lock:
            self._counters[name] = self._counters.get(name, 0.0) + value

    def gauge(self, name: str, value: float) -> None:
        """Set a gauge (last write wins)."""
        with self._lock:
            self._gauges[name] = value

    def record_time(self, name: str, seconds: float) -> None:
        """Fold one duration into a timer aggregate."""
        with self._lock:
            timer = self._timers.get(name)
            if timer is None:
                timer = self._timers[name] = TimerStat()
            timer.record(seconds)

    @contextlib.contextmanager
    def time(self, name: str) -> Iterator[None]:
        """Time a block into the named timer."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.record_time(name, time.perf_counter() - start)

    def observe(
        self,
        name: str,
        value: float,
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> None:
        """Fold one observation into a histogram (bounds set on first use)."""
        with self._lock:
            histogram = self._histograms.get(name)
            if histogram is None:
                histogram = self._histograms[name] = Histogram.empty(buckets)
            histogram.observe(value)

    # -- introspection -----------------------------------------------------------

    @property
    def counters(self) -> dict[str, float]:
        with self._lock:
            return dict(sorted(self._counters.items()))

    @property
    def gauges(self) -> dict[str, float]:
        with self._lock:
            return dict(sorted(self._gauges.items()))

    @property
    def timers(self) -> dict[str, TimerStat]:
        with self._lock:
            return {k: TimerStat(**vars(v)) for k, v in sorted(self._timers.items())}

    @property
    def histograms(self) -> dict[str, Histogram]:
        with self._lock:
            return {
                k: Histogram(
                    bounds=v.bounds,
                    buckets=list(v.buckets),
                    count=v.count,
                    total=v.total,
                )
                for k, v in sorted(self._histograms.items())
            }

    def counter_value(self, name: str) -> float:
        with self._lock:
            return self._counters.get(name, 0.0)

    def timer_value(self, name: str) -> TimerStat | None:
        with self._lock:
            timer = self._timers.get(name)
            return TimerStat(**vars(timer)) if timer is not None else None

    def as_dict(self) -> dict:
        """Plain-dict dump (sorted keys) — JSON-serializable."""
        return {
            "counters": self.counters,
            "gauges": self.gauges,
            "timers": {k: v.as_dict() for k, v in self.timers.items()},
            "histograms": {k: v.as_dict() for k, v in self.histograms.items()},
        }

    def format_table(self) -> str:
        """Human-readable dump, deterministically ordered."""
        lines: list[str] = ["metrics:"]
        counters = self.counters
        if counters:
            lines.append("  counters:")
            for name, value in counters.items():
                lines.append(f"    {name:<52} {value:>12g}")
        gauges = self.gauges
        if gauges:
            lines.append("  gauges:")
            for name, value in gauges.items():
                lines.append(f"    {name:<52} {value:>12g}")
        timers = self.timers
        if timers:
            lines.append("  timers:")
            for name, timer in timers.items():
                lines.append(
                    f"    {name:<52} n={timer.count:<6} "
                    f"total={timer.total:.4f}s mean={timer.mean * 1000:.2f}ms "
                    f"max={timer.max * 1000:.2f}ms"
                )
        histograms = self.histograms
        if histograms:
            lines.append("  histograms:")
            for name, histogram in histograms.items():
                lines.append(
                    f"    {name:<52} n={histogram.count:<6} "
                    f"sum={histogram.total:.4f}"
                )
        if len(lines) == 1:
            lines.append("  (empty)")
        return "\n".join(lines)
