"""Batched query-engine primitives: single-flight coalescing + prefetch.

Instrumented runs showed contextualization dominating pipeline wall time
with hundreds of cache misses per resource even though most lookups
collapse to a much smaller set of distinct terms: concurrent workers
racing on the same fresh term each paid the full remote round trip, and
every term paid its own SQLite round trip.  This module provides the two
concurrency primitives the batched engine is built on:

* :class:`SingleFlight` — coalesces concurrent identical queries so that
  exactly one caller (the *leader*) performs the expensive work while
  every other caller (a *waiter*) blocks on the leader's result instead
  of re-issuing the query;
* :class:`ResourcePrefetcher` — a small background pool that starts
  resolving a chunk's important terms against the resources while later
  chunks are still in annotation, overlapping latency-bound expansion
  with CPU-bound tagging.  Prefetch only warms caches: the main path
  re-reads every answer through the normal tiers, so results are
  bit-for-bit identical whether or not a run prefetches.

Both primitives are deterministic by construction: a coalesced waiter
receives exactly the tuple the leader cached, and a failed leader wakes
its waiters empty-handed so one of them retries — the answer never
depends on which thread won the race.
"""

from __future__ import annotations

import threading
from collections.abc import Callable, Sequence
from concurrent.futures import Future, ThreadPoolExecutor

from ..observability import MetricsRegistry
from ..observability.context import use_metrics
from ..observability.logging import get_logger

log = get_logger(__name__)

#: Background threads used by the prefetch stage (bounded: prefetch is a
#: best-effort warm-up, not a second worker pool).
DEFAULT_PREFETCH_WORKERS = 2


class Flight:
    """One in-flight query: an event plus the leader's eventual result.

    ``result`` stays None when the leader failed; waiters observing None
    after the event fires must retry the query themselves.

    The event is created lazily, under the :class:`SingleFlight` lock,
    when the first waiter arrives (see :meth:`SingleFlight.claim`): an
    uncontended flight — every flight of a single-worker run — never
    allocates one.  Reading :attr:`event` materializes it on demand,
    already set when the flight has completed, so the attribute behaves
    exactly as the eager version did.
    """

    __slots__ = ("_event", "_done", "result")

    def __init__(self) -> None:
        self._event: threading.Event | None = None
        self._done = False
        self.result: tuple[str, ...] | None = None

    def arm(self) -> threading.Event:
        """The flight's event, created on first use (set if completed).

        First-time arming must happen either under the owning
        :class:`SingleFlight` lock (the waiter path in ``claim``) or
        after the flight completed — concurrent unsynchronized first
        reads could otherwise each build their own event.
        """
        event = self._event
        if event is None:
            event = self._event = threading.Event()
            if self._done:
                event.set()
        return event

    @property
    def event(self) -> threading.Event:
        return self.arm()


class SingleFlight:
    """Per-key coalescing of concurrent identical queries.

    The first caller to :meth:`claim` a key becomes its leader and must
    later call :meth:`resolve` (success) or :meth:`abandon` (failure);
    callers that lose the claim receive the existing :class:`Flight` and
    wait on it.  Keys are removed on resolution, so a later query for
    the same key (e.g. after the leader failed) starts a fresh flight.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._flights: dict[str, Flight] = {}

    def claim(self, key: str) -> tuple[Flight, bool]:
        """Return ``(flight, is_leader)`` for ``key``."""
        with self._lock:
            flight = self._flights.get(key)
            if flight is not None:
                # First (and later) waiters arm the event while the
                # flight is still claimable; resolve/abandon pop under
                # this same lock, so a waiter that got the flight here
                # is always woken.
                flight.arm()
                return flight, False
            flight = Flight()
            self._flights[key] = flight
            return flight, True

    def resolve(self, key: str, flight: Flight, result: tuple[str, ...]) -> None:
        """Publish the leader's result and wake every waiter."""
        flight.result = result
        with self._lock:
            flight._done = True
            self._flights.pop(key, None)
            event = flight._event
        if event is not None:
            event.set()

    def abandon(self, key: str, flight: Flight) -> None:
        """Wake waiters empty-handed after a failed leader (they retry)."""
        with self._lock:
            flight._done = True
            self._flights.pop(key, None)
            event = flight._event
        if event is not None:
            event.set()

    @property
    def in_flight(self) -> int:
        """Number of queries currently being led (snapshot)."""
        with self._lock:
            return len(self._flights)


class ResourcePrefetcher:
    """Background warm-up of resource caches for upcoming work chunks.

    :meth:`submit` schedules one batched resolution of a term list
    against every resource; tasks run on a private thread pool with
    their own :class:`~repro.observability.MetricsRegistry` so worker
    telemetry stays deterministic — the registry is merged into the
    caller's exactly once, at :meth:`drain`.

    A prefetch task that raises is logged and counted but never fails
    the pipeline: the main expansion path re-issues the same query and
    surfaces the error deterministically there.
    """

    def __init__(
        self,
        prefetch: Callable[[Sequence[str]], None],
        workers: int = DEFAULT_PREFETCH_WORKERS,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self._prefetch = prefetch
        self._pool: ThreadPoolExecutor | None = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="repro-prefetch"
        )
        self._futures: list[Future[None]] = []
        self._lock = threading.Lock()
        self._registry = MetricsRegistry()
        self.batches_submitted = 0
        self.terms_submitted = 0
        self.errors = 0

    def submit(self, terms: Sequence[str]) -> None:
        """Schedule a warm-up batch; a no-op after :meth:`drain`."""
        if not terms:
            return
        with self._lock:
            if self._pool is None:
                return
            self.batches_submitted += 1
            self.terms_submitted += len(terms)
            self._futures.append(self._pool.submit(self._run, list(terms)))

    def _run(self, terms: list[str]) -> None:
        with use_metrics(self._registry), self._registry.time(
            "prefetch.task_seconds"
        ):
            try:
                self._prefetch(terms)
            except Exception as exc:
                # Degrade explicitly: the warm-up is advisory — the main
                # expansion path repeats the query and raises there if
                # the failure is real.
                with self._lock:
                    self.errors += 1
                self._registry.increment("prefetch.errors")
                log.warning(
                    "prefetch.failed", terms=len(terms), error=str(exc)
                )

    def drain(self, into: MetricsRegistry | None = None) -> None:
        """Wait for outstanding tasks, stop the pool, merge telemetry.

        Safe to call more than once; the metrics merge happens on the
        first call only, so aggregate values are deterministic.
        """
        with self._lock:
            pool, self._pool = self._pool, None
            futures, self._futures = self._futures, []
        if pool is None:
            return
        for future in futures:
            # Task errors were already converted to log+counter in _run;
            # result() here only synchronizes.
            future.result()
        pool.shutdown(wait=True)
        self._registry.increment("prefetch.batches", self.batches_submitted)
        self._registry.increment("prefetch.terms", self.terms_submitted)
        if into is not None:
            into.merge(self._registry)
