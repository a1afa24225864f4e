"""Batch execution engine: shard work, run a pool, merge deterministically.

The paper's efficiency study (Section V-D) shows that per-document term
extraction and per-term resource expansion dominate the pipeline cost
and are embarrassingly parallel over documents.  This module provides
the sharding machinery used by :func:`repro.core.annotate.annotate_database`
and :func:`repro.core.contextualize.contextualize`:

* :func:`chunked` splits a work list into fixed-size shards;
* :func:`map_chunks` runs one function over every shard on a
  ``concurrent.futures`` thread pool (sized by
  :class:`~repro.config.ParallelConfig`) and returns the results **in
  submission order** — the merge is deterministic by construction, so
  parallel output is bit-for-bit identical to serial output;
* a shard that raises surfaces its exception to the caller (pending
  shards are cancelled) — there are no silent partial results.

Thread workers suit the latency-bound remote resources (simulated
network sleeps release the GIL); on CPU-bound local extraction the GIL
makes them slower than a serial run.

Observability: when :func:`map_chunks` is handed an active
:class:`~repro.observability.Observability` bundle, every chunk runs
with its own **worker-local**
:class:`~repro.observability.MetricsRegistry` (pushed onto the thread's
context, so resource probes land in it) and under its own chunk
:class:`~repro.observability.Span`.  After the pool drains, chunk
registries are merged into the parent registry and chunk spans attached
to the calling stage span **in submission order** — aggregate metrics
and trace structure never depend on worker scheduling.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from typing import TypeVar

from .config import ParallelConfig
from .observability import MetricsRegistry, Observability, Span
from .observability import context as obs_context

T = TypeVar("T")
R = TypeVar("R")

#: The serial default used when callers pass ``parallel=None``.
SERIAL = ParallelConfig(workers=1)


def chunked(items: Sequence[T], size: int) -> list[list[T]]:
    """Split ``items`` into consecutive chunks of at most ``size``."""
    if size < 1:
        raise ValueError(f"chunk size must be >= 1, got {size}")
    return [list(items[i : i + size]) for i in range(0, len(items), size)]


class _ChunkOutcome:
    """What an instrumented chunk sends back: result + its telemetry."""

    __slots__ = ("result", "span", "metrics")

    def __init__(self, result: object, span: Span, metrics: MetricsRegistry) -> None:
        self.result = result
        self.span = span
        self.metrics = metrics


class _InstrumentedChunk:
    """Callable running one chunk under worker-local telemetry."""

    def __init__(self, fn: Callable[[list], object], index: int) -> None:
        self._fn = fn
        self._index = index

    def __call__(self, chunk: list) -> _ChunkOutcome:
        registry = MetricsRegistry()
        span = Span.begin("chunk", index=self._index, items=len(chunk))
        try:
            with obs_context.use_metrics(registry), obs_context.use_span(span):
                result = self._fn(chunk)
        except BaseException:
            span.status = "error"
            raise
        finally:
            span.finish()
        return _ChunkOutcome(result, span, registry)


def _run_jobs(
    jobs: Sequence[tuple[Callable[[list[T]], R], list[T]]],
    config: ParallelConfig,
    on_result: Callable[[R], None] | None = None,
    initializer: Callable[[], None] | None = None,
) -> list[R]:
    """Run ``(callable, chunk)`` jobs inline or pooled, submission order.

    ``on_result`` fires once per chunk **as it completes** (on a worker
    thread for pooled runs, inline for serial runs) — the hook the
    prefetch stage uses to start resolving a finished chunk's terms
    while later chunks are still running.  It must be cheap, thread-safe
    and side-effect-only: returned values are still merged in submission
    order regardless of completion order.

    ``initializer`` runs once in every pool worker before its first
    chunk (the annotation pass arms each worker's text memo with it);
    inline runs skip it — it must be an optimization only, never a
    correctness requirement.
    """
    if not config.enabled or len(jobs) <= 1:
        results_inline: list[R] = []
        for job, chunk in jobs:
            result = job(chunk)
            if on_result is not None:
                on_result(result)
            results_inline.append(result)
        return results_inline
    workers = min(config.workers, len(jobs))
    with ThreadPoolExecutor(max_workers=workers, initializer=initializer) as pool:
        futures = []
        for job, chunk in jobs:
            future = pool.submit(job, chunk)
            if on_result is not None:
                future.add_done_callback(_notify_on_success(on_result))
            futures.append(future)
        results: list[R] = []
        try:
            for future in futures:
                results.append(future.result())
        except BaseException:
            for future in futures:
                future.cancel()
            raise
    return results


def _notify_on_success(
    on_result: Callable[[R], None],
) -> Callable[[object], None]:
    """Done-callback adapter: forward successful results only."""

    def _done(future) -> None:
        if future.cancelled() or future.exception() is not None:
            return
        on_result(future.result())

    return _done


def _notify_result(on_result: Callable[[R], None], outcome: _ChunkOutcome) -> None:
    """Forward an instrumented chunk's result, never its wrapper."""
    on_result(outcome.result)  # type: ignore[arg-type]


def map_chunks(
    fn: Callable[[list[T]], R],
    chunks: list[list[T]],
    config: ParallelConfig | None = None,
    obs: Observability | None = None,
    on_result: Callable[[R], None] | None = None,
    initializer: Callable[[], None] | None = None,
) -> list[R]:
    """Apply ``fn`` to every chunk, results in submission order.

    With ``workers == 1`` (or a single chunk) this runs inline — the
    serial path and the parallel path execute the same code, which is
    what guarantees identical results.  The first chunk exception (in
    submission order) propagates; pending chunks are cancelled.

    With an active ``obs`` bundle every chunk collects metrics into a
    worker-local registry and times itself into a chunk span; both are
    folded into the parent bundle in submission order after the pool
    drains (see the module docstring).  The serial path uses the same
    instrumented wrapper, so accounting is identical at any worker
    count.

    ``on_result`` receives each chunk's *result* (never the
    instrumentation wrapper) as the chunk completes — see
    :func:`_run_jobs` for the contract; ``initializer`` runs once per
    pool worker before its first chunk (same contract as
    :func:`_run_jobs`).
    """
    config = config or SERIAL
    if obs is None or not obs.active:
        return _run_jobs(
            [(fn, chunk) for chunk in chunks],
            config,
            on_result=on_result,
            initializer=initializer,
        )
    parent_span = obs.tracer.current()
    jobs = [
        (_InstrumentedChunk(fn, index), chunk)
        for index, chunk in enumerate(chunks)
    ]
    on_outcome: Callable[[_ChunkOutcome], None] | None = None
    if on_result is not None:
        on_outcome = partial(_notify_result, on_result)
    outcomes: list[_ChunkOutcome] = _run_jobs(
        jobs, config, on_result=on_outcome, initializer=initializer
    )
    results: list[R] = []
    for outcome in outcomes:
        if obs.metrics is not None:
            obs.metrics.merge(outcome.metrics)
        obs.tracer.attach(outcome.span, parent=parent_span)
        results.append(outcome.result)  # type: ignore[arg-type]
    return results

