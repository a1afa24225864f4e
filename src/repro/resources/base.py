"""Resource interface with two-tier per-term memoization.

The same important terms recur across thousands of documents, so every
resource caches query results — this is also what makes the paper's
"perform term and context extraction offline" deployment mode natural
(Section V-D).

Caching is two-tier:

* an **in-process LRU** (bounded, thread-safe) answers the hot repeats
  within a run;
* an optional **persistent tier** (any :class:`PersistentTier`,
  attached via :meth:`ExternalResource.attach_cache`): the SQLite
  store :class:`~repro.db.resource_cache.PersistentResourceCache` is
  shared across runs and pipelines, so a warm
  cache file makes remote expansion essentially free; a stream's
  checkpoint keeps the answers its run directory already paid for
  (:class:`~repro.incremental.checkpoint.CheckpointAnswers`).

Cached entries are stored as **immutable tuples** and every call returns
a fresh list, so no caller can poison the cache by mutating an answer —
neither the list it received nor the list ``_query`` originally returned.

Every lookup goes through one **batched query engine**;
:meth:`ExternalResource.context_terms` is a one-term batch:

* :meth:`ExternalResource.context_terms_many` answers a whole term
  batch at once: one lock pass over the LRU, one batched
  :meth:`PersistentTier.get_many`, one bulk
  :meth:`ExternalResource.query_many` for the remaining leaders, and one
  :meth:`PersistentTier.put_many` write-back.  ``query_many`` defaults
  to looping :meth:`_query`; resources with a natural bulk lookup override it and answer a single
  term through it too, so each has one lookup body;
* the pipeline asks each resource one batch per engine pass, from one
  thread of control; a caller that shares a resource across threads
  still gets **single-flight coalescing** of the same fresh
  ``(namespace, term)`` — exactly one thread performs the query, the
  rest wait for its cached answer instead of re-paying the round trip
  (see :class:`~repro.resources.engine.SingleFlight`);
* an answer a wrapper marks as degraded (see
  :mod:`repro.resources.resilience`) stays out of the persistent tier
  of its own engine and of every engine answering through it.
"""

from __future__ import annotations

import abc
import enum
import threading
import time
from collections import OrderedDict
from collections.abc import Iterable, Mapping, Sequence
from contextvars import ContextVar
from typing import Protocol

from ..errors import ResourceError
from ..observability import names as obs_names
from ..observability.context import current_metrics, current_span, use_span
from ..observability.stats import ResourceStats
from ..observability.tracing import Span
from ..text.interning import normalize_term
from .engine import Flight, SingleFlight

#: Set while a batch query runs when one of its answers is degraded
#: (see :meth:`ExternalResource._mark_do_not_persist`).  Context-local,
#: so concurrent batches on other threads never see each other's mark.
_DEGRADED: ContextVar[bool] = ContextVar("repro_resource_degraded", default=False)

#: Default bound of the in-process LRU tier.
DEFAULT_MEMORY_CACHE_SIZE = 65_536

#: Histogram bounds for batch sizes (terms per bulk query).
BATCH_SIZE_BUCKETS: tuple[float, ...] = (
    1.0,
    2.0,
    5.0,
    10.0,
    25.0,
    50.0,
    100.0,
    250.0,
    500.0,
    1000.0,
)


class PersistentTier(Protocol):
    """What the batched query engine calls on a persistent tier."""

    def get_many(
        self, namespace: str, terms: Sequence[str]
    ) -> dict[str, tuple[str, ...]]:
        """Stored answers for a term batch (present keys only)."""

    def put_many(
        self, namespace: str, entries: Mapping[str, Iterable[str]]
    ) -> None:
        """Store a batch of healthy answers."""

    def clear(self, namespace: str | None = None) -> None:
        """Drop one namespace's answers (every answer when None)."""


def validate_context_terms(raw: "list[str] | tuple[str, ...]") -> tuple[str, ...]:
    """Normalize a raw resource response into a cache-safe value.

    Resource ``_query`` implementations return whatever the backing
    corpus/graph produced; before such a response is written to either
    cache tier it must be reduced to an immutable tuple of non-empty,
    whitespace-trimmed strings — a poisoned entry would be served to
    every later reader of that term, within the run and (for the
    persistent tier) across runs.  This is the sanitizer the FLOW001
    lint rule requires on every path from ``_query`` to a cache write.
    """
    cleaned: list[str] = []
    for item in raw:
        if not isinstance(item, str):
            continue
        stripped = item.strip()
        if stripped:
            cleaned.append(stripped)
    return tuple(cleaned)


class ResourceName(enum.Enum):
    """The four resources of Section IV-B (table row headers)."""

    GOOGLE = "Google"
    WORDNET = "WordNet Hypernyms"
    WIKI_SYNONYMS = "Wikipedia Synonyms"
    WIKI_GRAPH = "Wikipedia Graph"


class ExternalResource(abc.ABC):
    """Maps an important term to its context terms ``R_i(t)``."""

    #: Which paper resource this implements.
    name: ResourceName

    #: True when answering requires a (simulated) network round trip.
    remote: bool = False

    def __init__(self, memory_cache_size: int = DEFAULT_MEMORY_CACHE_SIZE) -> None:
        if memory_cache_size < 1:
            raise ValueError(
                f"memory_cache_size must be >= 1, got {memory_cache_size}"
            )
        self._cache: OrderedDict[str, tuple[str, ...]] = OrderedDict()
        self._memory_cache_size = memory_cache_size
        self._lock = threading.Lock()
        self._persistent: PersistentTier | None = None
        self._namespace: str | None = None
        self._memory_hits = 0
        self._persistent_hits = 0
        self._misses = 0
        self._coalesced_hits = 0
        self._coalesce_wait_seconds = 0.0
        self._batch_queries = 0
        self._single_flight = SingleFlight()

    # -- the public query path ---------------------------------------------------

    def context_terms(self, term: str) -> list[str]:
        """Context terms for ``term``: a one-term batch through the engine."""
        return self.context_terms_many([term])[0]

    def context_terms_many(self, terms: Sequence[str]) -> list[list[str]]:
        """Context terms for a term batch, aligned with the input order.

        The batch is deduplicated on normalized form (the first surface
        form seen for a key is the one queried) and resolved in one
        engine pass per tier: one lock acquisition over the LRU, one
        batched persistent read, one bulk :meth:`query_many` for the
        keys this caller leads, one batched persistent write-back.  Keys
        led by another thread are waited on (coalesced), never re-queried.
        """
        metrics = current_metrics()
        keys = [normalize_term(term) for term in terms]
        surface: dict[str, str] = {}
        for term, key in zip(terms, keys, strict=True):
            if key and key not in surface:
                surface[key] = term
        resolved: dict[str, tuple[str, ...]] = {}
        pending = list(surface)
        while pending:
            pending = self._resolve_batch(pending, surface, resolved, metrics)
        return [list(resolved[key]) if key else [] for key in keys]

    def _resolve_batch(
        self,
        keys: list[str],
        surface: dict[str, str],
        resolved: dict[str, tuple[str, ...]],
        metrics,
    ) -> list[str]:
        """One engine pass over ``keys``; returns keys that must retry
        (their leader failed after we started waiting on it)."""
        label = self.metric_label()
        missing: list[str] = []
        with self._lock:
            for key in keys:
                cached = self._cache.get(key)
                if cached is not None:
                    self._cache.move_to_end(key)
                    self._memory_hits += 1
                    resolved[key] = cached
                else:
                    missing.append(key)
        if metrics is not None and len(missing) != len(keys):
            metrics.increment(
                obs_names.resource_metric(label, "memory_hits"), len(keys) - len(missing)
            )
        if not missing:
            return []
        if self._persistent is not None and self._namespace is not None:
            stored = self._persistent.get_many(self._namespace, missing)
            if stored:
                with self._lock:
                    for key, value in stored.items():
                        self._persistent_hits += 1
                        self._memory_put(key, value)
                resolved.update(stored)
                if metrics is not None:
                    metrics.increment(
                        obs_names.resource_metric(label, "persistent_hits"), len(stored)
                    )
                missing = [key for key in missing if key not in stored]
        if not missing:
            return []
        leaders: list[str] = []
        claimed: dict[str, Flight] = {}
        waiting: list[tuple[str, Flight]] = []
        for key in missing:
            flight, leader = self._single_flight.claim(key)
            if leader:
                leaders.append(key)
                claimed[key] = flight
            else:
                waiting.append((key, flight))
        if leaders:
            try:
                answers, no_persist = self._run_batch_query(
                    [surface[key] for key in leaders], metrics
                )
                # Bulk resources alias one answer list across terms that
                # resolve to the same entry; validate each distinct list
                # once (`answers` keeps every list alive, so ids are
                # stable for the duration of the loop).  Each raw answer
                # is read, validated and cached in one step, the flow the
                # FLOW001 lint rule checks.
                validated_by_id: dict[int, tuple[str, ...]] = {}
                validated: list[tuple[str, ...]] = []
                persistable: dict[str, tuple[str, ...]] = {}
                with self._lock:
                    for position, key in enumerate(leaders):
                        raw = answers[position]
                        value = validated_by_id.get(id(raw))
                        if value is None:
                            value = validated_by_id[id(raw)] = (
                                validate_context_terms(raw)
                            )
                        validated.append(value)
                        self._misses += 1
                        self._memory_put(key, value)
                        if not no_persist[position]:
                            persistable[key] = value
                if metrics is not None:
                    metrics.increment(obs_names.resource_metric(label, "misses"), len(leaders))
                if (
                    persistable
                    and self._persistent is not None
                    and self._namespace is not None
                ):
                    self._persistent.put_many(self._namespace, persistable)
            except BaseException:
                for key in leaders:
                    self._single_flight.abandon(key, claimed[key])
                raise
            for key, value in zip(leaders, validated, strict=True):
                resolved[key] = value
                self._single_flight.resolve(key, claimed[key], value)
        retry: list[str] = []
        for key, flight in waiting:
            value = self._wait_for_flight(flight, metrics)
            if value is None:
                retry.append(key)
            else:
                resolved[key] = value
        return retry

    def _wait_for_flight(self, flight: Flight, metrics) -> tuple[str, ...] | None:
        """Block on another thread's in-flight query.

        Returns the leader's answer, or None when the leader failed —
        the caller retries (and may become the new leader).  Wait time
        and coalesce hits are counted so the engine's win is visible in
        ``ResourceStats`` and the metrics registry.
        """
        start = time.perf_counter()
        flight.event.wait()
        waited = time.perf_counter() - start
        result = flight.result
        with self._lock:
            self._coalesce_wait_seconds += waited
            if result is not None:
                self._coalesced_hits += 1
        if metrics is not None:
            label = self.metric_label()
            metrics.record_time(obs_names.resource_metric(label, "coalesce_wait_seconds"), waited)
            if result is not None:
                metrics.increment(obs_names.resource_metric(label, "coalesced_hits"))
            else:
                metrics.increment(obs_names.resource_metric(label, "coalesce_retries"))
        return result

    def _run_batch_query(
        self, surfaces: list[str], metrics
    ) -> tuple[list[list[str]], list[bool]]:
        """Answer a batch of uncached queries, instrumented as one unit.

        Returns the raw answers plus a per-term do-not-persist flag
        (wrappers mark individual degraded answers via
        :meth:`_mark_do_not_persist`).  Uses :meth:`query_many` when the
        subclass overrides it (a true bulk lookup), else loops
        :meth:`_query` so per-term wrapper semantics are preserved.  A
        marked batch also marks the batch of any engine answering through
        this one, so a composite or wrapper never persists an answer
        that lacks a degraded part.
        """
        label = self.metric_label()
        parent = current_span()
        span: Span | None = None
        if parent is not None:
            span = Span.begin(obs_names.resource_batch_span(label))
            span.add("terms", len(surfaces))
        overridden = type(self).query_many is not ExternalResource.query_many
        start = time.perf_counter()
        token = _DEGRADED.set(False)
        try:
            with use_span(span):
                if overridden:
                    answers = self.query_many(list(surfaces))
                    no_persist = [_DEGRADED.get()] * len(surfaces)
                else:
                    answers = []
                    no_persist = []
                    for surface_term in surfaces:
                        _DEGRADED.set(False)
                        answers.append(self._query(surface_term))
                        no_persist.append(_DEGRADED.get())
        except BaseException:
            if span is not None:
                span.finish(status="error")
                parent.children.append(span)
            if metrics is not None:
                metrics.increment(obs_names.resource_metric(label, "errors"))
            raise
        finally:
            _DEGRADED.reset(token)
        if any(no_persist):
            _DEGRADED.set(True)
        elapsed = time.perf_counter() - start
        if len(answers) != len(surfaces):
            raise ResourceError(
                f"{type(self).__name__}.query_many returned {len(answers)} "
                f"answers for {len(surfaces)} terms"
            )
        if span is not None:
            span.finish()
            parent.children.append(span)
        with self._lock:
            self._batch_queries += 1
        if metrics is not None:
            metrics.increment(obs_names.resource_metric(label, "batch_queries"))
            metrics.record_time(obs_names.resource_metric(label, "batch_query_seconds"), elapsed)
            metrics.observe(
                obs_names.resource_metric(label, "batch_size"),
                float(len(surfaces)),
                buckets=BATCH_SIZE_BUCKETS,
            )
        return answers, no_persist

    def metric_label(self) -> str:
        """Short stable label used in metric names and call spans."""
        return self.name.value.lower().replace(" ", "_")

    @abc.abstractmethod
    def _query(self, term: str) -> list[str]:
        """Answer one uncached query."""

    def query_many(self, terms: list[str]) -> list[list[str]]:
        """Answer a batch of uncached queries, aligned with the input.

        The default loops :meth:`_query`; subclasses whose backend has a
        natural bulk lookup (the Wikipedia graph/synonym substrates,
        WordNet, or a remote API with a batch endpoint) override this so
        a whole batch of terms costs one backend pass instead of one round
        trip each, and define :meth:`_query` as a one-term call into
        it.  Implementations must return exactly one answer list per
        input term, in order.
        """
        return [self._query(term) for term in terms]

    # -- memory tier -------------------------------------------------------------

    def _memory_put(self, key: str, value: tuple[str, ...]) -> None:
        """Insert into the LRU tier (caller holds the lock)."""
        self._cache[key] = value
        self._cache.move_to_end(key)
        while len(self._cache) > self._memory_cache_size:
            self._cache.popitem(last=False)

    def resize_memory_cache(self, memory_cache_size: int) -> None:
        """Resize the LRU tier, evicting oldest entries when shrinking.

        How ``ParallelConfig.memory_cache_size`` reaches resources the
        builder constructed before the parallel settings were known.
        """
        if memory_cache_size < 1:
            raise ValueError(
                f"memory_cache_size must be >= 1, got {memory_cache_size}"
            )
        with self._lock:
            self._memory_cache_size = memory_cache_size
            while len(self._cache) > memory_cache_size:
                self._cache.popitem(last=False)

    # -- persistent tier ---------------------------------------------------------

    def attach_cache(
        self,
        store: PersistentTier,
        namespace: str | None = None,
    ) -> None:
        """Put a persistent store behind the in-process tier.

        ``namespace`` defaults to :meth:`cache_namespace`; pass an
        augmented namespace (e.g. including the world seed/scale) when
        one cache file is shared by differently-configured runs.
        """
        self._persistent = store
        self._namespace = namespace or self.cache_namespace()

    def detach_cache(self) -> None:
        """Drop the persistent tier (the memory tier is kept)."""
        self._persistent = None
        self._namespace = None

    def cache_namespace(self) -> str:
        """Default persistent-cache namespace for this resource.

        Subclasses whose answers depend on configuration (result counts,
        top-k, wrapped members) extend this so entries written under one
        configuration are never served to another.
        """
        return type(self).__name__

    @property
    def persistent_cache(self) -> PersistentTier | None:
        return self._persistent

    def _mark_do_not_persist(self) -> None:
        """Called by ``_query`` to keep its current answer out of the
        persistent tier (e.g. a degraded empty answer after retries)."""
        _DEGRADED.set(True)

    # -- introspection -----------------------------------------------------------

    @property
    def cache_size(self) -> int:
        """Number of memoized terms in the in-process tier."""
        with self._lock:
            return len(self._cache)

    @property
    def cache_stats(self) -> ResourceStats:
        """Exact hit/miss counters (snapshot)."""
        with self._lock:
            return ResourceStats(
                memory_hits=self._memory_hits,
                persistent_hits=self._persistent_hits,
                misses=self._misses,
                coalesced_hits=self._coalesced_hits,
                coalesce_wait_seconds=self._coalesce_wait_seconds,
                batch_queries=self._batch_queries,
            )

    def reset_cache_stats(self) -> None:
        with self._lock:
            self._memory_hits = 0
            self._persistent_hits = 0
            self._misses = 0
            self._coalesced_hits = 0
            self._coalesce_wait_seconds = 0.0
            self._batch_queries = 0

    def clear_cache(self) -> None:
        """Drop all memoized results — both tiers.

        The persistent tier is cleared only for this resource's
        namespace; other resources sharing the store are untouched.
        """
        with self._lock:
            self._cache.clear()
        if self._persistent is not None and self._namespace is not None:
            self._persistent.clear(self._namespace)
