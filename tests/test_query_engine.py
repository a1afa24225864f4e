"""Batched single-flight query engine: coalescing, bulk I/O, prefetch.

Covers the engine added around the resource layer:

* single-flight coalescing — N threads racing on one fresh term issue
  exactly one backend query; a failed leader wakes its waiters so one of
  them retries;
* batched persistent-cache I/O — ``get_many``/``put_many`` round-trip,
  respect namespace isolation, chunk large key sets under SQLite's
  parameter limit, and upsert on conflict;
* ``context_terms_many`` answers exactly like per-term
  ``context_terms``, and batched contextualization reproduces the
  recorded output of the per-term path at any worker count;
* the vectorized selection tables (``ShiftTables``,
  ``LikelihoodTables``) reproduce the scalar reference bit for bit;
* prefetch only warms caches — a 4-thread run, which prefetches,
  reproduces the golden output of a serial run, which does not, and a
  failing prefetch degrades to a logged counter.
"""

from __future__ import annotations

import hashlib
import random
import threading
import time

from repro.config import ParallelConfig, ReproConfig
from repro.core.contextualize import contextualize
from repro.core.likelihood import (
    LikelihoodTables,
    chi_square_statistic,
    log_likelihood_ratio,
)
from repro.core.shifts import ShiftTables, frequency_shift, rank_shift
from repro.corpus import build_corpus
from repro.corpus.datasets import DatasetName
from repro.db.resource_cache import PersistentResourceCache
from repro.errors import ResourceError
from repro.incremental import canonical_json
from repro.observability import MetricsRegistry, Observability
from repro.parallel import map_chunks
from repro.resources import ResourcePrefetcher, SingleFlight
from repro.resources.base import ExternalResource, ResourceName
from repro.resources.resilience import SimulatedLatencyResource
from repro.text.vocabulary import Vocabulary

from .golden import GOLDEN_RESULT_SHA256, GOLDEN_SCALE, result_digest

#: sha256 of the contextualized database (``context_terms`` plus sorted
#: ``expanded_sets``) that the per-term reference path produced for the
#: setup in :class:`TestBatchedContextualization`.
GOLDEN_CONTEXT_SHA256 = (
    "f0ac26d7f72a08cc724532c68d7d58e33e7c162ba4a923d65b0dc05cd3a686b7"
)


class SlowResource(ExternalResource):
    """Counts backend queries; optionally blocks to force contention."""

    name = ResourceName.GOOGLE

    def __init__(self, delay: float = 0.0):
        super().__init__()
        self.backend_queries = 0
        self.batch_calls = 0
        self._delay = delay
        self._count_lock = threading.Lock()

    def _query(self, term):
        with self._count_lock:
            self.backend_queries += 1
        if self._delay:
            time.sleep(self._delay)
        return [f"ctx {term.lower()}", f"more {term.lower()}"]


class BatchingResource(SlowResource):
    """Overrides the bulk path so batch routing is observable."""

    def query_many(self, terms):
        with self._count_lock:
            self.batch_calls += 1
        return [self._query(term) for term in terms]


class FailOnceResource(ExternalResource):
    """First backend query raises; later ones succeed."""

    name = ResourceName.GOOGLE

    def __init__(self):
        super().__init__()
        self.attempts = 0
        self._lock = threading.Lock()

    def _query(self, term):
        with self._lock:
            self.attempts += 1
            if self.attempts == 1:
                raise ResourceError("first query fails")
        return [f"ok {term}"]


class TestSingleFlight:
    def test_contention_issues_exactly_one_query(self):
        resource = SlowResource(delay=0.05)
        threads = 8
        barrier = threading.Barrier(threads)
        answers: list[list[str]] = [None] * threads  # type: ignore[list-item]

        def worker(index: int) -> None:
            barrier.wait()
            answers[index] = resource.context_terms("Shared Term")

        pool = [
            threading.Thread(target=worker, args=(i,)) for i in range(threads)
        ]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()

        assert resource.backend_queries == 1
        assert all(answer == answers[0] for answer in answers)
        stats = resource.cache_stats
        assert stats.misses == 1
        # Everyone else either coalesced on the flight or hit the LRU
        # the leader populated; nobody re-queried the backend.
        assert stats.coalesced_hits + stats.memory_hits == threads - 1

    def test_failed_leader_wakes_waiters_and_one_retries(self):
        resource = FailOnceResource()
        threads = 4
        barrier = threading.Barrier(threads)
        results: list[object] = [None] * threads

        def worker(index: int) -> None:
            barrier.wait()
            try:
                results[index] = resource.context_terms("flaky")
            except ResourceError as exc:
                results[index] = exc

        pool = [
            threading.Thread(target=worker, args=(i,)) for i in range(threads)
        ]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()

        # The failed leader surfaced its error; every other thread
        # retried (or read the retry's cached answer) and succeeded.
        errors = [r for r in results if isinstance(r, ResourceError)]
        successes = [r for r in results if isinstance(r, list)]
        assert len(errors) == 1
        assert len(successes) == threads - 1
        assert all(answer == ["ok flaky"] for answer in successes)

    def test_primitive_claim_resolve_abandon(self):
        flights = SingleFlight()
        flight, leader = flights.claim("k")
        assert leader
        again, second_leader = flights.claim("k")
        assert again is flight and not second_leader
        flights.resolve("k", flight, ("a",))
        assert flight.event.is_set() and flight.result == ("a",)
        assert flights.in_flight == 0
        fresh, leader = flights.claim("k")
        assert leader and fresh is not flight
        flights.abandon("k", fresh)
        assert fresh.event.is_set() and fresh.result is None


class TestBatchedCacheIO:
    def test_get_many_put_many_round_trip(self, tmp_path):
        cache = PersistentResourceCache(str(tmp_path / "cache.db"))
        cache.put_many("ns", {"a": ("x",), "b": ("y", "z")})
        found = cache.get_many("ns", ["a", "b", "missing"])
        assert found == {"a": ("x",), "b": ("y", "z")}
        assert cache.batch_writes == 1
        assert cache.batch_reads == 1

    def test_namespace_isolation(self, tmp_path):
        cache = PersistentResourceCache(str(tmp_path / "cache.db"))
        cache.put_many("ns1", {"term": ("one",)})
        cache.put_many("ns2", {"term": ("two",)})
        assert cache.get_many("ns1", ["term"]) == {"term": ("one",)}
        assert cache.get_many("ns2", ["term"]) == {"term": ("two",)}

    def test_get_many_chunks_large_key_sets(self, tmp_path):
        cache = PersistentResourceCache(str(tmp_path / "cache.db"))
        entries = {f"t{i}": (f"v{i}",) for i in range(1_200)}
        cache.put_many("ns", entries)
        found = cache.get_many("ns", list(entries))
        assert found == entries

    def test_put_upserts_in_place(self, tmp_path):
        cache = PersistentResourceCache(str(tmp_path / "cache.db"))
        cache.put("ns", "term", ("old",))
        cache.put("ns", "term", ("new",))
        assert cache.get("ns", "term") == ("new",)

    def test_wal_enabled_on_file_store(self, tmp_path):
        cache = PersistentResourceCache(str(tmp_path / "cache.db"))
        assert cache.wal_enabled

    def test_memory_store_still_works_without_wal(self):
        cache = PersistentResourceCache(":memory:")
        cache.put_many("ns", {"term": ("v",)})
        assert cache.get_many("ns", ["term"]) == {"term": ("v",)}


class TestContextTermsMany:
    def test_matches_per_term_path(self):
        batched = BatchingResource()
        per_term = SlowResource()
        terms = ["Paris", "  PARIS ", "", "Tokyo", "Lyon", "tokyo"]
        bulk = batched.context_terms_many(terms)
        single = [per_term.context_terms(term) for term in terms]
        assert bulk == single
        assert batched.batch_calls == 1  # one deduplicated bulk call
        assert batched.backend_queries == 3  # paris, tokyo, lyon

    def test_persistent_tier_served_in_bulk(self, tmp_path):
        cache = PersistentResourceCache(str(tmp_path / "cache.db"))
        warm = SlowResource()
        warm.attach_cache(cache)
        warm.context_terms_many(["a", "b", "c"])
        fresh = SlowResource()
        fresh.attach_cache(cache)
        answers = fresh.context_terms_many(["a", "b", "c"])
        assert answers == [["ctx a", "more a"], ["ctx b", "more b"], ["ctx c", "more c"]]
        assert fresh.backend_queries == 0
        assert fresh.cache_stats.persistent_hits == 3

    def test_simulated_latency_batch_is_one_round_trip(self):
        remote = SimulatedLatencyResource(SlowResource(), latency_seconds=0.0)
        remote.context_terms_many(["a", "b", "c", "d"])
        assert remote.simulated_calls == 1


class TestBatchedContextualization:
    def _pipeline_pieces(self):
        config = ReproConfig(scale=0.02)
        corpus = build_corpus(DatasetName.SNYT, config)
        from repro.core.annotate import annotate_database
        from repro.extractors.registry import build_extractors
        from repro.extractors.base import ExtractorName
        from repro.builder import FacetPipelineBuilder

        builder = FacetPipelineBuilder(config)
        extractors = build_extractors(
            [ExtractorName.NAMED_ENTITIES], wikipedia=builder.substrates.wikipedia
        )
        annotated = annotate_database(corpus.documents, extractors)
        return config, builder, annotated

    def test_batched_equals_per_term_at_any_worker_count(self):
        """The per-term path's output is recorded as ``GOLDEN_CONTEXT_SHA256``."""
        config, builder, annotated = self._pipeline_pieces()
        from repro.resources.registry import build_resources

        for workers in (1, 4):
            resources = build_resources(
                [ResourceName.WIKI_GRAPH, ResourceName.WORDNET],
                builder.substrates,
                config,
            )
            database = contextualize(
                annotated, resources, ParallelConfig(workers=workers)
            )
            payload = {
                "context": database.context_terms,
                "expanded": {
                    doc_id: sorted(terms)
                    for doc_id, terms in database.expanded_sets.items()
                },
            }
            digest = hashlib.sha256(
                canonical_json(payload).encode("utf-8")
            ).hexdigest()
            assert digest == GOLDEN_CONTEXT_SHA256


class TestVectorizedSelection:
    def test_likelihood_tables_match_scalar_reference(self):
        rng = random.Random(20080407)
        for n in (1, 7, 400):
            tables = LikelihoodTables(n)
            for _ in range(300):
                df = rng.randint(0, n)
                df_c = rng.randint(0, n)
                assert tables.log_likelihood_ratio(df, df_c) == log_likelihood_ratio(
                    df, df_c, n
                )
                assert tables.chi_square(df, df_c) == chi_square_statistic(
                    df, df_c, n
                )

    def test_shift_tables_match_scalar_reference(self):
        rng = random.Random(7)
        original, contextualized = Vocabulary(), Vocabulary()
        words = [f"w{i}" for i in range(150)]
        extra = [f"c{i}" for i in range(40)]
        for _ in range(80):
            original.add_document(rng.sample(words, rng.randint(1, 25)))
            contextualized.add_document(
                rng.sample(words + extra, rng.randint(1, 50))
            )
        tables = ShiftTables(original, contextualized)
        for term in [*words, *extra, "absent"]:
            assert tables.frequency_shift(term) == frequency_shift(
                term, original, contextualized
            )
            assert tables.rank_shift(term) == rank_shift(
                term, original, contextualized
            )


class TestPrefetch:
    def test_pipeline_output_identical_with_prefetch_on_and_off(self):
        """A prefetching 4-thread run reproduces the serial golden bytes."""
        from repro.builder import FacetPipelineBuilder

        config = ReproConfig(scale=GOLDEN_SCALE)
        obs = Observability.enabled()
        builder = FacetPipelineBuilder(config)
        builder.with_parallel(ParallelConfig(workers=4)).with_observability(obs)
        result = builder.build().run(build_corpus(DatasetName.SNYT, config).documents)
        assert result_digest(result) == GOLDEN_RESULT_SHA256
        assert obs.metrics.counters.get("prefetch.batches", 0) > 0

    def test_prefetcher_warms_cache_and_merges_metrics_once(self):
        resource = SlowResource()
        prefetcher = ResourcePrefetcher(
            lambda terms: resource.context_terms_many(list(terms))
        )
        prefetcher.submit(["alpha", "beta"])
        registry = MetricsRegistry()
        prefetcher.drain(into=registry)
        prefetcher.drain(into=registry)  # second drain is a no-op
        assert resource.backend_queries == 2
        assert registry.counters.get("prefetch.batches") == 1
        assert registry.counters.get("prefetch.terms") == 2
        # The warm-up means the main path is now a pure cache hit.
        resource.context_terms("alpha")
        assert resource.backend_queries == 2

    def test_prefetch_errors_degrade_to_counter(self):
        def boom(terms):
            raise RuntimeError("warm-up failed")

        prefetcher = ResourcePrefetcher(boom)
        prefetcher.submit(["x"])
        registry = MetricsRegistry()
        prefetcher.drain(into=registry)
        assert prefetcher.errors == 1
        assert registry.counters.get("prefetch.errors") == 1

    def test_submit_after_drain_is_noop(self):
        prefetcher = ResourcePrefetcher(lambda terms: None)
        prefetcher.drain()
        prefetcher.submit(["late"])
        assert prefetcher.batches_submitted == 0


class TestCompletionHook:
    def test_on_result_fires_per_chunk_serial_and_pooled(self):
        chunks = [[1, 2], [3], [4, 5]]
        for workers in (1, 3):
            seen: list[int] = []
            lock = threading.Lock()

            def on_result(result: int) -> None:
                with lock:
                    seen.append(result)

            totals = map_chunks(
                sum,
                chunks,
                ParallelConfig(workers=workers),
                on_result=on_result,
            )
            assert totals == [3, 3, 9]
            assert sorted(seen) == [3, 3, 9]
