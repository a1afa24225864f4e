"""Batched query engine: bulk I/O, round trips.

Covers the engine added around the resource layer:

* batched persistent-cache I/O — ``get_many``/``put_many`` round-trip,
  respect namespace isolation, chunk large key sets under SQLite's
  parameter limit, and upsert on conflict;
* ``context_terms_many`` answers exactly like per-term
  ``context_terms``, batched contextualization reproduces the recorded
  output of the per-term path, and a rerun over a filled persistent
  store makes no round trip;
* a batch run, and one stream append, ask every remote member of the
  composite exactly one batch;
* the vectorized selection tables (``ShiftTables``,
  ``LikelihoodTables``) reproduce the scalar reference bit for bit.
"""

from __future__ import annotations

import hashlib
import random

from repro.config import ReproConfig
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
from repro.incremental import canonical_json
from repro.resources.base import ExternalResource, ResourceName
from repro.resources.resilience import SimulatedLatencyResource
from repro.text.vocabulary import Vocabulary

from .golden import GOLDEN_SCALE

#: sha256 of the contextualized database (``context_terms`` plus sorted
#: ``expanded_sets``) that the per-term reference path produced for the
#: setup in :class:`TestBatchedContextualization`.
GOLDEN_CONTEXT_SHA256 = (
    "f0ac26d7f72a08cc724532c68d7d58e33e7c162ba4a923d65b0dc05cd3a686b7"
)


class SlowResource(ExternalResource):
    """Counts backend queries."""

    name = ResourceName.GOOGLE

    def __init__(self):
        super().__init__()
        self.backend_queries = 0
        self.batch_calls = 0

    def _query(self, term):
        self.backend_queries += 1
        return [f"ctx {term.lower()}", f"more {term.lower()}"]


class BatchingResource(SlowResource):
    """Overrides the bulk path so batch routing is observable."""

    def query_many(self, terms):
        self.batch_calls += 1
        return [self._query(term) for term in terms]


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

    @staticmethod
    def _context_digest(database) -> str:
        payload = {
            "context": database.context_terms,
            "expanded": {
                doc_id: sorted(terms)
                for doc_id, terms in database.expanded_sets.items()
            },
        }
        return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()

    def test_batched_equals_per_term(self):
        """The per-term path's output is recorded as ``GOLDEN_CONTEXT_SHA256``."""
        config, builder, annotated = self._pipeline_pieces()
        from repro.resources.registry import build_resources

        resources = build_resources(
            [ResourceName.WIKI_GRAPH, ResourceName.WORDNET],
            builder.substrates,
            config,
        )
        database = contextualize(annotated, resources)
        assert self._context_digest(database) == GOLDEN_CONTEXT_SHA256

    def test_warm_persistent_cache_answers_without_round_trips(self, tmp_path):
        """A rerun over a filled store makes no remote round trip."""
        config, builder, annotated = self._pipeline_pieces()
        from repro.resources.registry import build_resource

        store = PersistentResourceCache(str(tmp_path / "cache.db"))

        def remote_resources() -> list[SimulatedLatencyResource]:
            wrapped = []
            for name in (ResourceName.WIKI_GRAPH, ResourceName.WORDNET):
                resource = SimulatedLatencyResource(
                    build_resource(name, builder.substrates, config),
                    latency_seconds=0.0,
                )
                resource.attach_cache(store)
                wrapped.append(resource)
            return wrapped

        cold = remote_resources()
        database = contextualize(annotated, cold)
        assert self._context_digest(database) == GOLDEN_CONTEXT_SHA256
        assert all(resource.simulated_calls > 0 for resource in cold)

        warm = remote_resources()
        database = contextualize(annotated, warm)
        assert self._context_digest(database) == GOLDEN_CONTEXT_SHA256
        for resource in warm:
            assert resource.simulated_calls == 0
            assert resource.cache_stats.persistent_hits > 0


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


def _remote_pipeline(config: ReproConfig):
    """The built pipeline with every composite member one (zero-latency)
    remote hop away, plus the wrappers, which count round trips."""
    from repro.builder import FacetPipelineBuilder
    from repro.core.pipeline import FacetExtractor
    from repro.resources.composite import CompositeResource

    built = FacetPipelineBuilder(config).build()
    (composite,) = built.resources
    remote = [
        SimulatedLatencyResource(member, latency_seconds=0.0)
        for member in composite.members
    ]
    pipeline = FacetExtractor(
        extractors=built.extractors,
        resources=[CompositeResource(remote)],
        edge_validator=built.edge_validator,
    )
    return pipeline, remote


class TestRoundTrips:
    """Steps 1–2 ask each resource one batch per engine pass."""

    def test_batch_run_makes_one_round_trip_per_member(self):
        config = ReproConfig(scale=GOLDEN_SCALE)
        pipeline, remote = _remote_pipeline(config)
        pipeline.run(build_corpus(DatasetName.SNYT, config).documents)
        assert len(remote) == 4
        assert [member.simulated_calls for member in remote] == [1] * len(remote)

    def test_stream_append_makes_one_round_trip_per_member(self):
        from repro.incremental import IncrementalExtractor

        config = ReproConfig(scale=GOLDEN_SCALE)
        pipeline, remote = _remote_pipeline(config)
        extractor = IncrementalExtractor(pipeline)
        documents = build_corpus(DatasetName.SNYT, config).documents
        extractor.append(documents[:25], batch_id="first")
        assert len(remote) == 4
        assert [member.simulated_calls for member in remote] == [1] * len(remote)
