"""Determinism suite for the parallel batch pipeline (``repro.parallel``).

The contract under test: for any seed, scale, worker count and chunk
size, the parallel :class:`~repro.core.pipeline.FacetExtractor`
produces output **bit-for-bit identical** to the serial path — the same
important terms, context terms, expanded sets, facet candidates (terms,
dfs, shifts, scores), and hierarchies.

The default matrix runs at ``REPRO_SCALE=0.05`` so tier-1 stays fast;
the wider seed x scale matrix is marked ``slow`` (enable with
``--run-slow``).
"""

from __future__ import annotations

import os

import pytest

from repro.builder import FacetPipelineBuilder
from repro.config import ParallelConfig, ReproConfig
from repro.core.export import to_json
from repro.corpus import build_snyt
from repro.errors import ConfigError
from repro.parallel import chunked, map_chunks

DEFAULT_SCALE = float(os.environ.get("REPRO_SCALE", "0.05"))


def canonical(result) -> dict:
    """Everything the pipeline produced, in a comparable shape."""
    return {
        "important": result.annotated.important_terms,
        "term_sets": result.annotated.term_sets,
        "context": result.contextualized.context_terms,
        "expanded": result.contextualized.expanded_sets,
        "facets": [
            (c.term, c.df_original, c.df_contextualized, c.shift_f, c.shift_r, c.score)
            for c in result.facet_terms
        ],
        "hierarchies": to_json(result.hierarchies),
    }


def pooled_run(builder: FacetPipelineBuilder, documents, **settings) -> dict:
    """canonical() of one run under ``ParallelConfig(**settings)``."""
    return canonical(builder.with_parallel(ParallelConfig(**settings)).build().run(documents))


@pytest.fixture(scope="module")
def parallel_config() -> ReproConfig:
    return ReproConfig(scale=DEFAULT_SCALE)


@pytest.fixture(scope="module")
def parallel_builder(parallel_config: ReproConfig) -> FacetPipelineBuilder:
    return FacetPipelineBuilder(parallel_config)


@pytest.fixture(scope="module")
def documents(parallel_config: ReproConfig):
    return build_snyt(parallel_config).documents


@pytest.fixture(scope="module")
def serial_result(parallel_builder: FacetPipelineBuilder, documents):
    return canonical(parallel_builder.build().run(documents))


class TestDeterminism:
    @pytest.mark.parametrize("workers", [2, 4])
    def test_thread_workers_match_serial(
        self, parallel_builder, documents, serial_result, workers
    ):
        assert pooled_run(parallel_builder, documents, workers=workers) == serial_result

    @pytest.mark.parametrize("chunk_size", [1, 7, 1000])
    def test_chunk_size_never_changes_results(
        self, parallel_builder, documents, serial_result, chunk_size
    ):
        pooled = pooled_run(parallel_builder, documents, workers=2, chunk_size=chunk_size)
        assert pooled == serial_result

    def test_warm_persistent_cache_matches_serial(
        self, parallel_builder, documents, serial_result, tmp_path
    ):
        """A second run answered from SQLite must change nothing."""
        cache = str(tmp_path / "expansions.db")
        parallel = ParallelConfig(workers=4, cache_path=cache)
        cold = parallel_builder.with_parallel(parallel).build().run(documents)
        assert canonical(cold) == serial_result
        warm = parallel_builder.with_parallel(parallel).build().run(documents)
        assert canonical(warm) == serial_result
        stats = list(warm.resource_stats.values())[0]
        assert stats.persistent_hits > 0
        assert stats.misses == 0

    @pytest.mark.slow
    @pytest.mark.parametrize("seed", [20080407, 7, 99])
    @pytest.mark.parametrize("scale", [0.05, 0.1])
    @pytest.mark.parametrize("workers", [2, 4])
    def test_seed_scale_worker_matrix(self, seed, scale, workers):
        config = ReproConfig(seed=seed, scale=scale)
        builder = FacetPipelineBuilder(config)
        docs = build_snyt(config).documents
        serial = canonical(builder.build().run(docs))
        assert pooled_run(builder, docs, workers=workers) == serial


class TestMemoryCacheBound:
    def test_bound_reaches_every_resource_of_the_pipeline(self, parallel_builder):
        """``memory_cache_size`` bounds the composite the pipeline reads,
        not only the members it wraps."""
        pipeline = parallel_builder.with_parallel(
            ParallelConfig(memory_cache_size=8)
        ).build()
        (composite,) = pipeline.resources
        composite.context_terms_many([f"term {i}" for i in range(20)])
        for resource in (composite, *composite.members):
            assert resource.cache_size == 8


class TestCliDeterminism:
    def test_extract_output_identical_across_worker_counts(self, capsys):
        """`python -m repro extract --workers N` is byte-identical to serial
        (modulo the header line announcing the worker count)."""
        from repro.__main__ import main

        def run(argv: list[str]) -> list[str]:
            assert main(argv) == 0
            return capsys.readouterr().out.splitlines()[1:]

        scale = str(DEFAULT_SCALE)
        serial = run(["--scale", scale, "extract", "--workers", "1"])
        pooled = run(["--scale", scale, "extract", "--workers", "4"])
        assert pooled == serial
        assert serial  # the facet listing is not empty


class TestShardingPrimitives:
    def test_chunked_splits_and_preserves_order(self):
        assert chunked(list(range(7)), 3) == [[0, 1, 2], [3, 4, 5], [6]]
        assert chunked([], 3) == []
        with pytest.raises(ValueError):
            chunked([1], 0)

    @pytest.mark.parametrize("workers", [1, 3])
    def test_map_chunks_merges_in_submission_order(self, workers):
        chunks = chunked(list(range(20)), 3)
        results = map_chunks(
            lambda chunk: [x * x for x in chunk],
            chunks,
            ParallelConfig(workers=workers),
        )
        merged = [x for chunk in results for x in chunk]
        assert merged == [x * x for x in range(20)]

    def test_worker_error_surfaces(self):
        def boom(chunk):
            if 5 in chunk:
                raise RuntimeError("mid-chunk failure")
            return chunk

        with pytest.raises(RuntimeError, match="mid-chunk failure"):
            map_chunks(boom, chunked(list(range(10)), 2), ParallelConfig(workers=3))

    def test_parallel_config_validation(self):
        with pytest.raises(ConfigError):
            ParallelConfig(workers=0)
        with pytest.raises(ConfigError):
            ParallelConfig(chunk_size=0)
        with pytest.raises(ConfigError):
            ParallelConfig(memory_cache_size=0)

    def test_resolve_chunk_size(self):
        assert ParallelConfig(chunk_size=10).resolve_chunk_size(1000) == 10
        auto = ParallelConfig(workers=4).resolve_chunk_size(1000)
        assert 1 <= auto <= 1000
        assert ParallelConfig(workers=4).resolve_chunk_size(0) == 1
