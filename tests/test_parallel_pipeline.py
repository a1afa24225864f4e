"""Determinism suite for the batch pipeline's execution settings.

The contract under test: whatever :class:`~repro.config.ParallelConfig`
says — the ignored ``workers`` field, a cold or a warm persistent
cache — :class:`~repro.core.pipeline.FacetExtractor` produces output
**bit-for-bit identical** to the default run: the same important terms,
context terms, expanded sets, facet candidates (terms, dfs, shifts,
scores), and hierarchies.

The matrix runs at ``REPRO_SCALE=0.05`` so tier-1 stays fast.
"""

from __future__ import annotations

import os

import pytest

from repro.builder import FacetPipelineBuilder
from repro.config import ParallelConfig, ReproConfig
from repro.core.export import to_json
from repro.corpus import build_snyt
from repro.errors import ConfigError

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
    def test_ignored_workers_field_matches_serial(
        self, parallel_builder, documents, serial_result
    ):
        """``workers`` is still accepted (the bench harness passes it)
        and changes nothing."""
        assert pooled_run(parallel_builder, documents, workers=4) == serial_result

    def test_warm_persistent_cache_matches_serial(
        self, parallel_builder, documents, serial_result, tmp_path
    ):
        """A second run answered from SQLite must change nothing."""
        cache = str(tmp_path / "expansions.db")
        parallel = ParallelConfig(cache_path=cache)
        cold = parallel_builder.with_parallel(parallel).build().run(documents)
        assert canonical(cold) == serial_result
        warm = parallel_builder.with_parallel(parallel).build().run(documents)
        assert canonical(warm) == serial_result
        stats = list(warm.resource_stats.values())[0]
        assert stats.persistent_hits > 0
        assert stats.misses == 0


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
    def test_extract_output_identical_with_warm_cache(self, capsys, tmp_path):
        """`python -m repro extract --cache PATH` prints the same facets
        cold and warm as a run without a cache."""
        from repro.__main__ import main

        def run(argv: list[str]) -> list[str]:
            assert main(argv) == 0
            return capsys.readouterr().out.splitlines()

        scale = str(DEFAULT_SCALE)
        cache = str(tmp_path / "expansions.db")
        plain = run(["--scale", scale, "extract"])
        assert run(["--scale", scale, "extract", "--cache", cache]) == plain
        assert run(["--scale", scale, "extract", "--cache", cache]) == plain
        assert plain  # the facet listing is not empty


class TestParallelConfig:
    def test_parallel_config_validation(self):
        with pytest.raises(ConfigError):
            ParallelConfig(workers=0)
        with pytest.raises(ConfigError):
            ParallelConfig(memory_cache_size=0)
