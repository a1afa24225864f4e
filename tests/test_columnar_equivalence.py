"""Golden-output harness: every execution mode reproduces the same bytes.

The columnar data plane (:mod:`repro.core.columnar`) is the only data
plane; its contract is that not a single output byte differs from the
dict-of-strings reference it replaced.  That reference's output is
checked in as a digest (:mod:`tests.golden`), and this module certifies
it across:

* the batch run;
* incremental appends (the columnar memo also runs under the
  incremental extractor's Step 1 passes);
* a ``--cache`` file left by earlier versions, which held only the JSON
  ``context_cache`` table: it reads cold, is never raised on and loses
  that table;
* the serving artifact: the SQLite payload compiled from a run must
  carry the recorded content checksum.

The plane is stdlib-only, so the main tier-1 run covers every path.
"""

from __future__ import annotations

import sqlite3

import pytest

from repro.builder import FacetPipelineBuilder
from repro.config import ParallelConfig, ReproConfig
from repro.serving.artifact import FacetIndex

from .golden import (
    GOLDEN_INDEX_CHECKSUM,
    GOLDEN_RESULT_SHA256,
    GOLDEN_SCALE,
    result_digest,
)


@pytest.fixture(scope="module")
def col_config() -> ReproConfig:
    return ReproConfig(scale=GOLDEN_SCALE)


@pytest.fixture(scope="module")
def col_builder(col_config: ReproConfig) -> FacetPipelineBuilder:
    return FacetPipelineBuilder(col_config)


@pytest.fixture(scope="module")
def docs(col_config: ReproConfig):
    from repro.corpus import build_snyt

    return build_snyt(col_config).documents


class TestColumnarDifferential:
    def test_columnar_matches_across_workers_and_query_modes(
        self, col_builder, docs
    ):
        col_builder.with_parallel(ParallelConfig())
        result = col_builder.build().run(docs)
        assert result_digest(result) == GOLDEN_RESULT_SHA256
        # The run must actually have produced the id columns.
        assert result.annotated.columns is not None
        assert len(result.annotated.columns) == len(docs)

    def test_incremental_append_matches(self, col_builder, docs):
        col_builder.with_parallel(ParallelConfig())
        extractor = col_builder.build_incremental()
        extractor.append(docs[:17])
        extractor.append(docs[17:])
        assert result_digest(extractor.snapshot_result()) == GOLDEN_RESULT_SHA256

    def test_old_json_cache_file_reads_cold(self, col_builder, docs, tmp_path):
        """``extract --cache`` over a file holding only the old
        ``context_cache`` table answers nothing from it, drops it and
        stores its own answers."""
        path = tmp_path / "old.db"
        old = sqlite3.connect(path)
        with old:
            old.execute(
                "CREATE TABLE context_cache (namespace TEXT NOT NULL, "
                "term TEXT NOT NULL, terms TEXT NOT NULL, "
                "PRIMARY KEY (namespace, term))"
            )
            old.execute(
                "INSERT INTO context_cache VALUES (?, ?, ?)",
                ("CompositeResource", "paris", '["poison"]'),
            )
        old.close()
        pipeline = col_builder.with_parallel(ParallelConfig(cache_path=str(path))).build()
        result = pipeline.run(docs)
        assert result_digest(result) == GOLDEN_RESULT_SHA256
        (stats,) = result.resource_stats.values()
        assert stats.persistent_hits == 0
        store = pipeline.resource_cache
        assert not store.disabled
        assert store.size() == stats.misses
        store.close()
        connection = sqlite3.connect(path)
        tables = {
            name
            for (name,) in connection.execute(
                "SELECT name FROM sqlite_master WHERE type = 'table'"
            )
        }
        connection.close()
        assert tables == {"answer_namespaces", "answers"}

    def test_serving_artifact_checksum_matches(self, col_builder, docs, tmp_path):
        """The compiled serving payload is identical, byte for byte."""
        col_builder.with_parallel(ParallelConfig())
        result = col_builder.build().run(docs)
        with FacetIndex.build(result, path=str(tmp_path / "index.db")) as index:
            assert index.checksum == GOLDEN_INDEX_CHECKSUM
