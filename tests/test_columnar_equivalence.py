"""Golden-output harness: every execution mode reproduces the same bytes.

The columnar data plane (:mod:`repro.core.columnar`) is the only data
plane; its contract is that not a single output byte differs from the
dict-of-strings reference it replaced.  That reference's output is
checked in as a digest (:mod:`tests.golden`), and this module certifies
it across:

* worker counts {1, 4} on the thread backend;
* the process backend (which exercises the shared-memory background
  segment end to end, pickle fallback included);
* incremental appends (the columnar memo also runs under the
  incremental extractor's chunk workers);
* the serving artifact: the SQLite payload compiled from a run must
  carry the recorded content checksum.

CI runs the module both with numpy and with ``REPRO_NO_NUMPY=1``.
"""

from __future__ import annotations

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
    @pytest.mark.parametrize("workers", [1, 4])
    def test_columnar_matches_across_workers_and_query_modes(
        self, col_builder, docs, workers
    ):
        col_builder.with_parallel(ParallelConfig(workers=workers))
        result = col_builder.build().run(docs)
        assert result_digest(result) == GOLDEN_RESULT_SHA256
        # The run must actually have produced the id columns.
        assert result.annotated.columns is not None
        assert len(result.annotated.columns) == len(docs)

    def test_columnar_process_backend_matches(self, col_builder, docs):
        """Exercises the shared-memory background segment end to end."""
        col_builder.with_parallel(ParallelConfig(workers=2, backend="process"))
        assert result_digest(col_builder.build().run(docs)) == GOLDEN_RESULT_SHA256

    def test_incremental_append_matches(self, col_builder, docs):
        col_builder.with_parallel(ParallelConfig(workers=2))
        extractor = col_builder.build_incremental()
        extractor.append(docs[:17])
        extractor.append(docs[17:])
        assert result_digest(extractor.snapshot_result()) == GOLDEN_RESULT_SHA256

    def test_serving_artifact_checksum_matches(self, col_builder, docs, tmp_path):
        """The compiled serving payload is identical, byte for byte."""
        col_builder.with_parallel(ParallelConfig(workers=4))
        result = col_builder.build().run(docs)
        with FacetIndex.build(result, path=str(tmp_path / "index.db")) as index:
            assert index.checksum == GOLDEN_INDEX_CHECKSUM
