"""Tests for dynamic faceting over query results."""

from __future__ import annotations

import time

import pytest

from repro.core.dynamic import DynamicFaceter
from repro.core.export import to_dict
from repro.core.interface import FacetedInterface
from repro.incremental import CheckpointStore, IncrementalExtractor, canonical_json


def term_rows(candidates):
    """Facet terms with their statistics, scores as IEEE-754 hex."""
    return [
        (
            c.term,
            c.df_original,
            c.df_contextualized,
            c.shift_f,
            c.shift_r,
            c.score.hex(),
        )
        for c in candidates
    ]


def hierarchy_json(hierarchies) -> str:
    return canonical_json(to_dict(hierarchies, include_docs=True))


@pytest.fixture(scope="module")
def faceter(pipeline_result, builder):
    return DynamicFaceter(
        pipeline_result.contextualized,
        edge_validator=builder.edge_evidence,
    )


class TestDynamicFaceter:
    def test_invalid_top_k(self, pipeline_result):
        with pytest.raises(ValueError):
            DynamicFaceter(pipeline_result.contextualized, top_k=0)

    def test_empty_result_set(self, faceter):
        assert faceter.facet_terms([]) == []
        assert faceter.facets_for([]) == []

    def test_unknown_ids_ignored(self, faceter):
        assert faceter.facet_terms(["no-such-doc"]) == []

    def test_subset_facets_reflect_subset(self, faceter, snyt, world):
        """Facets over a topical subset should feature that topic's
        facet terms more prominently than unrelated ones."""
        sports_ids = [
            doc.doc_id
            for doc in snyt
            if doc.gold and doc.gold.topic in ("baseball", "football", "tennis")
        ]
        if len(sports_ids) < 5:
            pytest.skip("not enough sports stories at this scale")
        terms = [c.term.lower() for c in faceter.facet_terms(sports_ids)]
        assert any(
            t in terms for t in ("sports", "athletes", "baseball", "football")
        )

    def test_subset_selection_differs_from_full(self, faceter, snyt):
        half = [doc.doc_id for doc in list(snyt)[: len(snyt) // 2]]
        full = [doc.doc_id for doc in snyt]
        assert faceter.facet_terms(half) != faceter.facet_terms(full)

    def test_no_resource_queries_at_query_time(self, pipeline_result, builder):
        """Dynamic faceting must reuse offline expansions only."""
        faceter = DynamicFaceter(pipeline_result.contextualized)
        ids = [doc.doc_id for doc in pipeline_result.documents[:30]]
        start = time.perf_counter()
        faceter.facet_terms(ids)
        elapsed = time.perf_counter() - start
        # Pure statistics over cached sets: well under a second for 30
        # documents ("almost independent of the collection size").
        assert elapsed < 1.0

    def test_facets_for_query(self, faceter, pipeline_result):
        interface = FacetedInterface.from_result(pipeline_result)
        facets = faceter.facets_for_query(interface, "summit treaty", limit=40)
        assert isinstance(facets, list)

    def test_repeated_ids_count_once(self, faceter, snyt):
        ids = [doc.doc_id for doc in list(snyt)[:10]]
        repeated = ids + ids[:5]
        assert term_rows(faceter.facet_terms(repeated)) == term_rows(
            faceter.facet_terms(ids)
        )
        assert hierarchy_json(faceter.facets_for(repeated)) == hierarchy_json(
            faceter.facets_for(ids)
        )

    def test_hierarchies_populated(self, faceter, snyt):
        ids = [doc.doc_id for doc in list(snyt)[:40]]
        facets = faceter.facets_for(ids)
        if facets:
            all_ids = set(ids)
            for facet in facets:
                assert facet.root.doc_ids <= all_ids


class TestWholeCollectionDifferential:
    """Faceting every document reproduces the batch run byte for byte."""

    def test_all_documents_reproduce_the_pipeline_result(
        self, builder, pipeline_result
    ):
        pipeline = builder.build()
        faceter = DynamicFaceter(
            pipeline_result.contextualized,
            top_k=pipeline.top_k,
            edge_validator=pipeline.edge_validator,
        )
        ids = [document.doc_id for document in pipeline_result.documents]

        assert term_rows(faceter.facet_terms(ids)) == term_rows(
            pipeline_result.facet_terms
        )
        assert hierarchy_json(faceter.facets_for(ids)) == hierarchy_json(
            pipeline_result.hierarchies
        )


class TestCheckpointRestore:
    """The offline artifacts persist in the stream checkpoint.

    A pipeline restored from the checkpoint facets a result set exactly
    as the batch run's own database does, without re-extraction.
    """

    def test_restored_snapshot_facets_like_the_batch_run(
        self, faceter, builder, pipeline_result, snyt, tmp_path
    ):
        offline = IncrementalExtractor(
            builder.build(), checkpoint=CheckpointStore(tmp_path)
        )
        offline.append(snyt.documents, batch_id="archive")
        restored = IncrementalExtractor.restore(
            builder.build(), CheckpointStore(tmp_path)
        )
        assert restored.document_count == len(snyt)

        ids = [doc.doc_id for doc in pipeline_result.documents[:30]]
        reloaded = DynamicFaceter(
            restored.snapshot_result().contextualized,
            edge_validator=builder.edge_evidence,
        )
        assert term_rows(reloaded.facet_terms(ids)) == term_rows(
            faceter.facet_terms(ids)
        )
        assert hierarchy_json(reloaded.facets_for(ids)) == hierarchy_json(
            faceter.facets_for(ids)
        )
