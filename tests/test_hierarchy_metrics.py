"""Tests for hierarchy metrics."""

from __future__ import annotations

import pytest

from repro.core.hierarchy import FacetHierarchy, FacetNode
from repro.eval.hierarchy_metrics import hierarchy_metrics


def node(term, doc_ids, children=()):
    n = FacetNode(term=term, doc_ids=set(doc_ids))
    for child in children:
        n.children.append(child)
        n.doc_ids.update(child.doc_ids)
    return n


class TestHierarchyMetrics:
    def test_simple_forest(self):
        france = node("france", {"a", "b"})
        europe = node("europe", {"c"}, [france])
        asia = node("asia", {"d", "e"})
        metrics = hierarchy_metrics(
            [FacetHierarchy(root=europe), FacetHierarchy(root=asia)],
            collection_size=10,
        )
        assert metrics.facets == 2
        assert metrics.nodes == 3
        assert metrics.max_depth == 1
        assert metrics.branching_facets == 1
        assert metrics.mean_branching_factor == 1.0
        assert metrics.coverage == 0.5
        assert metrics.mean_narrowing == pytest.approx(2 / 3)

    def test_empty_forest(self):
        metrics = hierarchy_metrics([], collection_size=5)
        assert metrics.facets == 0
        assert metrics.coverage == 0.0

    def test_invalid_collection_size(self):
        with pytest.raises(ValueError):
            hierarchy_metrics([], collection_size=-1)

    def test_on_real_pipeline_output(self, pipeline_result):
        metrics = hierarchy_metrics(
            pipeline_result.hierarchies, len(pipeline_result.documents)
        )
        assert metrics.facets > 5
        assert metrics.coverage > 0.5
        assert 0 < metrics.mean_narrowing <= 1.0 or metrics.mean_narrowing == 0
        assert "coverage" in metrics.format_summary()
