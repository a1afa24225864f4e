"""Tests for the read-only serving artifact (repro.serving.artifact).

The load-bearing property is *byte identity*: an artifact built from a
pipeline run must answer every query of the shared browser surface with
exactly the values the in-memory :class:`FacetedInterface` produces —
same objects, same order, same canonical JSON bytes.
"""

from __future__ import annotations

import os
from datetime import date

import pytest

from repro.core.interface import FacetedInterface
from repro.corpus.document import Document, GoldAnnotation
from repro.db.inverted_index import InvertedIndex
from repro.errors import HierarchyError, StorageError
from repro.serving import SCHEMA_VERSION, FacetIndex
from repro.serving.renderers import (
    canonical_json,
    children_payload,
    document_payload,
    drilldown_payload,
    facets_payload,
)


@pytest.fixture(scope="module")
def interface(pipeline_result) -> FacetedInterface:
    return FacetedInterface.from_result(pipeline_result)


@pytest.fixture(scope="module")
def index(pipeline_result, tmp_path_factory) -> FacetIndex:
    path = str(tmp_path_factory.mktemp("artifact") / "facets.idx")
    built = FacetIndex.build(pipeline_result, path=path)
    yield built
    built.close()


class TestBuildAndOpen:
    def test_manifest_schema_and_counts(self, index, interface):
        manifest = index.manifest
        assert manifest["schema"] == SCHEMA_VERSION
        assert index.document_count == interface.document_count
        assert index.facet_count == len(interface.facet_names())
        assert index.node_count >= index.facet_count

    def test_checksums_verify(self, index):
        assert index.verify()
        assert index.checksum == index.manifest["content_sha256"]

    def test_reopen_is_o1_and_identical(self, index):
        with FacetIndex.open(index.path) as reopened:
            assert reopened.manifest == index.manifest
            assert reopened.facet_names() == index.facet_names()

    def test_open_missing_file(self, tmp_path):
        with pytest.raises(StorageError, match="no index artifact"):
            FacetIndex.open(str(tmp_path / "absent.idx"))

    def test_open_non_artifact_file(self, tmp_path):
        path = tmp_path / "junk.idx"
        path.write_bytes(b"not a database at all")
        with pytest.raises(StorageError):
            FacetIndex.open(str(path))

    def test_document_rows_round_trip(self, tmp_path):
        """Gold annotations, publication dates and a missing gold survive."""
        gold = GoldAnnotation(
            topic="weather",
            entity_names=("Storm Center",),
            facet_terms=("Nature", "Weather"),
            leaked_terms=("Weather",),
        )
        documents = [
            Document(doc_id="d1", title="Storm hits coast", body="The storm."),
            Document(
                doc_id="g1",
                title="T",
                body="B",
                source="S",
                published=date(2005, 11, 3),
                gold=gold,
            ),
        ]
        index = InvertedIndex()
        index.add_documents(documents)
        path = str(tmp_path / "codec.idx")
        FacetIndex.build_from_parts(
            documents=documents, index=index, facets=[], path=path
        ).close()
        with FacetIndex.open(path) as reopened:
            restored = reopened.document("g1")
            assert restored == documents[1]
            assert restored.gold == gold
            assert restored.published == date(2005, 11, 3)
            assert reopened.document("d1").gold is None

    def test_build_atomic_no_tmp_left_behind(self, index):
        assert not os.path.exists(index.path + ".tmp")

    def test_closed_index_refuses_queries(self, pipeline_result, tmp_path):
        path = str(tmp_path / "closing.idx")
        built = FacetIndex.build(pipeline_result, path=path)
        built.close()
        with pytest.raises(StorageError, match="closed"):
            built.facet_names()


class TestQueryParity:
    """Every browser method answers identically from both backends."""

    def test_facet_names(self, index, interface):
        assert index.facet_names() == interface.facet_names()

    def test_top_level_counts(self, index, interface):
        assert index.top_level_counts() == interface.top_level_counts()

    def test_children_and_depth(self, index, interface):
        for term in interface.facet_names()[:20]:
            assert index.children(term) == interface.children(term)
            assert index.depth(term) == interface.depth(term)

    def test_children_of_nested_node(self, index, interface):
        deep = [
            facet.root.children[0].term
            for facet in interface.facets
            if facet.root.children
        ]
        assert deep, "pipeline produced no multi-level facet"
        for term in deep[:10]:
            assert index.children(term) == interface.children(term)
            assert index.depth(term) == interface.depth(term) == 1

    def test_breadcrumb(self, index, interface):
        for facet in interface.facets[:10]:
            for node in list(facet.root.walk())[:5]:
                assert index.breadcrumb(node.term) == interface.breadcrumb(
                    node.term
                )

    def test_has_node_and_errors_match(self, index, interface):
        term = interface.facet_names()[0]
        assert index.has_node(term) and interface.has_node(term)
        assert not index.has_node("zz-missing") and not interface.has_node(
            "zz-missing"
        )
        with pytest.raises(HierarchyError) as from_index:
            index.children("zz-missing")
        with pytest.raises(HierarchyError) as from_interface:
            interface.children("zz-missing")
        assert str(from_index.value) == str(from_interface.value)

    def test_slice_dice_union(self, index, interface):
        names = interface.facet_names()
        a, b = names[0], names[min(1, len(names) - 1)]
        assert _ids(index.slice(a)) == _ids(interface.slice(a))
        assert _ids(index.dice([])) == _ids(interface.dice([]))
        assert _ids(index.dice([a, b])) == _ids(interface.dice([a, b]))
        assert _ids(index.union([a, b])) == _ids(interface.union([a, b]))

    def test_document_roundtrip(self, index, interface):
        for doc in interface.dice([])[:10]:
            assert index.document(doc.doc_id) == doc
        with pytest.raises(StorageError) as from_index:
            index.document("zz-missing")
        with pytest.raises(StorageError) as from_interface:
            interface.document("zz-missing")
        assert str(from_index.value) == str(from_interface.value)

    def test_search_parity(self, index, interface):
        for query in ("minister", "election results", "court ruling appeal"):
            assert _ids(index.search(query, limit=15)) == _ids(
                interface.search(query, limit=15)
            )

    def test_search_with_facets_parity(self, index, interface):
        term = interface.facet_names()[0]
        for query in ("minister", "vote"):
            assert _ids(
                index.search_with_facets(query, [term], limit=10)
            ) == _ids(interface.search_with_facets(query, [term], limit=10))

    def test_facet_counts_for_parity(self, index, interface):
        subset = {doc.doc_id for doc in interface.dice([])[:25]}
        assert index.facet_counts_for(subset) == interface.facet_counts_for(
            subset
        )


class TestPayloadByteIdentity:
    """Canonical JSON from both backends is byte-for-byte equal."""

    def test_facets_payload(self, index, interface):
        assert canonical_json(facets_payload(index)) == canonical_json(
            facets_payload(interface)
        )

    def test_children_payload(self, index, interface):
        for term in interface.facet_names()[:10]:
            assert canonical_json(
                children_payload(index, term)
            ) == canonical_json(children_payload(interface, term))

    def test_drilldown_payload(self, index, interface):
        names = interface.facet_names()
        cases = [
            {"terms": [], "query": None, "limit": 10},
            {"terms": [names[0]], "query": None, "limit": 5},
            {"terms": names[:2], "query": None, "limit": 50},
            {"terms": [], "query": "minister", "limit": 10},
            {"terms": [names[0]], "query": "vote", "limit": 10},
        ]
        for case in cases:
            assert canonical_json(
                drilldown_payload(index, **case)
            ) == canonical_json(drilldown_payload(interface, **case))

    def test_document_payload(self, index, interface):
        doc_id = interface.dice([])[0].doc_id
        assert canonical_json(
            document_payload(index, doc_id)
        ) == canonical_json(document_payload(interface, doc_id))


class TestInterop:
    def test_to_interface_round_trip(self, index, interface):
        rebuilt = index.to_interface()
        assert rebuilt.facet_names() == interface.facet_names()
        assert rebuilt.top_level_counts() == interface.top_level_counts()
        assert _ids(rebuilt.dice([])) == _ids(interface.dice([]))


def _ids(documents) -> list[str]:
    return [doc.doc_id for doc in documents]
