"""Tests for the read-only serving artifact (repro.serving.artifact).

The load-bearing property is *byte identity*: an artifact built from a
pipeline run must answer every query of the shared browser surface with
exactly the values the in-memory :class:`FacetedInterface` produces —
same objects, same order, same canonical JSON bytes.
"""

from __future__ import annotations

import itertools
import os
import random
import sys
import threading
from datetime import date

import pytest

from repro.config import ServingConfig
from repro.core.hierarchy import FacetHierarchy, FacetNode
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


class TestDrilldownParity:
    """The ids-first drilldown and the node bitmaps answer exactly as the
    in-memory interface does, over every node and a wide set of dices."""

    LIMITS = (1, 10, ServingConfig().max_limit)

    @staticmethod
    def _assert_same(index, interface, terms):
        for limit in TestDrilldownParity.LIMITS:
            case = {"terms": terms, "query": None, "limit": limit}
            assert canonical_json(
                drilldown_payload(index, **case)
            ) == canonical_json(drilldown_payload(interface, **case)), case

    def test_every_node_and_the_whole_collection(self, index, interface):
        self._assert_same(index, interface, [])
        for term in _node_docs(interface):
            self._assert_same(index, interface, [term])

    def test_dices_over_co_occurring_and_disjoint_nodes(self, index, interface):
        node_docs = _node_docs(interface)
        terms_of: dict[str, list[str]] = {}
        for term, doc_ids in node_docs.items():
            for doc_id in doc_ids:
                terms_of.setdefault(doc_id, []).append(term)
        # Every pair's matched ids; full payloads for one pair drawn per
        # document (as the benchmark's dice route draws them) and for
        # every pair whose intersection is empty.
        rng = random.Random(24)
        drawn = [
            rng.sample(terms, 2)
            for _doc_id, terms in sorted(terms_of.items())
            if len(terms) >= 2
        ]
        disjoint = []
        for a, b in itertools.combinations(node_docs, 2):
            assert index.dice_ids([a, b]) == interface.dice_ids([a, b])
            if not node_docs[a] & node_docs[b]:
                disjoint.append([a, b])
        assert drawn and disjoint, "fixture lost its co-occurring or disjoint pairs"
        for terms in drawn + disjoint:
            self._assert_same(index, interface, terms)

    def test_facet_counts_for_empty_and_foreign_ids(self, index, interface):
        assert index.facet_counts_for(set()) == interface.facet_counts_for(set()) == []
        subset = set(interface.dice_ids([])[:25])
        foreign = subset | {"zz-missing-1", "zz-missing-2"}
        assert index.facet_counts_for(foreign) == interface.facet_counts_for(foreign)
        assert index.facet_counts_for(foreign) == index.facet_counts_for(subset)
        assert index.facet_counts_for({"zz-missing-1"}) == []

    def test_ids_then_page_matches_dice(self, index, interface):
        term = interface.facet_names()[0]
        ids = index.dice_ids([term])
        assert ids == interface.dice_ids([term]) == sorted(ids)
        assert index.dice_ids([]) == interface.dice_ids([])
        assert _ids(index.documents(ids)) == ids
        assert index.documents(ids[:5]) == interface.documents(ids[:5])
        assert index.documents(list(reversed(ids[:3]))) == interface.documents(
            list(reversed(ids[:3]))
        )
        assert index.documents([]) == []

    def test_documents_reads_more_ids_than_one_chunk(self, index, interface):
        ids = interface.dice_ids([])
        many = (ids * (600 // len(ids) + 1))[:600]
        assert _ids(index.documents(many)) == many

    def test_unknown_term_and_doc_id_errors_unchanged(self, index, interface):
        with pytest.raises(HierarchyError) as from_index:
            index.dice_ids([interface.facet_names()[0], "zz-missing"])
        with pytest.raises(HierarchyError) as from_interface:
            interface.dice_ids([interface.facet_names()[0], "zz-missing"])
        assert str(from_index.value) == str(from_interface.value)
        assert str(from_index.value) == "no facet node for term: 'zz-missing'"
        known = interface.dice_ids([])[0]
        with pytest.raises(StorageError) as from_index:
            index.documents([known, "zz-missing"])
        with pytest.raises(StorageError) as from_interface:
            interface.documents([known, "zz-missing"])
        assert str(from_index.value) == str(from_interface.value)
        assert str(from_index.value) == "unknown doc_id: 'zz-missing'"


@pytest.fixture()
def paged(tmp_path):
    """30 stories under one root with two children."""
    documents = [
        Document(doc_id=f"d{i:02d}", title=f"Story {i}", body=f"Talk{i} today.")
        for i in range(30)
    ]
    leaf = FacetNode(term="France", doc_ids={"d00"})
    middle = FacetNode(term="Japan", doc_ids={f"d{i:02d}" for i in range(1, 15)})
    root = FacetNode(
        term="Region",
        children=[leaf, middle],
        doc_ids={doc.doc_id for doc in documents},
    )
    index = InvertedIndex()
    index.add_documents(documents)
    built = FacetIndex.build_from_parts(
        documents=documents,
        index=index,
        facets=[FacetHierarchy(root=root)],
        path=str(tmp_path / "paged.idx"),
    )
    yield built
    built.close()


def _statements(index: FacetIndex, call) -> tuple[object, list[str]]:
    """``call()``'s result and the SQL statements it issued."""
    issued: list[str] = []
    connection = index._connection()
    connection.set_trace_callback(issued.append)
    try:
        result = call()
    finally:
        connection.set_trace_callback(None)
    return result, issued


class TestRouteStatements:
    """Search reads each term's postings once; a children view resolves
    its node once and its breadcrumb in one statement."""

    def test_keyword_drilldown_reads_each_term_once(self, paged):
        def keyword_drilldown():
            return drilldown_payload(paged, terms=[], query="story talk today", limit=10)

        keyword_drilldown()  # warm pass: lengths, rank table, bitmaps
        payload, issued = _statements(paged, keyword_drilldown)
        assert payload["total"] == 10
        # One postings read per term, one page fetch.
        assert len(issued) == 4
        assert sum("FROM postings" in sql for sql in issued) == 3
        _payload, repeated = _statements(
            paged,
            lambda: drilldown_payload(
                paged, terms=[], query="story talk today talk", limit=10
            ),
        )
        assert len(repeated) == 4

    def test_children_payload_resolves_its_node_once(self, paged):
        def japan():
            return children_payload(paged, "Japan")

        cold, cold_issued = _statements(paged, japan)
        warm, warm_issued = _statements(paged, japan)
        assert cold == warm == {
            "schema": cold["schema"],
            "term": "Japan",
            "depth": 1,
            "breadcrumb": ["Region", "Japan"],
            "children": [],
        }
        # Node lookup, breadcrumb, children; the node row is then cached.
        assert len(cold_issued) == 3
        assert len(warm_issued) == 2

    def test_children_payload_bytes_match_at_every_depth(self, index, interface):
        terms = [node.term for facet in interface.facets for node in facet.root.walk()]
        assert any(interface.depth(term) >= 2 for term in terms)
        for term in terms:
            assert canonical_json(children_payload(index, term)) == canonical_json(
                children_payload(interface, term)
            ), term


class TestDrilldownStatements:
    """A drilldown issues the same few SQL statements whatever it matches."""

    def test_statements_do_not_grow_with_the_matched_set(self, paged):
        def statements(term: str) -> tuple[int, int]:
            issued: list[str] = []
            connection = paged._connection()
            connection.set_trace_callback(issued.append)
            try:
                payload = drilldown_payload(paged, terms=[term], query=None, limit=10)
            finally:
                connection.set_trace_callback(None)
            return payload["total"], len(issued)

        for term in ("Region", "France"):  # warm pass: rank table, bitmaps
            drilldown_payload(paged, terms=[term], query=None, limit=10)
        root_total, root_statements = statements("Region")
        leaf_total, leaf_statements = statements("France")
        assert (root_total, leaf_total) == (30, 1)
        assert root_statements == leaf_statements <= 3


    def test_node_doc_missing_from_documents_is_a_storage_error(self, tmp_path):
        documents = [Document(doc_id="d1", title="T", body="Talk.")]
        index = InvertedIndex()
        index.add_documents(documents)
        node = FacetNode(term="Region", doc_ids={"d1", "ghost"})
        with FacetIndex.build_from_parts(
            documents=documents,
            index=index,
            facets=[FacetHierarchy(root=node)],
            path=str(tmp_path / "ghost.idx"),
        ) as built:
            with pytest.raises(StorageError, match="unknown doc_id: 'ghost'"):
                built.dice_ids(["Region"])


class TestColdCacheConcurrency:
    """Eight threads (``FacetApp``'s executor size) filling the lazy
    rank table, node rows and node bitmaps of a fresh index at once get
    the serial bytes."""

    def test_parallel_first_queries_match_a_serial_run(self, index, interface):
        names = interface.facet_names()
        nodes = list(_node_docs(interface))
        cases = [{"terms": [term], "query": None, "limit": 10} for term in nodes[:40]]
        cases += [
            {"terms": [a, b], "query": None, "limit": 10}
            for a, b in zip(names, nodes[::-1][:20])
        ]
        cases += [
            {"terms": terms, "query": q, "limit": 10}
            for q in ("minister", "election results")
            for terms in ([], names[:1])
        ]
        cases.append({"terms": [], "query": None, "limit": 10})
        with FacetIndex.open(index.path) as serial_index:
            expected = [
                canonical_json(drilldown_payload(serial_index, **case))
                for case in cases
            ]

        threads_n = 8
        results: dict[int, list[bytes]] = {}
        errors: list[BaseException] = []
        barrier = threading.Barrier(threads_n)
        interval = sys.getswitchinterval()
        with FacetIndex.open(index.path) as fresh:

            def worker(offset: int) -> None:
                try:
                    barrier.wait(timeout=30)
                    order = cases[offset:] + cases[:offset]
                    got = [
                        canonical_json(drilldown_payload(fresh, **case))
                        for case in order
                    ]
                    results[offset] = got[-offset:] + got[:-offset] if offset else got
                except BaseException as exc:  # surfaced by the main thread
                    errors.append(exc)

            sys.setswitchinterval(1e-6)
            try:
                threads = [
                    threading.Thread(target=worker, args=(offset,))
                    for offset in range(threads_n)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
            finally:
                sys.setswitchinterval(interval)
            assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert sorted(results) == list(range(threads_n))
        for offset in range(threads_n):
            assert results[offset] == expected, offset


def _node_docs(interface) -> dict[str, set[str]]:
    """First node per term (the one both backends resolve), pre-order."""
    nodes: dict[str, set[str]] = {}
    for facet in interface.facets:
        for node in facet.root.walk():
            if interface.node(node.term) is node:
                nodes.setdefault(node.term, node.doc_ids)
    return nodes


def _ids(documents) -> list[str]:
    return [doc.doc_id for doc in documents]
