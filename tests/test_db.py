"""Tests for the text-database substrate (store, index, search)."""

from __future__ import annotations

import pytest

from repro.corpus.document import Document
from repro.db.inverted_index import InvertedIndex
from repro.db.search import BM25Searcher
from repro.db.store import DocumentStore
from repro.errors import StorageError


def make_doc(doc_id: str, title: str, body: str) -> Document:
    return Document(doc_id=doc_id, title=title, body=body)


@pytest.fixture()
def docs():
    return [
        make_doc("d1", "Storm hits coast", "The storm caused flooding on the coast."),
        make_doc("d2", "Market rally", "The stock market rallied as investors cheered."),
        make_doc("d3", "Storm aftermath", "Rescue teams searched after the storm."),
    ]


class TestDocumentStore:
    def test_add_and_get(self, docs):
        store = DocumentStore(docs)
        assert store.get("d2").title == "Market rally"
        assert len(store) == 3

    def test_duplicate_rejected(self, docs):
        store = DocumentStore(docs)
        with pytest.raises(StorageError):
            store.add(docs[0])

    def test_unknown_id(self, docs):
        store = DocumentStore(docs)
        with pytest.raises(StorageError):
            store.get("nope")

    def test_contains_and_iter(self, docs):
        store = DocumentStore(docs)
        assert "d1" in store
        assert [d.doc_id for d in store] == ["d1", "d2", "d3"]


class TestInvertedIndex:
    def test_document_frequency(self, docs):
        index = InvertedIndex()
        index.add_documents(docs)
        assert index.document_frequency("storm") == 2
        assert index.document_frequency("market") == 1
        assert index.document_frequency("zebra") == 0

    def test_stopwords_not_indexed(self, docs):
        index = InvertedIndex()
        index.add_documents(docs)
        assert "the" not in index

    def test_phrases_indexed(self, docs):
        index = InvertedIndex()
        index.add_documents(docs)
        assert "stock market" in index

    def test_postings_carry_tf(self, docs):
        index = InvertedIndex()
        index.add_documents(docs)
        postings = index.postings("storm")
        by_id = {p.doc_id: p.term_frequency for p in postings}
        assert by_id["d1"] == 2  # title + body

    def test_documents_with(self, docs):
        index = InvertedIndex()
        index.add_documents(docs)
        assert index.documents_with("storm") == {"d1", "d3"}

    def test_lengths(self, docs):
        index = InvertedIndex()
        index.add_documents(docs)
        assert index.document_count == 3
        assert index.average_document_length > 0
        assert index.document_length("d1") > 0
        assert index.document_length("nope") == 0


class TestBM25:
    def test_relevant_doc_ranks_first(self, docs):
        index = InvertedIndex()
        index.add_documents(docs)
        searcher = BM25Searcher(index)
        results = searcher.search("stock market investors")
        assert results[0].doc_id == "d2"

    def test_multiple_matches_ordered(self, docs):
        index = InvertedIndex()
        index.add_documents(docs)
        results = BM25Searcher(index).search("storm")
        assert {r.doc_id for r in results} == {"d1", "d3"}
        assert results[0].score >= results[1].score

    def test_no_match(self, docs):
        index = InvertedIndex()
        index.add_documents(docs)
        assert BM25Searcher(index).search("xylophone") == []

    def test_stopword_only_query(self, docs):
        index = InvertedIndex()
        index.add_documents(docs)
        assert BM25Searcher(index).search("the and of") == []

    def test_limit(self, docs):
        index = InvertedIndex()
        index.add_documents(docs)
        assert len(BM25Searcher(index).search("storm", limit=1)) == 1

    def test_parameter_validation(self, docs):
        index = InvertedIndex()
        with pytest.raises(ValueError):
            BM25Searcher(index, k1=-1)
        with pytest.raises(ValueError):
            BM25Searcher(index, b=2)

    def test_scores_positive(self, docs):
        index = InvertedIndex()
        index.add_documents(docs)
        for result in BM25Searcher(index).search("storm coast"):
            assert result.score > 0
