"""Tests for Steps 1-3: annotation, contextualization, selection."""

from __future__ import annotations

import pytest

from repro.core.annotate import annotate_database
from repro.core.contextualize import contextualize
from repro.core.selection import select_facet_terms
from repro.corpus.document import Document
from repro.resources.base import ExternalResource, ResourceName
from repro.text.phrases import document_terms


def doc(doc_id: str, text: str) -> Document:
    return Document(doc_id=doc_id, title="Brief", body=text)


class StubExtractor:
    """Returns capitalized bigrams as 'important terms'."""

    name = None

    def use_background(self, vocabulary):
        self.background = vocabulary

    def extract(self, document):
        words = document.body.split()
        return [w.strip(".,") for w in words if w[:1].isupper()]


class StubResource(ExternalResource):
    name = ResourceName.WIKI_GRAPH

    def __init__(self, table):
        super().__init__()
        self.table = table

    def _query(self, term):
        return list(self.table.get(term.lower(), []))


class TestDocumentTerms:
    def test_words_and_phrases(self):
        terms = document_terms(doc("d", "stock market fell").text)
        assert "stock" in terms
        assert "stock market" in terms

    def test_stopwords_excluded_from_words(self):
        terms = document_terms(doc("d", "the cat sat").text)
        assert "the" not in terms


class TestAnnotate:
    def test_important_terms_merged_and_deduplicated(self):
        documents = [doc("d1", "Paris hosted talks. Later Paris agreed.")]
        annotated = annotate_database(documents, [StubExtractor(), StubExtractor()])
        assert annotated.important("d1").count("Paris") == 1

    def test_background_offered_to_extractors(self):
        extractor = StubExtractor()
        annotate_database([doc("d1", "some text here")], [extractor])
        assert extractor.background.document_count == 1

    def test_vocabulary_covers_all_documents(self):
        documents = [doc("d1", "alpha beta"), doc("d2", "beta gamma")]
        annotated = annotate_database(documents, [])
        assert annotated.vocabulary.df("beta") == 2
        assert annotated.vocabulary.document_count == 2

    def test_term_sets_normalized(self):
        annotated = annotate_database([doc("d1", "Alpha BETA")], [])
        assert "alpha" in annotated.term_sets["d1"]
        assert "beta" in annotated.term_sets["d1"]

    def test_unknown_doc_returns_empty(self):
        annotated = annotate_database([doc("d1", "x")], [])
        assert annotated.important("nope") == []

    def test_duplicate_document_ids_rejected(self):
        """Callers outside the pipeline (the evaluation studies) get the
        same check: a repeat would be counted once per position by the
        statistics but once per id by the facet nodes."""
        documents = [doc("d1", "alpha"), doc("d2", "beta"), doc("d1", "alpha")]
        with pytest.raises(ValueError, match="duplicate document id: 'd1'"):
            annotate_database(documents, [StubExtractor()])


class TestContextualize:
    def test_context_terms_added(self):
        documents = [doc("d1", "Paris hosted the talks")]
        annotated = annotate_database(documents, [StubExtractor()])
        resource = StubResource({"paris": ["France", "Europe"]})
        contextualized = contextualize(annotated, [resource])
        assert contextualized.context("d1") == ["France", "Europe"]
        assert "france" in contextualized.expanded_sets["d1"]
        assert "paris" in contextualized.expanded_sets["d1"]  # original kept

    def test_context_deduplicated_across_terms(self):
        documents = [doc("d1", "Paris and Lyon spoke")]
        annotated = annotate_database(documents, [StubExtractor()])
        resource = StubResource({"paris": ["France"], "lyon": ["France"]})
        contextualized = contextualize(annotated, [resource])
        assert contextualized.context("d1").count("France") == 1

    def test_vocabulary_counts_expanded_terms(self):
        documents = [doc("d1", "Paris spoke"), doc("d2", "Paris agreed")]
        annotated = annotate_database(documents, [StubExtractor()])
        resource = StubResource({"paris": ["France"]})
        contextualized = contextualize(annotated, [resource])
        assert contextualized.vocabulary.df("france") == 2

    def test_resource_cache_reused_across_documents(self):
        documents = [doc(f"d{i}", "Paris spoke") for i in range(5)]
        annotated = annotate_database(documents, [StubExtractor()])
        resource = StubResource({"paris": ["France"]})
        contextualize(annotated, [resource])
        assert resource.cache_size == 1


class TestSelection:
    def _database(self):
        # "france" never appears in text but is added to most documents'
        # context; "paris" appears everywhere already.
        documents = [doc(f"d{i}", "Paris spoke plainly today") for i in range(8)]
        documents += [doc("d8", "quiet town news"), doc("d9", "other news")]
        annotated = annotate_database(documents, [StubExtractor()])
        resource = StubResource({"paris": ["France"]})
        return contextualize(annotated, [resource])

    def test_expanded_term_selected(self):
        candidates = select_facet_terms(self._database(), top_k=10)
        assert "france" in [c.term for c in candidates]

    def test_unshifted_term_not_selected(self):
        candidates = select_facet_terms(self._database(), top_k=50)
        assert "paris" not in [c.term for c in candidates]

    def test_scores_sorted_descending(self):
        candidates = select_facet_terms(self._database(), top_k=50)
        scores = [c.score for c in candidates]
        assert scores == sorted(scores, reverse=True)

    def test_top_k_cap(self):
        assert len(select_facet_terms(self._database(), top_k=1)) == 1

    def test_top_k_none_returns_all(self):
        capped = select_facet_terms(self._database(), top_k=1)
        full = select_facet_terms(self._database(), top_k=None)
        assert len(full) >= len(capped)

    def test_invalid_top_k(self):
        with pytest.raises(ValueError):
            select_facet_terms(self._database(), top_k=0)

    def test_invalid_statistic(self):
        with pytest.raises(ValueError):
            select_facet_terms(self._database(), statistic="t-test")

    def test_chi_square_variant_runs(self):
        candidates = select_facet_terms(
            self._database(), top_k=10, statistic="chi-square"
        )
        assert "france" in [c.term for c in candidates]

    def test_frequency_only_is_superset(self):
        both = select_facet_terms(self._database(), top_k=None)
        freq_only = select_facet_terms(
            self._database(), top_k=None, require_both_shifts=False
        )
        assert {c.term for c in both} <= {c.term for c in freq_only}

    def test_candidate_fields_consistent(self):
        for candidate in select_facet_terms(self._database(), top_k=None):
            assert candidate.shift_f == (
                candidate.df_contextualized - candidate.df_original
            )
            assert candidate.shift_f > 0
            assert candidate.score >= 0
