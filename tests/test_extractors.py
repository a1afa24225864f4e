"""Tests for the three term extractors and the registry."""

from __future__ import annotations

import math
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.corpus.document import Document
from repro.errors import ExtractionError
from repro.extractors.base import ExtractorName
from repro.extractors.named_entities import NamedEntityExtractor
from repro.extractors.registry import build_extractor, build_extractors
from repro.extractors.significant_terms import SignificantTermsExtractor
from repro.extractors.wiki_titles import WikipediaTitleExtractor
from repro.text.phrases import document_terms
from repro.text.vocabulary import Vocabulary


def doc(text: str, title: str = "Untitled Report") -> Document:
    return Document(doc_id="t", title=title, body=text)


class TestNamedEntityExtractor:
    def test_finds_multiword_names(self):
        extractor = NamedEntityExtractor()
        terms = extractor.extract(
            doc("He met Jacques Chirac in the capital yesterday.")
        )
        assert "Jacques Chirac" in terms

    def test_skips_common_nouns(self):
        extractor = NamedEntityExtractor()
        terms = extractor.extract(
            doc("The election results surprised many voters this year.")
        )
        assert "election" not in [t.lower() for t in terms]

    def test_skips_headline_case_sentences(self):
        extractor = NamedEntityExtractor()
        terms = extractor.extract(
            Document(
                doc_id="t",
                title="Storm Clouds Gather Over The Capital Region",
                body="Nothing notable happened afterwards.",
            )
        )
        assert "Storm Clouds Gather Over The Capital Region" not in terms

    def test_common_openers_rejected(self):
        extractor = NamedEntityExtractor()
        terms = extractor.extract(
            doc("People familiar with the deal said so. People agreed.")
        )
        assert "People" not in terms

    def test_sentence_initial_singleton_needs_repetition(self):
        extractor = NamedEntityExtractor()
        # "Paris" opens a sentence once and never recurs capitalized.
        terms_once = extractor.extract(doc("Paris wants the deal done."))
        assert "Paris" not in terms_once
        # When it recurs, it counts.
        terms_twice = extractor.extract(
            doc("Paris wants the deal done. Officials in Paris agreed.")
        )
        assert "Paris" in terms_twice

    def test_mid_sentence_singleton_accepted(self):
        extractor = NamedEntityExtractor()
        terms = extractor.extract(doc("Talks continued in Geneva overnight."))
        assert "Geneva" in terms

    def test_deduplication(self):
        extractor = NamedEntityExtractor()
        terms = extractor.extract(
            doc(
                "He quietly met Anna Keller at the border station. "
                "The talks with Anna Keller continued into the night."
            )
        )
        assert terms.count("Anna Keller") == 1

    def test_name_dense_sentence_treated_as_headline(self):
        extractor = NamedEntityExtractor()
        # Mostly-capitalized short sentences look like headlines and are
        # skipped wholesale.
        terms = extractor.extract(doc("Later Anna Keller Spoke Again."))
        assert "Anna Keller" not in terms

    def test_dateline_not_merged(self):
        extractor = NamedEntityExtractor()
        terms = extractor.extract(doc("PARIS — Delegates met Anna Keller here."))
        assert not any("PARIS Delegates" in t for t in terms)


class TestSignificantTermsExtractor:
    def test_returns_top_terms(self):
        extractor = SignificantTermsExtractor(max_terms=5)
        terms = extractor.extract(
            doc(
                "The vaccine trial results showed the vaccine reduced "
                "infection. The vaccine will ship soon."
            )
        )
        assert len(terms) <= 5
        assert "vaccine" in terms

    def test_background_idf_demotes_ubiquitous_terms(self):
        # "report" and "year" blanket the background corpus; "vaccine"
        # is rare.  Rank by tf*idf must put vaccine above them even
        # though report has higher tf in the document.
        background = Vocabulary()
        text = "The report this year covered the vaccine and the report."
        doc_obj = doc(text)
        for _ in range(50):
            background.add_document(document_terms(doc(
                "The report this year covered the budget and the report."
            ).text))
        background.add_document(document_terms(doc_obj.text))
        extractor = SignificantTermsExtractor(background=background, max_terms=4)
        terms = extractor.extract(doc_obj)
        assert "vaccine" in terms
        if "report" in terms:
            assert terms.index("vaccine") < terms.index("report")

    def test_idf_memo_follows_the_background_document_count(self):
        background = Vocabulary()
        background.add_document(["vaccine", "report"])
        extractor = SignificantTermsExtractor(background=background)
        df = background.df("vaccine")
        assert extractor._current_idf()(df) == math.log(2 / 2) + 1.0
        # The corpus grows while df("vaccine") stays 1: a memo keyed by
        # df alone would return the value for one document.
        background.add_document(["report"])
        assert background.df("vaccine") == df
        assert extractor._current_idf()(df) == math.log(3 / 2) + 1.0

    def test_shared_extractor_scores_identically_across_threads(self):
        documents = [
            doc(f"Report {i} on the vaccine trial and market {i % 7}.")
            for i in range(40)
        ]
        background = Vocabulary()
        for document in documents:
            background.add_document(document_terms(document.text))
        reference = SignificantTermsExtractor(background=background)
        expected = [reference.extract(document) for document in documents]
        shared = SignificantTermsExtractor(background=background)

        def extract_all():
            return [shared.extract(document) for document in documents]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(extract_all) for _ in range(8)]
                results = [future.result(timeout=60) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        assert results == [expected] * 8

    def test_use_background_only_fills_empty(self):
        explicit = Vocabulary()
        explicit.add_document(["keep"])
        extractor = SignificantTermsExtractor(background=explicit)
        other = Vocabulary()
        extractor.use_background(other)
        assert extractor._background is explicit

    def test_phrases_preferred(self):
        extractor = SignificantTermsExtractor(max_terms=8)
        terms = extractor.extract(
            doc("Stock market gains. Stock market news. Stock market data.")
        )
        assert "stock market" in terms

    def test_invalid_max_terms(self):
        with pytest.raises(ValueError):
            SignificantTermsExtractor(max_terms=0)


class TestWikipediaTitleExtractor:
    def test_returns_surfaces(self, wikipedia):
        extractor = WikipediaTitleExtractor(wikipedia)
        terms = extractor.extract(doc("Hillary Clinton visited France."))
        assert "Hillary Clinton" in terms  # the surface, not the title
        assert "France" in terms

    def test_deduplicates_surfaces(self, wikipedia):
        extractor = WikipediaTitleExtractor(wikipedia)
        terms = extractor.extract(doc("France said France would act."))
        assert terms.count("France") == 1


class TestRegistry:
    def test_build_each_by_enum(self, wikipedia):
        for name in ExtractorName:
            extractor = build_extractor(name, wikipedia=wikipedia)
            assert extractor.name == name

    def test_build_by_string(self, wikipedia):
        assert build_extractor("NE").name == ExtractorName.NAMED_ENTITIES
        assert build_extractor("Yahoo").name == ExtractorName.YAHOO

    def test_unknown_name(self):
        with pytest.raises(ExtractionError):
            build_extractor("Bing")

    def test_wikipedia_extractor_requires_snapshot(self):
        with pytest.raises(ExtractionError):
            build_extractor(ExtractorName.WIKIPEDIA)

    def test_build_many(self, wikipedia):
        extractors = build_extractors(["NE", "Wikipedia"], wikipedia=wikipedia)
        assert len(extractors) == 2
