"""Unit certification of the columnar data plane.

The plane's contract is *representation only*: every columnar structure
must answer exactly what its dict-of-strings counterpart answers.  This
module pins the contract piece by piece — interner id stability, the
column zero-extend helper, the columnar vocabulary against the
Counter-backed reference, Figure 3 selection by term id against the
per-term shift functions and statistics over the reference
vocabularies, the text-layer lemmas the fast paths rely on (normalize
fixed points and the memo's output neutrality), and memoized extractor
output against the memo-less reference branches; it also checks that
the entry points load no numpy.  The end-to-end byte-identity matrix
lives in ``tests/test_columnar_equivalence.py``.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
import textwrap
from array import array
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.core.columnar import (
    ColumnarVocabulary,
    DocumentColumns,
    _zero_extend,
)
from repro.core.likelihood import log_likelihood_ratio
from repro.core.selection import FacetTermCandidate, rank_facet_terms, select_facet_terms
from repro.core.shifts import frequency_shift, rank_shift
from repro.corpus import build_mnyt, build_snb, build_snyt
from repro.corpus.document import Document
from repro.extractors.named_entities import NamedEntityExtractor
from repro.extractors.significant_terms import SignificantTermsExtractor
from repro.text.interning import TextMemo, use_text_memo
from repro.text.phrases import document_terms
from repro.text.tokenizer import normalize_term as raw_normalize_term
from repro.text.tokenizer import sentences as raw_sentences
from repro.text.tokenizer import tokenize as raw_tokenize
from repro.text.vocabulary import TermInterner, Vocabulary
from repro.wikipedia.titles import TitleMatcher

WORDS = [
    "election",
    "storm",
    "clinton",
    "senate",
    "hurricane",
    "budget",
    "treaty",
    "verdict",
    "strike",
    "summit",
]


def random_documents(seed: int, count: int = 40) -> list[list[str]]:
    rng = random.Random(seed)
    return [
        [rng.choice(WORDS) for _ in range(rng.randint(0, 12))]
        for _ in range(count)
    ]


class TestTermInterner:
    def test_ids_are_first_seen_order_and_stable(self):
        interner = TermInterner()
        assert interner.intern("storm") == 0
        assert interner.intern("election") == 1
        assert interner.intern("storm") == 0  # repeat: same id
        assert interner.intern("senate") == 2
        assert interner.term(1) == "election"
        assert interner.terms() == ["storm", "election", "senate"]
        assert len(interner) == 3
        assert "storm" in interner
        assert "hurricane" not in interner
        assert interner.id_of("hurricane") is None

    def test_ids_survive_interleaved_growth(self):
        """Structures keyed by id stay valid as the table grows."""
        interner = TermInterner()
        first = {term: interner.intern(term) for term in WORDS[:5]}
        for term in WORDS:  # grow with new + old terms interleaved
            interner.intern(term)
        for term, term_id in first.items():
            assert interner.intern(term) == term_id
            assert interner.term(term_id) == term

    def test_normalized_id_memoizes_per_surface(self):
        interner = TermInterner()
        a = interner.normalized_id("Hillary  Clinton")
        b = interner.normalized_id("hillary clinton")
        assert a == b == interner.id_of("hillary clinton")
        assert interner.normalize("Hillary  Clinton") == "hillary clinton"

    def test_empty_normalization_gets_the_sentinel(self):
        interner = TermInterner()
        assert interner.normalized_id("   ") == TermInterner.EMPTY
        assert interner.normalize("   ") == ""
        assert len(interner) == 0  # the sentinel never enters the table


class TestZeroExtend:
    def test_grow_to_zero_extends(self):
        column = array("i", [3, 1])
        _zero_extend(column, 5)
        assert list(column) == [3, 1, 0, 0, 0]
        _zero_extend(column, 2)  # never shrinks
        assert len(column) == 5


class TestColumnarVocabularyEquivalence:
    """ColumnarVocabulary answers exactly what Vocabulary answers."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_every_accessor_matches_the_reference(self, seed):
        reference = Vocabulary()
        columnar = ColumnarVocabulary()
        for doc in random_documents(seed):
            reference.add_document(doc)
            columnar.add_document(doc)
        assert columnar.document_count == reference.document_count
        assert columnar.term_count == reference.term_count
        assert len(columnar) == len(reference)
        assert sorted(columnar.terms()) == sorted(reference.terms())
        assert columnar.most_common() == reference.most_common()
        assert columnar.most_common(3) == reference.most_common(3)
        for term in [*WORDS, "never-seen"]:
            assert columnar.tf(term) == reference.tf(term)
            assert columnar.df(term) == reference.df(term)
            assert columnar.rank(term) == reference.rank(term)
            assert (term in columnar) == (term in reference)
            assert columnar.stats(term) == reference.stats(term)

    def test_ranks_match_the_reference_under_heavy_ties(self):
        """Few df values over many terms, first seen out of term order:
        the rank column's two stable sorts must break every df tie by
        term, exactly like the reference's ``(-df, term)`` key."""
        rng = random.Random(11)
        words = [f"term{i:03d}" for i in range(300)]
        rng.shuffle(words)
        reference = Vocabulary()
        columnar = ColumnarVocabulary()
        for _ in range(40):
            doc = rng.sample(words, 20)
            reference.add_document(doc)
            columnar.add_document(doc)
        present = reference.terms()
        assert len(present) > 250 and len({reference.df(t) for t in present}) < 12
        for term in [*words, "never-seen"]:
            assert columnar.rank(term) == reference.rank(term)

    def test_remove_document_matches_reference_including_errors(self):
        reference = Vocabulary()
        columnar = ColumnarVocabulary()
        # The id-level twin the stream drives (remove_document_ids).
        by_ids = ColumnarVocabulary(columnar.interner)
        intern = columnar.interner.intern_many
        docs = random_documents(11, count=10)
        for doc in docs:
            reference.add_document(doc)
            columnar.add_document(doc)
            by_ids.add_document_ids(intern(doc))
        for doc in docs[:5]:
            reference.remove_document(doc)
            columnar.remove_document(doc)
            by_ids.remove_document_ids(intern(doc))
        # The stream's dirty re-expansion: remove a document, re-add a
        # changed one — terms dropped (some df reach zero), terms kept,
        # terms new to the vocabulary, and zero-df terms coming back.
        rng = random.Random(29)
        live = [list(doc) for doc in docs[5:]]
        extra = [f"fresh-{i}" for i in range(4)]
        for step in range(40):
            position = rng.randrange(len(live))
            old = live[position]
            new = [term for term in old if rng.random() < 0.5]
            new += rng.choices([*WORDS, *extra], k=rng.randint(0, 6))
            if step % 7 == 0:
                new = []  # an emptied document
            reference.remove_document(old)
            columnar.remove_document(old)
            by_ids.remove_document_ids(intern(old))
            reference.add_document(new)
            columnar.add_document(new)
            by_ids.add_document_ids(intern(new))
            live[position] = new
            for vocabulary in (columnar, by_ids):
                assert vocabulary.document_count == reference.document_count
                assert sorted(vocabulary.terms()) == sorted(reference.terms())
                for term in [*WORDS, *extra, "never-seen"]:
                    assert vocabulary.df(term) == reference.df(term)
                    assert vocabulary.tf(term) == reference.tf(term)
                    assert vocabulary.rank(term) == reference.rank(term)
                assert vocabulary.most_common() == reference.most_common()
                assert vocabulary.most_common(3) == reference.most_common(3)
        with pytest.raises(ValueError, match="never added"):
            columnar.remove_document(["never-seen"])
        with pytest.raises(ValueError, match="never added"):
            columnar.remove_document(["storm"] * 1000)
        with pytest.raises(ValueError, match="never added"):
            by_ids.remove_document_ids([columnar.interner.intern("unused")])
        empty = ColumnarVocabulary()
        with pytest.raises(ValueError, match="empty vocabulary"):
            empty.remove_document(["storm"])
        with pytest.raises(ValueError, match="empty vocabulary"):
            empty.remove_document_ids([0])
        # Failed removals must not have touched any statistic.
        for vocabulary in (columnar, by_ids):
            assert vocabulary.document_count == reference.document_count
            assert vocabulary.most_common() == reference.most_common()


class TestDocumentColumns:
    def test_round_trip_and_postings(self):
        columns = DocumentColumns(TermInterner())
        columns.add_document("d1", ["storm", "election", "storm"])
        columns.add_document("d2", [])
        columns.add_document("d3", ["election", "senate"])
        assert len(columns) == 3
        assert columns.terms_of(0) == ["storm", "election", "storm"]
        assert columns.terms_of(1) == []
        assert columns.terms_of(2) == ["election", "senate"]
        assert columns.index_of("d3") == 2
        assert columns.index_of("nope") is None
        postings = columns.postings()
        election = columns.interner.id_of("election")
        storm = columns.interner.id_of("storm")
        assert list(postings[election]) == [0, 2]
        assert list(postings[storm]) == [0]  # distinct per doc
        restricted = columns.postings({storm})
        assert set(restricted) == {storm}


class TestSelectionLoop:
    """Figure 3's one candidate loop over the columnar vocabularies."""

    def build_pair(self, seed: int, make_vocabulary):
        original, contextualized = make_vocabulary(), make_vocabulary()
        rng = random.Random(seed)
        for doc in random_documents(seed, count=30):
            original.add_document(doc)
            expanded = doc + [rng.choice(WORDS) for _ in range(rng.randint(0, 4))]
            contextualized.add_document(set(expanded))
        return original, contextualized

    def columnar_pair(self, seed: int):
        interner = TermInterner()
        return self.build_pair(seed, lambda: ColumnarVocabulary(interner))

    @staticmethod
    def select(original, contextualized, require_both=True):
        database = SimpleNamespace(
            annotated=SimpleNamespace(
                vocabulary=original,
                documents=[None] * original.document_count,
            ),
            vocabulary=contextualized,
        )
        return select_facet_terms(
            database, top_k=None, require_both_shifts=require_both
        )

    @pytest.mark.parametrize("require_both", [True, False])
    @pytest.mark.parametrize("seed", [21, 22, 23])
    def test_candidates_equal_the_scalar_shift_test(self, seed, require_both):
        original, contextualized = self.columnar_pair(seed)
        selected = {
            candidate.term
            for candidate in self.select(original, contextualized, require_both)
        }
        scalar = {
            term
            for term in original.interner.terms()
            if contextualized.df(term) > 0
            and frequency_shift(term, original, contextualized) > 0
            and (
                not require_both or rank_shift(term, original, contextualized) > 0
            )
        }
        assert scalar  # non-trivial input
        assert selected == scalar

    def test_columnar_and_reference_vocabularies_select_alike(self):
        """The id loop equals the per-term reference over dict twins:
        scalar shifts and statistic, sorted by ``(-score, term)``."""
        selected = self.select(*self.columnar_pair(24))
        original, contextualized = self.build_pair(24, Vocabulary)
        reference = []
        for term in contextualized.terms():
            shift_f = frequency_shift(term, original, contextualized)
            shift_r = rank_shift(term, original, contextualized)
            if shift_f <= 0 or shift_r <= 0:
                continue
            df, df_c = original.df(term), contextualized.df(term)
            reference.append(
                FacetTermCandidate(
                    term=term,
                    df_original=df,
                    df_contextualized=df_c,
                    shift_f=shift_f,
                    shift_r=shift_r,
                    score=log_likelihood_ratio(df, df_c, original.document_count),
                )
            )
        reference.sort(key=lambda c: (-c.score, c.term))
        assert selected  # non-trivial input
        assert selected == reference

    def test_vocabularies_over_two_interners_are_refused(self):
        original, contextualized = self.build_pair(25, ColumnarVocabulary)
        with pytest.raises(ValueError, match="one term interner"):
            self.select(original, contextualized)
        with pytest.raises(ValueError, match="one term interner"):
            rank_facet_terms(
                [],
                original,
                contextualized,
                original.document_count,
                statistic="log-likelihood",
                require_both_shifts=True,
            )


def test_entry_points_do_not_load_numpy():
    """The data plane is stdlib-only: no entry point may import numpy."""
    probe = textwrap.dedent(
        """
        import sys

        import repro.__main__
        import repro.builder
        import repro.incremental
        import repro.serving.app

        print("numpy" in sys.modules)
        """
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    result = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip().splitlines()[-1] == "False"


DOC = Document(
    doc_id="pin",
    title="Senate Passes Budget as Hurricane Season Begins",
    body=(
        'The U.S. Senate passed the budget on Tuesday. "Hurricane season '
        'begins," said Dr. Smith — and 3,000 people left New Orleans. '
        "Storm-related costs rose 12.5 percent."
    ),
)


@pytest.fixture(scope="module")
def corpus_heads(config) -> list[Document]:
    """The first stories of each generated corpus (SNYT, SNB, MNYT)."""
    return [
        document
        for build in (build_snyt, build_snb, build_mnyt)
        for document in build(config).documents[:20]
    ]


class TestTextLayerLemmas:
    """The equivalences the columnar fast paths are built on."""

    def test_document_terms_are_normalize_fixed_points(self):
        """The statistics pass may skip normalization entirely."""
        terms = document_terms(DOC.text)
        assert terms  # non-trivial input
        for term in terms:
            assert raw_normalize_term(term) == term

    def test_sentence_token_streams_concatenate_to_the_full_stream(self):
        """Single-tokenization document_terms cannot change the words."""
        per_sentence = [
            token.lower
            for sentence in raw_sentences(DOC.text)
            for token in raw_tokenize(sentence)
        ]
        whole = [token.lower for token in raw_tokenize(DOC.text)]
        assert per_sentence == whole

    def test_text_memo_is_output_neutral(self):
        with use_text_memo(TextMemo()):
            from repro.text.interning import (
                normalize_term,
                sentences,
                tokenize,
            )

            assert tokenize(DOC.text) == raw_tokenize(DOC.text)
            assert sentences(DOC.text) == raw_sentences(DOC.text)
            for surface in ("U.S. Senate", "Hurricane  Season", "3,000"):
                assert normalize_term(surface) == raw_normalize_term(surface)

    @pytest.mark.parametrize(
        "extractor",
        ["named-entities", "title-matcher", "significant-terms", "document-terms"],
    )
    def test_memo_fast_path_is_output_neutral(
        self, extractor, wikipedia, corpus_heads
    ):
        """The memo-less branch is the reference the fast path must match."""
        if extractor == "named-entities":
            extract = NamedEntityExtractor().extract
        elif extractor == "significant-terms":
            background = Vocabulary()
            for document in corpus_heads:
                background.add_document(document_terms(document.text))
            extract = SignificantTermsExtractor(background=background).extract
        elif extractor == "document-terms":

            def extract(document):
                return document_terms(document.text)

        else:
            matcher = TitleMatcher(wikipedia)

            def extract(document):
                return matcher.matches(document.text)

        for document in [DOC, *corpus_heads]:
            plain = extract(document)
            with use_text_memo(TextMemo()):
                fast = extract(document)
            assert fast == plain, document.doc_id
