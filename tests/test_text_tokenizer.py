"""Tests for repro.text.tokenizer."""

from __future__ import annotations

from hypothesis import given, strategies as st

from repro.text.tokenizer import normalize_term, sentences, tokenize, word_tokens

from .test_columnar import DOC


class TestTokenize:
    def test_simple_words(self):
        tokens = tokenize("The quick brown fox")
        assert [t.text for t in tokens] == ["The", "quick", "brown", "fox"]

    def test_offsets(self):
        tokens = tokenize("ab cd")
        assert (tokens[0].start, tokens[0].end) == (0, 2)
        assert (tokens[1].start, tokens[1].end) == (3, 5)

    def test_apostrophes_kept_inside_words(self):
        assert [t.text for t in tokenize("don't stop")] == ["don't", "stop"]

    def test_hyphenated_word_is_one_token(self):
        assert [t.text for t in tokenize("well-known fact")][0] == "well-known"

    def test_numbers(self):
        tokens = tokenize("1,000 deaths and 3.14 ratio")
        assert tokens[0].text == "1,000"
        assert tokens[0].is_numeric

    def test_punctuation_skipped(self):
        assert word_tokens("Hello, world!") == ["hello", "world"]

    def test_empty_string(self):
        assert tokenize("") == []

    def test_capitalization_flag(self):
        tokens = tokenize("Paris in spring")
        assert tokens[0].is_capitalized
        assert not tokens[1].is_capitalized

    def test_lower_property(self):
        assert tokenize("HELLO")[0].lower == "hello"

    @given(st.text(max_size=200))
    def test_never_raises(self, text):
        for token in tokenize(text):
            assert token.text
            assert 0 <= token.start < token.end <= len(text)

    @given(
        st.text(
            alphabet="abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ",
            min_size=1,
            max_size=30,
        )
    )
    def test_pure_ascii_letters_single_token(self, text):
        tokens = tokenize(text)
        assert len(tokens) == 1
        assert tokens[0].text == text


class TestWordTokens:
    """``word_tokens`` skips the Token objects but yields the same words."""

    def test_matches_tokenize_on_newswire(self, snyt):
        texts = [DOC.text] + [document.text for document in snyt.documents[:50]]
        for text in texts:
            assert word_tokens(text) == [token.lower for token in tokenize(text)]

    @given(st.text(max_size=200))
    def test_matches_tokenize_on_any_text(self, text):
        assert word_tokens(text) == [token.lower for token in tokenize(text)]


class TestSentences:
    def test_basic_split(self):
        assert sentences("One sentence. Another one.") == [
            "One sentence.",
            "Another one.",
        ]

    def test_abbreviation_not_split(self):
        result = sentences("Mr. Smith arrived. He sat down.")
        assert len(result) == 2
        assert result[0] == "Mr. Smith arrived."

    def test_corp_abbreviation_never_splits(self):
        # "Corp." is ambiguous (could end the sentence); the splitter
        # deliberately keeps it attached rather than over-splitting.
        result = sentences("He joined Acme Corp. of Delaware last year.")
        assert len(result) == 1

    def test_question_and_exclamation(self):
        result = sentences("Really? Yes! Fine.")
        assert len(result) == 3

    def test_empty(self):
        assert sentences("") == []
        assert sentences("   ") == []

    def test_single_sentence_no_terminator(self):
        assert sentences("no terminator here") == ["no terminator here"]

    def test_quote_after_period(self):
        result = sentences('He said stop. "Go on," she replied.')
        assert len(result) == 2


class TestNormalizeTerm:
    def test_lowercases(self):
        assert normalize_term("Jacques Chirac") == "jacques chirac"

    def test_strips_punctuation(self):
        assert normalize_term("U.S.") == "u s"

    def test_collapses_whitespace(self):
        assert normalize_term("  New   York  ") == "new york"

    def test_comma_form(self):
        assert normalize_term("Clinton, Hillary Rodham") == "clinton hillary rodham"

    def test_empty(self):
        assert normalize_term("") == ""
        assert normalize_term("...") == ""

    @given(st.text(max_size=100))
    def test_idempotent(self, text):
        once = normalize_term(text)
        assert normalize_term(once) == once
