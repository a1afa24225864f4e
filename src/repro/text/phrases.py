"""N-gram and candidate-phrase extraction.

Facet terms in the paper are "single words and multi-word phrases"
(Section IV-A, footnote 2).  This module produces the candidate phrases
that the term extractors and frequency analysis operate on: contiguous
word n-grams that neither start nor end with a stopword.
:func:`document_terms` is a document's one term list, read by both the
Step 1 statistics and the Yahoo stand-in's tf·idf scoring.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

from .interning import active_memo, sentences, tokenize
from .stopwords import is_stopword
from .tokenizer import Token


def ngrams(words: list[str], n: int) -> Iterator[tuple[str, ...]]:
    """Yield contiguous ``n``-grams of ``words``."""
    if n <= 0:
        raise ValueError(f"n must be positive, got {n}")
    for i in range(len(words) - n + 1):
        yield tuple(words[i : i + n])


def _valid_phrase(words: tuple[str, ...]) -> bool:
    """A candidate phrase may not start/end with a stopword or number."""
    first, last = words[0], words[-1]
    if is_stopword(first) or is_stopword(last):
        return False
    if first[0].isdigit() and len(words) == 1:
        return False
    return True


def phrases_from_words(
    words: list[str],
    max_words: int = 3,
    include_unigrams: bool = True,
) -> list[str]:
    """Candidate phrases of one sentence, given its lower-cased words.

    The n-gram half of :func:`candidate_phrases` — callers that already
    hold a sentence's token stream (the annotation statistics pass) use
    this directly instead of re-tokenizing the text.
    """
    if max_words <= 0:
        raise ValueError(f"max_words must be positive, got {max_words}")
    phrases: list[str] = []
    min_n = 1 if include_unigrams else 2
    for n in range(min_n, max_words + 1):
        for gram in ngrams(words, n):
            if _valid_phrase(gram):
                phrases.append(" ".join(gram))
    return phrases


def candidate_phrases(
    text: str,
    max_words: int = 3,
    include_unigrams: bool = True,
) -> list[str]:
    """Extract candidate phrases from ``text``.

    Phrases never cross sentence boundaries; each is lower-cased and
    space-joined.  Duplicates are preserved (callers count frequencies).
    """
    if max_words <= 0:
        raise ValueError(f"max_words must be positive, got {max_words}")
    phrases: list[str] = []
    for sentence in sentences(text):
        words = [token.lower for token in tokenize(sentence)]
        phrases.extend(
            phrases_from_words(
                words, max_words=max_words, include_unigrams=include_unigrams
            )
        )
    return phrases


def document_terms(text: str) -> list[str]:
    """All countable terms of a text: words plus 2-3-word phrases.

    This is the "Extract all terms from d" of Figure 1; the same list
    feeds the original and the contextualized database statistics and
    the Yahoo stand-in's term counts, so a document is tokenized once.

    The list is the non-stopword lower-cased words of every sentence
    (all sentences first), then each sentence's 2- and 3-gram phrases
    whose first and last words are non-stopwords, in
    :func:`phrases_from_words` order.  (Sentence splitting only ever
    cuts at whitespace, which no token spans, so the concatenated
    per-sentence streams equal the whole-text stream.)

    Without an active :class:`~repro.text.interning.TextMemo` this is
    the plain sweep over :class:`~repro.text.tokenizer.Token` objects,
    the reference the memoized path is tested against.  Under a memo it
    walks the memoized sentence columns, with the stopword flag
    precomputed per token instead of re-evaluated per n-gram
    (``_valid_phrase``'s leading-digit rule only applies to unigrams,
    which this sweep never emits).
    """
    memo = active_memo()
    if memo is None:
        sentence_words = [
            [token.lower for token in tokenize(sentence)]
            for sentence in sentences(text)
        ]
        words = [
            word
            for sentence in sentence_words
            for word in sentence
            if not is_stopword(word)
        ]
        phrases: list[str] = []
        for sentence in sentence_words:
            phrases.extend(
                phrases_from_words(sentence, max_words=3, include_unigrams=False)
            )
        return words + phrases
    words = []
    phrases = []
    append = phrases.append
    for sentence in memo.sentences(text):
        columns = memo.sentence_columns(sentence)
        lowers = columns.lowers
        stops = columns.stops
        words.extend([lower for lower, stop in zip(lowers, stops) if not stop])
        tail = lowers[1:]
        for a, b, stop_a, stop_b in zip(lowers, tail, stops, stops[1:]):
            if not stop_a and not stop_b:
                append(a + " " + b)
        for a, b, c, stop_a, stop_c in zip(
            lowers, tail, lowers[2:], stops, stops[2:]
        ):
            if not stop_a and not stop_c:
                append(a + " " + b + " " + c)
    return words + phrases


def capitalized_spans(text: str) -> list[list[Token]]:
    """Group consecutive capitalized tokens within each sentence.

    Used by the rule-based named-entity tagger: runs of capitalized words
    (optionally joined by particles like "of" and "de") are named-entity
    candidates.
    """
    particles = {"of", "de", "la", "van", "von", "al", "bin", "the"}
    spans: list[list[Token]] = []
    for sentence in sentences(text):
        tokens = tokenize(sentence)
        current: list[Token] = []
        for index, token in enumerate(tokens):
            # Punctuation between tokens (anything wider than one space)
            # breaks the span: "PARIS — Supporters" is two spans.
            adjacent = not current or token.start - current[-1].end <= 1
            if token.is_capitalized and not token.is_numeric and adjacent:
                current.append(token)
            elif (
                current
                and adjacent
                and token.lower in particles
                and index + 1 < len(tokens)
                and tokens[index + 1].is_capitalized
                and tokens[index + 1].start - token.end <= 1
            ):
                current.append(token)
            else:
                if current:
                    spans.append(current)
                current = []
                if token.is_capitalized and not token.is_numeric:
                    current.append(token)
        if current:
            spans.append(current)
    return spans


def join_span(span: Iterable[Token]) -> str:
    """Join a token span back into a surface phrase."""
    return " ".join(token.text for token in span)
