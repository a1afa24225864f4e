"""Rule-based named-entity extraction (the LingPipe stand-in).

Chunks runs of capitalized tokens into entity candidates, with newswire
conventions handled explicitly:

* headline-cased sentences (most words capitalized) are skipped;
* a single capitalized word at sentence start only counts when it
  reappears capitalized elsewhere in the document;
* spans of particles ("of", "van", "de") join adjacent capitalized runs
  ("Bureau of Commerce").

Like a real NE tagger — and this drives the shape of Tables II-IV —
the extractor finds **only named entities**: topical common nouns
("election", "storm") are never returned.
"""

from __future__ import annotations

from collections import Counter
from itertools import compress

from ..corpus.document import Document
from ..text.interning import TextMemo, active_memo, sentences, tokenize
from ..text.phrases import capitalized_spans, join_span
from ..text.stopwords import is_common_opener, is_stopword
from .base import ExtractorName, TermExtractor

#: Sentences with at least this fraction of capitalized words are
#: treated as headlines and skipped.
HEADLINE_CAP_RATIO = 0.7

#: Maximum tokens in a named-entity span.
MAX_SPAN_TOKENS = 6


def _is_headline(sentence: str) -> bool:
    tokens = [t for t in tokenize(sentence) if not t.is_numeric]
    if len(tokens) < 4:
        return False
    capitalized = sum(1 for t in tokens if t.is_capitalized)
    return capitalized / len(tokens) >= HEADLINE_CAP_RATIO


#: Lower-case particles that may join adjacent capitalized runs; must
#: stay equal to the set in :func:`~repro.text.phrases.capitalized_spans`.
_PARTICLES = frozenset({"of", "de", "la", "van", "von", "al", "bin", "the"})


class NamedEntityExtractor(TermExtractor):
    """Capitalization-based NE chunker."""

    name = ExtractorName.NAMED_ENTITIES

    def extract(self, document: Document) -> list[str]:
        memo = active_memo()
        if memo is not None:
            return self._extract_columnar(document, memo)
        text = document.text
        body_sentences = [s for s in sentences(text) if not _is_headline(s)]
        # Count capitalized occurrences to vet sentence-initial singletons.
        cap_counts: Counter[str] = Counter()
        for sentence in body_sentences:
            for token in tokenize(sentence):
                if token.is_capitalized:
                    cap_counts[token.text] += 1

        entities: list[str] = []
        seen: set[str] = set()
        for sentence in body_sentences:
            for span in capitalized_spans(sentence):
                if len(span) > MAX_SPAN_TOKENS:
                    continue
                surface = join_span(span)
                if len(span) == 1:
                    token = span[0]
                    if is_stopword(token.text) or len(token.text) <= 2:
                        continue
                    if is_common_opener(token.text):
                        continue
                    at_sentence_start = token.start == 0
                    if at_sentence_start and cap_counts[token.text] < 2:
                        continue
                key = surface.lower()
                if key not in seen:
                    seen.add(key)
                    entities.append(surface)
        return entities

    def _extract_columnar(
        self, document: Document, memo: TextMemo
    ) -> list[str]:
        """The plain chunker over memoized sentence columns.

        One fused sweep per sentence replaces the three token passes of
        the plain path (headline test, capitalized-occurrence count,
        span chunking); every predicate reads a precomputed column, and
        the dedup key is the join of the span's lower-cased tokens —
        ``surface.lower()`` exactly, since lower-casing distributes over
        a space join.  Same entities, same order (pinned by
        ``tests/test_columnar.py`` and the golden-output tests).
        """
        body: list = []
        cap_counts: Counter[str] = Counter()
        for sentence in memo.sentences(document.text):
            columns = memo.sentence_columns(sentence)
            caps = columns.caps
            word_count = len(columns.nums) - sum(columns.nums)
            if word_count >= 4 and sum(caps) / word_count >= HEADLINE_CAP_RATIO:
                continue
            body.append(columns)
            cap_counts.update(compress(columns.texts, caps))

        entities: list[str] = []
        seen: set[str] = set()
        for columns in body:
            texts = columns.texts
            lowers = columns.lowers
            starts = columns.starts
            ends = columns.ends
            caps = columns.caps
            nums = columns.nums
            count = len(texts)
            spans: list[list[int]] = []
            current: list[int] = []
            for index, cap in enumerate(caps):
                if not current:
                    # Empty run: the adjacency test is vacuously true and
                    # the particle branch cannot fire.
                    if cap and not nums[index]:
                        current.append(index)
                    continue
                adjacent = starts[index] - ends[current[-1]] <= 1
                if cap and not nums[index] and adjacent:
                    current.append(index)
                elif (
                    adjacent
                    and lowers[index] in _PARTICLES
                    and index + 1 < count
                    and caps[index + 1]
                    and starts[index + 1] - ends[index] <= 1
                ):
                    current.append(index)
                else:
                    spans.append(current)
                    current = []
                    if cap and not nums[index]:
                        current.append(index)
            if current:
                spans.append(current)
            for span in spans:
                if len(span) > MAX_SPAN_TOKENS:
                    continue
                if len(span) == 1:
                    index = span[0]
                    if columns.stops[index] or len(texts[index]) <= 2:
                        continue
                    if is_common_opener(lowers[index]):
                        continue
                    if starts[index] == 0 and cap_counts[texts[index]] < 2:
                        continue
                key = " ".join(lowers[index] for index in span)
                if key not in seen:
                    seen.add(key)
                    entities.append(" ".join(texts[index] for index in span))
        return entities
