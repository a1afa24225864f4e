"""BM25 ranked keyword search over the inverted index.

Used by the faceted browsing interface (search + facet drill-down, as in
the paper's user study) and by the user-study simulator's keyword-query
actions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Protocol

from ..text.stopwords import is_stopword
from ..text.tokenizer import word_tokens
from .inverted_index import Posting


@dataclass(frozen=True)
class SearchResult:
    """One ranked hit."""

    doc_id: str
    score: float


class ScoringIndex(Protocol):
    """The statistics BM25 reads: an :class:`InvertedIndex` in memory, or
    the serving artifact's SQL view of the same postings."""

    @property
    def document_count(self) -> int: ...

    @property
    def average_document_length(self) -> float: ...

    def document_frequency(self, term: str) -> int: ...

    def document_length(self, doc_id: str) -> int: ...

    def postings(self, term: str) -> list[Posting]: ...


class BM25Searcher:
    """Okapi BM25 scoring over a :class:`ScoringIndex`."""

    def __init__(self, index: ScoringIndex, k1: float = 1.2, b: float = 0.75) -> None:
        if k1 < 0:
            raise ValueError(f"k1 must be >= 0, got {k1}")
        if not 0 <= b <= 1:
            raise ValueError(f"b must be in [0, 1], got {b}")
        self._index = index
        self._k1 = k1
        self._b = b

    def _idf(self, term: str) -> float:
        n = self._index.document_count
        df = self._index.document_frequency(term)
        return math.log(1 + (n - df + 0.5) / (df + 0.5))

    def search(self, query: str, limit: int = 10) -> list[SearchResult]:
        """Rank documents for ``query``; empty list when nothing matches."""
        terms = [w for w in word_tokens(query) if not is_stopword(w)]
        if not terms:
            return []
        avgdl = self._index.average_document_length or 1.0
        scores: dict[str, float] = {}
        for term in terms:
            idf = self._idf(term)
            for posting in self._index.postings(term):
                dl = self._index.document_length(posting.doc_id)
                tf = posting.term_frequency
                denominator = tf + self._k1 * (1 - self._b + self._b * dl / avgdl)
                scores[posting.doc_id] = scores.get(posting.doc_id, 0.0) + idf * (
                    tf * (self._k1 + 1) / denominator
                )
        ranked = sorted(scores.items(), key=lambda item: (-item[1], item[0]))
        return [SearchResult(doc_id, score) for doc_id, score in ranked[:limit]]
