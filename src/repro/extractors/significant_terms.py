"""Significant-term extraction (the "Yahoo Term Extraction" stand-in).

The real service takes a document and returns "a list of significant
words or phrases"; its internals are undocumented (footnote 5 of the
paper).  We implement the standard approach such services use: tf·idf
scoring of candidate words and phrases against a background corpus,
returning the top ``max_terms``.  The candidates are the document's
Step 1 term list (:func:`~repro.text.phrases.document_terms`), the same
terms the corpus statistics count, so a document is tokenized once.

The paper measures the service at 2-3 seconds per document, which made
it the bottleneck of term extraction (Section V-D); the stand-in carries
that figure as :attr:`SIMULATED_LATENCY_SECONDS`, which the efficiency
study adds to its model of a deployment that calls the real web
service.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Callable, Iterable

from ..corpus.document import Document
from ..text.phrases import document_terms
from ..text.vocabulary import Vocabulary
from .base import ExtractorName, TermExtractor

#: The per-document latency the paper measured for the real web service.
SIMULATED_LATENCY_SECONDS = 2.5

#: Terms returned per document.
DEFAULT_MAX_TERMS = 10


class SignificantTermsExtractor(TermExtractor):
    """tf·idf key-word/key-phrase extraction against a background corpus.

    Parameters
    ----------
    background:
        Corpus statistics for idf.  When None, idf defaults to 1 and the
        extractor degrades to pure term frequency.
    max_terms:
        Number of terms returned per document.
    """

    name = ExtractorName.YAHOO

    def __init__(
        self,
        background: Vocabulary | None = None,
        max_terms: int = DEFAULT_MAX_TERMS,
    ) -> None:
        if max_terms <= 0:
            raise ValueError(f"max_terms must be positive, got {max_terms}")
        self._background = background
        self._adopted_background = False
        self._max_terms = max_terms
        # (document count, {df: idf}): the memo is only valid for the
        # document count it was filled at, so a grown background starts
        # a fresh one instead of serving stale values.
        self._idf_memo: tuple[int, dict[int, float]] = (0, {})

    def use_background(self, vocabulary: Vocabulary) -> None:
        """Adopt corpus statistics unless an explicit background was set."""
        if self._background is None:
            self._background = vocabulary
            self._adopted_background = True

    @property
    def background(self) -> Vocabulary | None:
        """The background corpus currently scoring idf (None = flat idf)."""
        return self._background

    @property
    def background_adopted(self) -> bool:
        """True when the background came from the annotated corpus itself.

        An adopted background makes extraction corpus-dependent: adding
        documents changes idf, which can reorder every document's
        terms.  The incremental pipeline checks this flag to decide
        whether cached outputs stay valid across appends.
        """
        return self._adopted_background

    def _current_idf(self) -> Callable[[int], float]:
        """Yahoo-style idf of a document frequency, against the
        background as it is now.

        Memoized per df, so scoring a whole corpus pays only as many log
        evaluations as there are distinct document frequencies.  Resolve
        it once per scoring pass, not per term: the background's
        document count is read here, not on every lookup.
        """
        background = self._background
        if background is None or background.document_count == 0:
            return lambda df: 1.0
        n = background.document_count
        memo_n, by_df = self._idf_memo
        if memo_n != n:
            by_df = {}
            self._idf_memo = (n, by_df)

        def idf(df: int) -> float:
            value = by_df.get(df)
            if value is None:
                value = by_df[df] = math.log((n + 1) / (df + 1)) + 1.0
            return value

        return idf

    def score_candidates(self, candidates: Iterable[tuple[str, int, int]]) -> list[str]:
        """Rank ``(term, tf, df)`` candidates by tf·idf and return the top
        terms.

        ``tf`` is the term's count in the document and ``df`` its
        document frequency in the background.  The sort key
        ``(-score, term)`` is total, so the order the candidates arrive
        in cannot change the result: :meth:`extract` passes a document's
        counted term list with df looked up by string, the incremental
        pipeline re-scores a stored document's counted term-id row with
        df read from the background's id-indexed column, and both give
        the same terms bit for bit.
        """
        idf_of = self._current_idf()
        scored = [
            # Weight phrases up slightly: services like Yahoo's favour
            # multi-word key phrases over bare words.
            (term, tf * idf_of(df) * (1.3 if " " in term else 1.0))
            for term, tf, df in candidates
            if len(term) > 2
        ]
        scored.sort(key=lambda item: (-item[1], item[0]))
        return [term for term, _ in scored[: self._max_terms]]

    def extract(self, document: Document) -> list[str]:
        counts = Counter(document_terms(document.text))
        background = self._background
        if background is None:
            return self.score_candidates((term, tf, 0) for term, tf in counts.items())
        df_of = background.df
        return self.score_candidates(
            (term, tf, df_of(term)) for term, tf in counts.items()
        )
