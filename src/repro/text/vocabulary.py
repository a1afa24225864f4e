"""Corpus-level term statistics.

The comparative frequency analysis of the paper (Section IV-C) works on
*document frequencies* ``df(t)`` and frequency ranks ``Rank(t)`` in two
collections (original and contextualized).  :class:`Vocabulary` maintains
those statistics incrementally and exposes rank lookups.

:class:`TermInterner` is the string↔id table of the columnar data plane
(:mod:`repro.core.columnar`): every normalized term receives a stable
``int32`` id in first-seen order, and normalization itself is memoized
per distinct surface form so a batch never pays the regex in
:func:`repro.text.tokenizer.normalize_term` twice for the same string.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable
from dataclasses import dataclass

from .tokenizer import normalize_term


class TermInterner:
    """Append-only bidirectional string ↔ ``int32`` id table.

    Ids are assigned in first-seen order and never change or get
    reused, so any structure keyed by id (df vectors, postings arrays)
    stays valid as the vocabulary grows.  The table also memoizes
    :func:`~repro.text.tokenizer.normalize_term` per distinct
    *surface* form: the regex runs once per distinct string
    per interner, not once per occurrence.
    """

    __slots__ = ("_ids", "_terms", "_surface_ids")

    #: Id returned for surfaces that normalize to the empty string.
    EMPTY = -1

    def __init__(self) -> None:
        self._ids: dict[str, int] = {}
        self._terms: list[str] = []
        self._surface_ids: dict[str, int] = {}

    @classmethod
    def from_terms(cls, terms: Iterable[str]) -> "TermInterner":
        """A table holding ``terms`` at ids ``0, 1, ...``, in one pass.

        Raises :class:`ValueError` when a term repeats.
        """
        interner = cls()
        interner._terms = list(terms)
        interner._ids = dict(zip(interner._terms, range(len(interner._terms))))
        if len(interner._ids) != len(interner._terms):
            raise ValueError("a term repeats in the term table")
        return interner

    def intern(self, term: str) -> int:
        """Id of an already-normalized ``term``, assigning on first use."""
        term_id = self._ids.get(term)
        if term_id is None:
            term_id = len(self._terms)
            self._ids[term] = term_id
            self._terms.append(term)
        return term_id

    def normalized_id(self, surface: str) -> int:
        """Id of ``normalize_term(surface)``; :data:`EMPTY` when empty.

        The normalization result is cached per distinct surface form,
        so repeated occurrences of the same string cost one dict hit.
        """
        term_id = self._surface_ids.get(surface)
        if term_id is None:
            normalized = normalize_term(surface)
            term_id = self.intern(normalized) if normalized else self.EMPTY
            self._surface_ids[surface] = term_id
        return term_id

    def normalize(self, surface: str) -> str:
        """Memoized :func:`~repro.text.tokenizer.normalize_term`."""
        term_id = self.normalized_id(surface)
        return "" if term_id == self.EMPTY else self._terms[term_id]

    def normalized_ids(self, surfaces: Iterable[str]) -> list[int]:
        """Bulk :meth:`normalized_id` over a surface stream."""
        memo = self._surface_ids
        get = memo.get
        out: list[int] = []
        append = out.append
        for surface in surfaces:
            term_id = get(surface)
            if term_id is None:
                normalized = normalize_term(surface)
                term_id = self.intern(normalized) if normalized else self.EMPTY
                memo[surface] = term_id
            append(term_id)
        return out

    def intern_many(self, terms: Iterable[str]) -> list[int]:
        """Bulk :meth:`intern`: one call for a whole term stream.

        Same ids in the same order; the point is amortizing the method
        dispatch the statistics fold would otherwise pay per occurrence.
        """
        ids = self._ids
        table = self._terms
        get = ids.get
        out: list[int] = []
        append = out.append
        for term in terms:
            term_id = get(term)
            if term_id is None:
                term_id = len(table)
                ids[term] = term_id
                table.append(term)
            append(term_id)
        return out

    def id_of(self, term: str) -> int | None:
        """Id of an exact (normalized) term, or None when never seen."""
        return self._ids.get(term)

    def term(self, term_id: int) -> str:
        """The normalized term for ``term_id``."""
        return self._terms[term_id]

    def terms(self) -> list[str]:
        """All interned terms, indexable by id.  Treat as read-only."""
        return self._terms

    def __len__(self) -> int:
        return len(self._terms)

    def __contains__(self, term: str) -> bool:
        return term in self._ids


@dataclass(frozen=True)
class TermStats:
    """Statistics for one term inside a :class:`Vocabulary`."""

    term: str
    term_frequency: int
    document_frequency: int
    rank: int


class Vocabulary:
    """Term/document frequency table over a collection of documents.

    Ranks are 1-based and assigned by decreasing document frequency with
    ties broken alphabetically, so that ranking is deterministic.
    """

    def __init__(self) -> None:
        self._tf: Counter[str] = Counter()
        self._df: Counter[str] = Counter()
        self._documents = 0
        self._ranks: dict[str, int] | None = None

    # -- construction --------------------------------------------------------

    def add_document(self, terms: Iterable[str]) -> None:
        """Register one document given its (possibly repeated) terms."""
        term_list = [term for term in terms if term]
        self._documents += 1
        self._tf.update(term_list)
        self._df.update(set(term_list))
        self._ranks = None

    def remove_document(self, terms: Iterable[str]) -> None:
        """Unregister one document previously added with the same terms.

        The exact inverse of :meth:`add_document`: term/document
        frequencies drop by the same amounts and entries reaching zero
        are deleted, so a vocabulary that has a document removed is
        indistinguishable from one that never saw it.  The incremental
        pipeline uses this to repair the contextualized statistics when
        a document's expanded term set changes.
        """
        term_list = [term for term in terms if term]
        if self._documents < 1:
            raise ValueError("remove_document on an empty vocabulary")
        counts = Counter(term_list)
        for term, count in counts.items():
            have = self._df.get(term, 0)
            if have < 1 or self._tf.get(term, 0) < count:
                raise ValueError(
                    f"remove_document: term {term!r} was never added "
                    "with these frequencies"
                )
        self._documents -= 1
        for term, count in counts.items():
            self._tf[term] -= count
            if self._tf[term] == 0:
                del self._tf[term]
            self._df[term] -= 1
            if self._df[term] == 0:
                del self._df[term]
        self._ranks = None

    # -- size accessors -------------------------------------------------------

    @property
    def document_count(self) -> int:
        """Number of documents registered."""
        return self._documents

    @property
    def term_count(self) -> int:
        """Number of distinct terms."""
        return len(self._df)

    def __contains__(self, term: str) -> bool:
        return term in self._df

    def __len__(self) -> int:
        return len(self._df)

    def terms(self) -> list[str]:
        """All distinct terms (unordered)."""
        return list(self._df)

    # -- frequency accessors ----------------------------------------------------

    def tf(self, term: str) -> int:
        """Total occurrences of ``term`` across all documents."""
        return self._tf.get(term, 0)

    def df(self, term: str) -> int:
        """Number of documents containing ``term``."""
        return self._df.get(term, 0)

    def _rank_table(self) -> dict[str, int]:
        if self._ranks is None:
            ordered = sorted(self._df.items(), key=lambda item: (-item[1], item[0]))
            self._ranks = {term: index + 1 for index, (term, _) in enumerate(ordered)}
        return self._ranks

    def rank(self, term: str) -> int:
        """1-based rank of ``term`` by document frequency.

        Unknown terms rank below every known term (``term_count + 1``),
        matching the treatment of absent terms in the shift analysis.
        """
        return self._rank_table().get(term, len(self._df) + 1)

    def stats(self, term: str) -> TermStats:
        """Return the full :class:`TermStats` for ``term``."""
        return TermStats(
            term=term,
            term_frequency=self.tf(term),
            document_frequency=self.df(term),
            rank=self.rank(term),
        )

    def most_common(self, n: int | None = None) -> list[tuple[str, int]]:
        """Terms with highest document frequency, ``(term, df)`` pairs."""
        ordered = sorted(self._df.items(), key=lambda item: (-item[1], item[0]))
        return ordered if n is None else ordered[:n]
