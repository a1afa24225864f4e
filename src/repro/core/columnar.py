"""The columnar data plane for Steps 1-3.

A dict-of-strings pipeline spends most of its time hashing and
re-normalizing the same term strings.  This module keeps the string ↔ id
boundary at the edges (extractor outputs in, facet rendering out) and
moves everything in between onto flat integer columns:

* every normalized term gets a stable ``int32`` id in first-seen order
  (:class:`~repro.text.vocabulary.TermInterner`);
* per-document term lists and postings live in offset/id arrays
  (:class:`DocumentColumns`);
* df/tf/rank statistics live in id-indexed vectors
  (:class:`ColumnarVocabulary`); Step 3
  (:func:`~repro.core.selection.rank_facet_terms`) reads its df and
  rank columns by term id and looks a term's string up only for a
  selected candidate.

Columns are plain stdlib ``array('i')`` — contiguous machine ints with
the buffer protocol (zero-copy ``memoryview`` slices) — so the plane
needs nothing beyond the standard library.

Everything here is a *representation* change: emitted facets,
hierarchies, and serving payloads are byte-identical to those of the
dict-of-strings implementation this plane replaced, certified by the
golden-output tests in ``tests/test_columnar_equivalence.py``.
"""

from __future__ import annotations

from array import array
from collections.abc import Mapping
from itertools import compress

from ..text.vocabulary import TermInterner, Vocabulary


def _zero_extend(column: array, size: int) -> None:
    """Zero-extend ``column`` in place to at least ``size`` entries."""
    missing = size - len(column)
    if missing > 0:
        column.frombytes(bytes(4 * missing))


def _column(counts: Mapping[int, int], size: int) -> array:
    """``counts`` as an id-indexed column of ``size`` entries."""
    column = array("i", bytes(4 * size))
    for term_id, count in counts.items():
        column[term_id] = count
    return column


def read_column(column: array, term_id: int) -> int:
    """Entry ``term_id`` of an id-indexed column; 0 past its end (an id
    interned after the column's vocabulary last grew)."""
    return column[term_id] if term_id < len(column) else 0


class ColumnarVocabulary(Vocabulary):
    """Array-backed :class:`~repro.text.vocabulary.Vocabulary`.

    Statistics live in id-indexed ``int32`` columns over a shared
    :class:`~repro.text.vocabulary.TermInterner` instead of string-keyed
    counters.  Every public accessor returns exactly what the dict-backed
    base class returns for the same document sequence (the equivalence
    is pinned by ``tests/test_columnar.py``); :meth:`df_column` and
    :meth:`rank_column` hand the columns themselves to id-keyed callers.

    One documented divergence: after a term's df drops to zero via
    :meth:`remove_document` and the term is later re-added, ``terms()``
    yields it at its original first-seen position rather than at the
    end (ids are stable; ``Counter`` re-inserts).  The stream hits this
    whenever it re-expands a dirty document (remove the old expanded
    set, add the new one).  Term *order* is never part of any certified
    output: selection sorts on a total key.
    """

    def __init__(self, interner: TermInterner | None = None) -> None:
        self.interner = interner if interner is not None else TermInterner()
        self._df_ids = array("i")
        self._tf_ids = array("i")
        self._nonzero = 0
        self._documents = 0
        self._rank_ids: array | None = None

    @classmethod
    def from_counts(
        cls,
        interner: TermInterner,
        documents: int,
        tf: Mapping[int, int],
        df: Mapping[int, int],
    ) -> "ColumnarVocabulary":
        """The vocabulary ``documents`` documents with these per-id term
        and document frequencies leave (zero for absent ids): the bulk
        form of one :meth:`add_document_ids` per document."""
        vocabulary = cls(interner)
        vocabulary._tf_ids = _column(tf, len(interner))
        vocabulary._df_ids = _column(df, len(interner))
        vocabulary._nonzero = len(interner) - vocabulary._df_ids.count(0)
        vocabulary._documents = documents
        return vocabulary

    # -- construction --------------------------------------------------------

    def add_document(self, terms) -> None:
        self.add_document_ids(
            self.interner.intern_many(term for term in terms if term)
        )

    def add_document_ids(self, term_ids) -> None:
        """Register one document given its (possibly repeated) term ids."""
        ids = list(term_ids)
        self._documents += 1
        self._rank_ids = None
        if not ids:
            return
        self._grow(max(ids) + 1)
        tf = self._tf_ids
        df = self._df_ids
        for term_id in ids:
            tf[term_id] += 1
        # order: incrementing per-id counters is order-insensitive
        for term_id in set(ids):
            if df[term_id] == 0:
                self._nonzero += 1
            df[term_id] += 1

    def add_document_distinct_ids(self, term_ids) -> None:
        """Register one document given its *distinct* term ids.

        Contract: no id repeats (the caller folds a set).  Each id then
        contributes exactly +1 to both tf and df, so the fold skips the
        per-document de-duplication of :meth:`add_document_ids`.
        """
        ids = list(term_ids)
        self._documents += 1
        self._rank_ids = None
        if not ids:
            return
        self._grow(max(ids) + 1)
        tf = self._tf_ids
        df = self._df_ids
        # order: incrementing per-id counters is order-insensitive
        for term_id in ids:
            tf[term_id] += 1
            if df[term_id] == 0:
                self._nonzero += 1
            df[term_id] += 1

    def remove_document(self, terms) -> None:
        # A never-seen term gets a fresh id with df 0, which the id-level
        # validation rejects like any other term that was never added.
        self.remove_document_ids(self.interner.intern_many(t for t in terms if t))

    def remove_document_ids(self, term_ids) -> None:
        """Unregister one document given its (possibly repeated) term ids:
        the exact inverse of :meth:`add_document_ids`.

        Validates every id before touching a statistic, so a failed
        removal leaves the vocabulary unchanged.
        """
        if self._documents < 1:
            raise ValueError("remove_document on an empty vocabulary")
        counts: dict[int, int] = {}
        for term_id in term_ids:
            counts[term_id] = counts.get(term_id, 0) + 1
        df = self._df_ids
        tf = self._tf_ids
        for term_id, count in counts.items():
            if term_id >= len(df) or df[term_id] < 1 or tf[term_id] < count:
                raise ValueError(
                    f"remove_document: term {self.interner.term(term_id)!r} "
                    "was never added with these frequencies"
                )
        self._documents -= 1
        for term_id, count in counts.items():
            tf[term_id] -= count
            df[term_id] -= 1
            if df[term_id] == 0:
                self._nonzero -= 1
        self._rank_ids = None

    def _grow(self, size: int) -> None:
        _zero_extend(self._df_ids, size)
        _zero_extend(self._tf_ids, size)

    # -- size accessors -------------------------------------------------------

    @property
    def term_count(self) -> int:
        return self._nonzero

    def __contains__(self, term: str) -> bool:
        return self.df(term) > 0

    def __len__(self) -> int:
        return self._nonzero

    def terms(self) -> list[str]:
        all_terms = self._interner_terms()
        df = self._df_ids
        return [all_terms[i] for i in range(len(df)) if df[i]]

    def _interner_terms(self) -> list[str]:
        return self.interner.terms()

    # -- frequency accessors ----------------------------------------------------

    def _count_by_id(self, column: array, term: str) -> int:
        term_id = self.interner.id_of(term)
        if term_id is None or term_id >= len(column):
            return 0
        return column[term_id]

    def tf(self, term: str) -> int:
        return self._count_by_id(self._tf_ids, term)

    def df(self, term: str) -> int:
        return self._count_by_id(self._df_ids, term)

    def df_column(self) -> array:
        """The live df column: entry ``i`` is the df of term id ``i``
        (every id a registered document holds is in range).

        Callers holding term ids read df here without a string lookup;
        the column is the vocabulary's own, so they must not write it.
        """
        return self._df_ids

    def rank_column(self) -> array:
        """Id-indexed 1-based ranks by ``(-df, term)``; 0 marks absent
        (df == 0) terms.  Cached until the next add or removal; callers
        must not write it."""
        if self._rank_ids is None:
            df = self._df_ids
            present = list(compress(range(len(df)), df))
            # (-df, term) in two stable passes: by term, then by df
            # descending (a reversed stable sort keeps equal keys in order).
            present.sort(key=self._interner_terms().__getitem__)
            present.sort(key=df.__getitem__, reverse=True)
            ranks = array("i", bytes(4 * len(df)))
            for position, term_id in enumerate(present):
                ranks[term_id] = position + 1
            self._rank_ids = ranks
        return self._rank_ids

    def rank(self, term: str) -> int:
        term_id = self.interner.id_of(term)
        ranks = self.rank_column()
        if term_id is None or term_id >= len(ranks) or ranks[term_id] == 0:
            return self._nonzero + 1
        return ranks[term_id]

    def most_common(self, n: int | None = None) -> list[tuple[str, int]]:
        df = self._df_ids
        all_terms = self._interner_terms()
        ordered = sorted(
            (
                (all_terms[i], df[i])
                for i in range(len(df))
                if df[i]
            ),
            key=lambda item: (-item[1], item[0]),
        )
        return ordered if n is None else ordered[:n]


class DocumentColumns:
    """Per-document term-id lists as offset/id arrays (CSR layout).

    ``term_ids[offsets[i]:offsets[i + 1]]`` are the interned term ids of
    document ``i`` (in emission order, repeats preserved).  Built by the
    annotation statistics pass and by contextualization (expanded sets);
    :meth:`postings` inverts the layout for the hierarchy stage.
    """

    __slots__ = ("interner", "doc_ids", "offsets", "term_ids", "_doc_index")

    def __init__(self, interner: TermInterner) -> None:
        self.interner = interner
        self.doc_ids: list[str] = []
        self.offsets = array("i", [0])
        self.term_ids = array("i")
        self._doc_index: dict[str, int] | None = None

    def __len__(self) -> int:
        return len(self.doc_ids)

    def add_document(self, doc_id: str, terms) -> list[int]:
        """Append one document's terms; returns their interned ids."""
        ids = self.interner.intern_many(term for term in terms if term)
        self.doc_ids.append(doc_id)
        self.term_ids.extend(ids)
        self.offsets.append(len(self.term_ids))
        self._doc_index = None
        return ids

    def add_document_ids(self, doc_id: str, term_ids) -> None:
        """Append one document given already-interned term ids."""
        self.doc_ids.append(doc_id)
        self.term_ids.extend(term_ids)
        self.offsets.append(len(self.term_ids))
        self._doc_index = None

    def ids_of(self, index: int) -> memoryview:
        """Zero-copy id slice of document ``index``."""
        return memoryview(self.term_ids)[
            self.offsets[index] : self.offsets[index + 1]
        ]

    def terms_of(self, index: int) -> list[str]:
        terms = self.interner.terms()
        return [terms[term_id] for term_id in self.ids_of(index)]

    def index_of(self, doc_id: str) -> int | None:
        if self._doc_index is None:
            self._doc_index = {
                doc_id: i for i, doc_id in enumerate(self.doc_ids)
            }
        return self._doc_index.get(doc_id)

    def term_sets(self) -> dict[str, set[str]]:
        """doc_id -> the set of its terms: a fresh string view of the
        columns, for callers that want sets (tests, figure code)."""
        return {
            doc_id: set(self.terms_of(index))
            for index, doc_id in enumerate(self.doc_ids)
        }

    def postings(self, term_ids=None) -> dict[int, array]:
        """term id → ascending document positions (distinct per doc).

        ``term_ids`` restricts the inversion to the given ids (the
        hierarchy stage inverts only the selected facet terms); None
        inverts everything.  Either way this is one pass over the flat
        id column.
        """
        wanted = None if term_ids is None else set(term_ids)
        inverted: dict[int, array] = {}
        for index in range(len(self.doc_ids)):
            ids = self.ids_of(index)
            row = set(ids) if wanted is None else wanted.intersection(ids)
            for term_id in sorted(row):
                posting = inverted.get(term_id)
                if posting is None:
                    posting = inverted[term_id] = array("i")
                posting.append(index)
        return inverted

