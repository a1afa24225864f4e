"""In-memory state of the incremental pipeline, and its snapshot form.

:class:`IncrementalState` owns everything the append path maintains
between batches, on the batch pipeline's columnar data plane:

* the document list and per-document caches (per-extractor outputs,
  merged ``I(d)``, context terms);
* one :class:`~repro.text.vocabulary.TermInterner` shared by the two
  live :class:`~repro.core.columnar.ColumnarVocabulary` objects
  (original and contextualized), updated in place;
* per-document term-id rows indexed by ingestion position: the original
  terms (with repeats; also what the Yahoo stand-in re-scores) and the
  expanded set (original plus context terms, distinct and ascending).
  Documents are append-only, so a position never changes;
* the postings ``term id -> ascending positions`` over the expanded
  rows — the :class:`~repro.core.hierarchy.PositionalPostings` the
  hierarchy stage reads instead of scanning every document;
* the selection pre-test set: the ids of the terms with ``df_C > df``
  (the only possible shift candidates), maintained from per-batch df
  deltas by comparing the two df columns by id.

Two forms persist it.  The payload (:meth:`IncrementalState.to_payload`,
:meth:`IncrementalState.from_payload`) is the source-of-truth data only:
the document payloads and per-document caches, the original terms as
strings in emission order; its reader rebuilds the id rows,
vocabularies, postings and pre-test set from the strings.  It is
byte-deterministic under canonical JSON, which the state snapshot pin
relies on.  The checkpoint
(:class:`~repro.incremental.checkpoint.CheckpointStore`) also keeps the
id plane (the term table, both id rows and the postings), and its
reader hands them to :meth:`IncrementalState.from_columns`, which
derives the vocabularies with C-level folds and the pre-test set by id:
no term is normalized or interned again.
"""

from __future__ import annotations

import datetime
from array import array
from bisect import insort
from collections import Counter
from collections.abc import Collection, Iterable
from dataclasses import dataclass, field
from itertools import chain, compress
from operator import gt

from ..core.columnar import ColumnarVocabulary, read_column
from ..corpus.document import Document, GoldAnnotation
from ..errors import StorageError
from ..text.vocabulary import TermInterner

#: Schema tag of the serialized state section (inside the checkpoint).
STATE_SCHEMA = "repro.incremental-state/1"


@dataclass
class DocumentState:
    """Everything cached for one ingested document (its term-id rows
    live in :class:`IncrementalState`)."""

    outputs: list[list[str]]
    """Per-extractor important-term outputs, extractor order."""
    important: list[str] = field(default_factory=list)
    """Merged ``I(d)``."""
    context_terms: list[str] = field(default_factory=list)
    """``C(d)`` surface forms, one per normalized key."""


class IncrementalState:
    """Mutable corpus state shared by the incremental extractor."""

    def __init__(self) -> None:
        self.documents: list[Document] = []
        self.doc_states: dict[str, DocumentState] = {}
        self.interner = TermInterner()
        self.original_vocabulary = ColumnarVocabulary(self.interner)
        self.contextualized_vocabulary = ColumnarVocabulary(self.interner)
        # Position -> original term ids, emission order with repeats.
        self.original_rows: list[array] = []
        # Position -> expanded term ids, distinct and ascending.
        self.expanded_rows: list[array] = []
        # Term id -> ascending positions of the documents holding it.
        self.term_positions: dict[int, array] = {}
        # Ids of the terms with df_C > df.
        self.pretest: set[int] = set()
        self.batches_done: list[str] = []

    # -- bookkeeping ---------------------------------------------------------

    @property
    def document_count(self) -> int:
        return len(self.documents)

    @property
    def doc_ids(self) -> list[str]:
        """Document id at each position."""
        return [document.doc_id for document in self.documents]

    def has_document(self, doc_id: str) -> bool:
        return doc_id in self.doc_states

    def postings(self, term_ids: Iterable[int]) -> dict[int, array]:
        """The maintained postings of ``term_ids`` (ids without documents
        are absent)."""
        positions = self.term_positions
        return {i: positions[i] for i in term_ids if i in positions}

    def add_document(
        self, document: Document, doc_state: DocumentState, terms: list[str]
    ) -> list[int]:
        """Append one document with its normalized original ``terms``.

        Registers the terms in the original vocabulary and returns their
        ids; the document gets its expanded row from
        :meth:`set_expansion`.
        """
        ids = self.interner.intern_many(terms)
        self.documents.append(document)
        self.doc_states[document.doc_id] = doc_state
        self.original_rows.append(array("i", ids))
        self.original_vocabulary.add_document_ids(ids)
        return ids

    def set_expansion(self, position: int, context_ids: Iterable[int]) -> set[int]:
        """(Re)set the expanded row of the document at ``position``.

        The row becomes the document's original ids plus ``context_ids``;
        the contextualized vocabulary and the postings are repaired to
        match.  Rows are set in position order on first expansion.
        Returns the ids whose contextualized df changed.
        """
        expanded = set(self.original_rows[position])
        expanded.update(context_ids)
        vocabulary = self.contextualized_vocabulary
        if position == len(self.expanded_rows):
            previous: set[int] = set()
            self.expanded_rows.append(array("i"))
        else:
            previous = set(self.expanded_rows[position])
            if previous == expanded:
                return set()
            vocabulary.remove_document_ids(self.expanded_rows[position])
        row = self.expanded_rows[position] = array("i", sorted(expanded))
        vocabulary.add_document_distinct_ids(row)
        postings = self.term_positions
        # order: each posting edit is keyed by its own term id
        for term_id in previous - expanded:
            posting = postings[term_id]
            posting.remove(position)
            if not posting:
                del postings[term_id]
        # order: each posting stays ascending whatever the visiting order
        for term_id in expanded - previous:
            posting = postings.get(term_id)
            if posting is None:
                postings[term_id] = array("i", [position])
            elif posting[-1] < position:
                posting.append(position)
            else:
                insort(posting, position)
        return previous ^ expanded

    def update_pretest(self, touched: set[int]) -> int:
        """Re-test ``df_C > df`` membership for the touched term ids only.

        Returns the number of membership flips — the per-batch
        ``incremental.pretest_changes`` counter.
        """
        original = self.original_vocabulary.df_column()
        contextualized = self.contextualized_vocabulary.df_column()
        pretest = self.pretest
        flips = 0
        # order: each id flips its own membership independently
        for term_id in touched:
            if read_column(contextualized, term_id) > read_column(original, term_id):
                if term_id not in pretest:
                    pretest.add(term_id)
                    flips += 1
            elif term_id in pretest:
                pretest.discard(term_id)
                flips += 1
        return flips

    # -- serialization -------------------------------------------------------

    def to_payload(self) -> dict:
        """Snapshot the state as a JSON-safe, byte-deterministic dict.

        Only source-of-truth data is written (every dict is sorted by the
        canonical-JSON writer), so two equal states always serialize to
        identical bytes.
        """
        term_of = self.interner.terms()
        docs: dict[str, dict] = {}
        for document, row in zip(self.documents, self.original_rows):
            doc_state = self.doc_states[document.doc_id]
            docs[document.doc_id] = {
                "stats_terms": [term_of[i] for i in row],
                "outputs": [list(terms) for terms in doc_state.outputs],
                "important": list(doc_state.important),
                "context_terms": list(doc_state.context_terms),
            }
        return {
            "schema": STATE_SCHEMA,
            "documents": [document_payload(document) for document in self.documents],
            "docs": docs,
            "batches_done": list(self.batches_done),
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "IncrementalState":
        """Rebuild the full state (id rows, vocabularies, postings,
        pre-test set) from a snapshot's source-of-truth data.

        Each document's context keys are derived from its context terms
        through the state's interner, which normalizes each distinct
        surface once: the archive repeats a few thousand distinct context
        terms.  Older snapshots also stored the keys and each document's
        Yahoo candidate counts; those entries are ignored.
        """
        schema = payload.get("schema")
        if schema != STATE_SCHEMA:
            raise StorageError(
                f"incremental state schema {schema!r} != {STATE_SCHEMA!r}"
            )
        state = cls()
        state.batches_done = [str(b) for b in payload.get("batches_done", [])]
        docs_payload = payload.get("docs", {})
        for doc_payload in payload.get("documents", []):
            document = document_from_payload(doc_payload)
            cached = docs_payload.get(document.doc_id)
            if cached is None:
                raise StorageError(
                    f"snapshot missing cache for document {document.doc_id!r}"
                )
            if state.has_document(document.doc_id):
                raise StorageError(
                    f"duplicate document in snapshot: {document.doc_id!r}"
                )
            doc_state = DocumentState(
                outputs=[[str(t) for t in terms] for terms in cached["outputs"]],
                important=[str(t) for t in cached["important"]],
                context_terms=[str(t) for t in cached["context_terms"]],
            )
            state.add_document(
                document, doc_state, [str(t) for t in cached["stats_terms"]]
            )
            context_ids = state.interner.normalized_ids(doc_state.context_terms)
            state.set_expansion(
                state.document_count - 1,
                (i for i in context_ids if i != TermInterner.EMPTY),
            )
        state.rebuild_pretest()
        return state

    @classmethod
    def from_columns(
        cls,
        documents: list[Document],
        doc_states: list[DocumentState],
        terms: list[str],
        original_rows: list[array],
        expanded_rows: list[array],
        term_positions: dict[int, array],
        batches_done: list[str],
    ) -> "IncrementalState":
        """The state whose term table is ``terms`` (in id order) and whose
        id rows and postings are the given ones, taken as they are.

        Raises :class:`ValueError` on the contradictions cheap to see: an
        id outside the term table, a posting position past the
        documents, or posting lengths that do not sum to the expanded
        rows' total.  Original tf/df are folded from the original rows;
        an id's contextualized df is its posting length (expanded rows
        are distinct, so tf is df).
        """
        state = cls()
        state.documents = documents
        state.doc_states = {
            document.doc_id: doc_state
            for document, doc_state in zip(documents, doc_states, strict=True)
        }
        interner = state.interner = TermInterner.from_terms(terms)
        count = len(documents)
        if sum(map(len, term_positions.values())) != sum(map(len, expanded_rows)):
            raise ValueError("the posting lengths do not sum to the expanded rows")
        original_tf = Counter(chain.from_iterable(original_rows))
        if not (
            _keys_below(original_tf, len(terms))
            and _keys_below(term_positions, len(terms))
            and _ids_below(expanded_rows, len(terms))
        ):
            raise ValueError("an id lies outside the term table")
        if not _ids_below(term_positions.values(), count):
            raise ValueError("a posting holds a position past the documents")
        state.original_rows = original_rows
        state.expanded_rows = expanded_rows
        state.term_positions = term_positions
        state.original_vocabulary = ColumnarVocabulary.from_counts(
            interner,
            count,
            original_tf,
            Counter(chain.from_iterable(map(set, original_rows))),
        )
        contextualized_df = dict(
            zip(term_positions, map(len, term_positions.values()))
        )
        state.contextualized_vocabulary = ColumnarVocabulary.from_counts(
            interner, count, contextualized_df, contextualized_df
        )
        state.batches_done = batches_done
        state.rebuild_pretest()
        return state

    def rebuild_pretest(self) -> None:
        """Derive the pre-test ids from scratch (used after a restore)
        from the two df columns."""
        original = self.original_vocabulary.df_column()
        contextualized = self.contextualized_vocabulary.df_column()
        # Ids past the shorter column have df 0 on that side.
        common = min(len(original), len(contextualized))
        pretest = set(compress(range(common), map(gt, contextualized, original)))
        pretest.update(
            compress(range(common, len(contextualized)), contextualized[common:])
        )
        self.pretest = pretest


def _ids_below(rows: Iterable[array], limit: int) -> bool:
    """Whether every id of ``rows`` lies in ``[0, limit)``: one pass over
    their bytes read as unsigned, where a negative id reads as a huge one."""
    ids = array("I", b"".join(rows))
    return not ids or max(ids) < limit


def _keys_below(ids: Collection[int], limit: int) -> bool:
    """Whether every one of a few distinct ``ids`` lies in ``[0, limit)``."""
    return not ids or (min(ids) >= 0 and max(ids) < limit)


def document_payload(document: Document) -> dict:
    """JSON-safe form of one :class:`Document` (checkpoints, batch files)."""
    payload: dict = {
        "doc_id": document.doc_id,
        "title": document.title,
        "body": document.body,
        "source": document.source,
        "published": document.published.isoformat(),
    }
    if document.gold is not None:
        payload["gold"] = {
            "topic": document.gold.topic,
            "entity_names": list(document.gold.entity_names),
            "facet_terms": list(document.gold.facet_terms),
            "leaked_terms": list(document.gold.leaked_terms),
        }
    return payload


def document_from_payload(payload: dict) -> Document:
    """Inverse of :func:`document_payload`.

    Raises :class:`ValueError` (or :class:`KeyError` for a missing
    field) on a payload of the wrong shape, never a bare
    ``TypeError``/``AttributeError``: batch files are external input.
    """
    if not isinstance(payload, dict):
        raise ValueError(f"expected an object, got {type(payload).__name__}")
    gold_payload = payload.get("gold")
    gold = None
    if gold_payload is not None:
        if not isinstance(gold_payload, dict):
            raise ValueError("gold must be an object")
        gold = GoldAnnotation(
            topic=str(gold_payload["topic"]),
            entity_names=_gold_list(gold_payload, "entity_names"),
            facet_terms=_gold_list(gold_payload, "facet_terms"),
            leaked_terms=_gold_list(gold_payload, "leaked_terms"),
        )
    published = payload["published"]
    if not isinstance(published, str):
        raise ValueError("published must be an ISO date string")
    return Document(
        doc_id=str(payload["doc_id"]),
        title=str(payload["title"]),
        body=str(payload["body"]),
        source=str(payload.get("source", "The New York Times")),
        published=datetime.date.fromisoformat(published),
        gold=gold,
    )


def _gold_list(payload: dict, key: str) -> tuple[str, ...]:
    values = payload.get(key, [])
    if not isinstance(values, list):
        raise ValueError(f"gold {key} must be a list")
    return tuple(values)
