"""Crash-safe checkpoint storage for the incremental pipeline.

The checkpoint is one SQLite database in the run directory,
``checkpoint.sqlite`` (schema ``repro.checkpoint/5``).  It keeps the
stream state's id plane beside its rows, so a restore reads ids and
never rebuilds them from strings:

* ``terms`` is the state's :class:`~repro.text.vocabulary.TermInterner`
  in id order.  Ids never change or get reused, so the table is
  append-only and a commit writes only the ids added since the last one;
* ``documents`` holds the write-once columns, keyed by ingestion
  position: the document fields and the original id row (``original``,
  which the Yahoo stand-in also re-scores from);
* ``doc_state`` holds the columns a later batch may rewrite: the
  per-extractor outputs, the merged ``I(d)``, the context terms and the
  expanded id row (``expanded``), rewritten together;
* ``postings`` maps a term id to the ascending positions of the
  documents whose expanded row holds it; a commit rewrites only the ids
  whose postings changed since the last one (and deletes the emptied).

Id rows and postings are ``int32`` blobs in the byte order ``meta``
names.  The batch ledger (``batches``) and the sequence (``meta``) sit
beside them.  Term lists are stored as terminator-joined text (every
term ends with ``\\x1f``, the codec of :mod:`repro.db.resource_cache`,
and every list of a list of lists with ``\\x1e``); a term holding
either character is rejected on save.

The resource answers the stream already paid for sit beside the state,
in the tables of the one answer store
(:class:`~repro.db.resource_cache.PersistentResourceCache`), so a
restored stream starts warm.  :attr:`CheckpointStore.answers` is that
store, buffered: ``get_many`` reads lazily (restore never loads the
table), ``put_many`` only buffers, and the next save writes the buffer
in the same transaction as the state rows, so a crash keeps both or
neither.  Namespaces carry the world's
:meth:`~repro.config.ReproConfig.cache_fingerprint`, so a run directory
restored under another world serves nothing.  A degraded answer (see
:mod:`repro.resources.resilience`) never reaches ``put_many``, so it
never reaches the file.  Answers are not part of the state.

:meth:`CheckpointStore.save_state` commits an
:class:`~repro.incremental.state.IncrementalState`: in full, which
replaces whatever the file held, or as the delta since a
:class:`StateMark` the store holds, given the positions and term ids
that changed since then; a delta whose mark disagrees with the store is
rejected and the store is left unchanged.  :meth:`CheckpointStore.load_state`
reads the state back.  :meth:`CheckpointStore.save` and
:meth:`CheckpointStore.load_latest` are the same write and read over the
state payload (:meth:`~repro.incremental.state.IncrementalState.to_payload`).
Every save is one transaction in SQLite's rollback-journal mode with
``synchronous=FULL``: a crash at any point leaves the previous commit,
SQLite rolls back the hot journal the next time the file is opened, and
after every commit the database file alone holds the checkpoint.

A file that cannot be read as this schema (truncated, garbage, another
schema tag) reads as no checkpoint, serves no answers, and the next full
save replaces it.  So does a file that contradicts itself: a blob that
is not a whole number of ``int32`` values, an id outside the term table
(or a posting position past the documents), a gap in the term ids or
the document positions, or posting lengths that do not sum to the
expanded rows' total.  A ``repro.checkpoint/4`` file (the id plane
rebuilt from the original terms' text), a ``/3`` file (no answers) and
a ``/2`` file (with each document's Yahoo candidate counts) are foreign
schemas too: the stream starts cold and replays its batch files.
A run directory that holds only the retired JSON snapshots
(``checkpoint-NNNNNN.json``, ``repro.checkpoint/1``) raises
:class:`CheckpointError` instead of silently starting over.
"""

from __future__ import annotations

import json
import sqlite3
import sys
from array import array
from collections.abc import Callable, Iterable
from pathlib import Path
from typing import NamedTuple

from ..corpus.document import Document
from ..db.resource_cache import (
    ANSWER_TABLES,
    TERM_END,
    PersistentResourceCache,
    join_terms,
    split_terms,
    write_answers,
)
from ..errors import StorageError
from ..observability.logging import get_logger
from .state import (
    STATE_SCHEMA,
    DocumentState,
    IncrementalState,
    document_from_payload,
    document_payload,
)

log = get_logger(__name__)

#: Schema tag of the checkpoint database (bump on layout changes).
CHECKPOINT_SCHEMA = "repro.checkpoint/5"

#: The JSON snapshot format this database replaced.
RETIRED_SCHEMA = "repro.checkpoint/1"

#: File name of the checkpoint database inside the run directory.
CHECKPOINT_FILE = "checkpoint.sqlite"

_SCHEMA_SQL = """
CREATE TABLE meta (
    key TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE terms (
    id INTEGER PRIMARY KEY,
    term TEXT NOT NULL
);
CREATE TABLE documents (
    position INTEGER PRIMARY KEY,
    doc_id TEXT NOT NULL UNIQUE,
    title TEXT NOT NULL,
    body TEXT NOT NULL,
    source TEXT NOT NULL,
    published TEXT NOT NULL,
    gold TEXT,
    original BLOB NOT NULL
);
CREATE TABLE doc_state (
    position INTEGER PRIMARY KEY,
    outputs TEXT NOT NULL,
    important TEXT NOT NULL,
    context_terms TEXT NOT NULL,
    expanded BLOB NOT NULL
);
CREATE TABLE postings (
    term_id INTEGER PRIMARY KEY,
    positions BLOB NOT NULL
);
CREATE TABLE batches (
    position INTEGER PRIMARY KEY,
    batch_id TEXT NOT NULL
);
"""

_LIST = "\x1e"


class CheckpointError(StorageError):
    """A checkpoint could not be written or validated."""


def canonical_json(payload: dict) -> str:
    """Deterministic JSON: sorted keys, fixed separators, trailing \\n.

    Batch files and the golden digests are serialized through this
    function so equal states produce equal bytes (the DET002 invariant,
    extended to files).
    """
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


def _join(terms: list[str]) -> str:
    """Terms as text (:func:`~repro.db.resource_cache.join_terms`)."""
    text = join_terms(terms)
    if text is None:
        raise CheckpointError(f"a term holds the reserved character {TERM_END!r}")
    return text


def _join_lists(lists: list[list[str]]) -> str:
    """Lists of terms as text, each list ended by ``_LIST``."""
    text = "".join([_join(terms) + _LIST for terms in lists])
    if text.count(_LIST) != len(lists):
        raise CheckpointError(f"a term holds the reserved character {_LIST!r}")
    return text


def _split_lists(text: str) -> list[list[str]]:
    return [split_terms(part) for part in text.split(_LIST)[:-1]]


def _connect(path: Path) -> sqlite3.Connection:
    """A connection in autocommit mode: transactions are explicit."""
    connection = sqlite3.connect(path, isolation_level=None)
    try:
        connection.execute("PRAGMA journal_mode=DELETE")
        connection.execute("PRAGMA synchronous=FULL")
    except sqlite3.Error:
        connection.close()
        raise
    return connection


def _document_row(position: int, document: Document, original: array) -> tuple:
    payload = document_payload(document)
    gold = payload.get("gold")
    return (
        position,
        payload["doc_id"],
        payload["title"],
        payload["body"],
        payload["source"],
        payload["published"],
        None if gold is None else canonical_json(gold),
        original.tobytes(),
    )


class StateMark(NamedTuple):
    """How much of a state a checkpoint holds: its first ``documents``
    documents, ``batches`` batches and ``terms`` term ids."""

    documents: int
    batches: int
    terms: int

    @classmethod
    def of(cls, state: IncrementalState) -> "StateMark":
        return cls(state.document_count, len(state.batches_done), len(state.interner))


def _mutable_columns(doc_state: DocumentState, expanded: array) -> tuple:
    return (
        _join_lists(doc_state.outputs),
        _join(doc_state.important),
        _join(doc_state.context_terms),
        expanded.tobytes(),
    )


class CheckpointStore:
    """The checkpoint database of one run directory.

    Parameters
    ----------
    directory:
        The run directory; created on first use.
    fault_hook:
        Test-only crash-injection callback, fired with stage names at
        the matching points of :meth:`save_state`: ``"pre-checkpoint"``
        before the transaction opens, ``"mid-write"`` with every row
        written but not committed, ``"post-write"`` after the commit.
    """

    def __init__(
        self,
        directory: str | Path,
        fault_hook: Callable[[str], None] | None = None,
    ) -> None:
        self.directory = Path(directory)
        self.path = self.directory / CHECKPOINT_FILE
        self._fault_hook = fault_hook
        self.directory.mkdir(parents=True, exist_ok=True)
        #: The resource answers of this run directory; attached by
        #: :class:`~repro.incremental.extractor.IncrementalExtractor`.
        self.answers = PersistentResourceCache(self.path, buffered=True)

    def _fire(self, stage: str) -> None:
        if self._fault_hook is not None:
            self._fault_hook(stage)

    def _connect(self) -> sqlite3.Connection:
        return _connect(self.path)

    # -- save ----------------------------------------------------------------

    def save(self, payload: dict, sequence: int) -> Path:
        """Commit a whole-state payload as checkpoint ``sequence``: the
        state :meth:`IncrementalState.from_payload` rebuilds from it,
        saved in full by :meth:`save_state`."""
        if payload.get("schema") != STATE_SCHEMA:
            raise CheckpointError(
                f"state schema {payload.get('schema')!r} != {STATE_SCHEMA!r}"
            )
        return self.save_state(IncrementalState.from_payload(payload), sequence)

    def save_state(
        self,
        state: IncrementalState,
        sequence: int,
        base: StateMark | None = None,
        changed: Iterable[int] = (),
        changed_terms: Iterable[int] = (),
    ) -> Path:
        """Commit ``state`` as checkpoint ``sequence`` in one transaction.

        With ``base`` (what the store already holds of this state) the
        commit is a delta: the term ids, documents and batches past the
        mark are appended, the stored documents at ``changed`` get their
        mutable columns rewritten, and the postings of ``changed_terms``
        are rewritten.  Without it the state starts a new file,
        replacing an older run's history or a damaged file.  Either way
        the transaction also writes the answers :attr:`answers` buffered
        since the last commit.
        """
        if sequence < 0:
            raise CheckpointError(f"sequence must be >= 0, got {sequence}")
        answers = self.answers._take()
        self._fire("pre-checkpoint")
        if base is None:
            self.answers.readable = False
            for stale in (self.path, self.path.with_name(CHECKPOINT_FILE + "-journal")):
                stale.unlink(missing_ok=True)
        try:
            connection = self._connect()
        except sqlite3.Error as exc:
            raise CheckpointError(f"cannot open checkpoint {self.path}: {exc}") from exc
        try:
            connection.execute("BEGIN IMMEDIATE")
            try:
                if base is None:
                    for statement in (_SCHEMA_SQL + ANSWER_TABLES).split(";")[:-1]:
                        connection.execute(statement)
                    self._append(connection, state, StateMark(0, 0, 0))
                    self._write_postings(connection, state, state.term_positions)
                else:
                    self._check_base(connection, base)
                    self._update_changed(connection, state, base, changed)
                    self._append(connection, state, base)
                    self._write_postings(connection, state, changed_terms)
                connection.executemany(
                    "INSERT OR REPLACE INTO meta (key, value) VALUES (?, ?)",
                    [
                        ("schema", CHECKPOINT_SCHEMA),
                        ("sequence", str(sequence)),
                        ("byteorder", sys.byteorder),
                    ],
                )
                write_answers(connection, answers)
                self._fire("mid-write")
            except BaseException:
                if connection.in_transaction:
                    connection.execute("ROLLBACK")
                raise
            connection.execute("COMMIT")
        except sqlite3.Error as exc:
            raise CheckpointError(f"checkpoint {self.path} not written: {exc}") from exc
        finally:
            connection.close()
        self.answers._committed(answers)
        self._fire("post-write")
        log.info("checkpoint.saved", sequence=sequence, path=str(self.path))
        return self.path

    def _check_base(self, connection: sqlite3.Connection, base: StateMark) -> None:
        """The stored counts, which must be ``base``'s."""
        self._read_meta(connection)
        stored = StateMark(
            *(
                connection.execute(
                    f"SELECT COALESCE(MAX({key}) + 1, 0) FROM {table}"
                ).fetchone()[0]
                for table, key in (
                    ("documents", "position"),
                    ("batches", "position"),
                    ("terms", "id"),
                )
            )
        )
        if stored != base:
            raise CheckpointError(
                f"{self.path} holds {stored.documents} documents, {stored.batches} "
                f"batches and {stored.terms} terms; the delta extends "
                f"{base.documents}, {base.batches} and {base.terms}"
            )

    def _update_changed(
        self,
        connection: sqlite3.Connection,
        state: IncrementalState,
        base: StateMark,
        changed: Iterable[int],
    ) -> None:
        """Overwrite the mutable columns of the stored documents at
        ``changed`` (later positions are written in full)."""
        documents = state.documents
        rows = [
            (
                *_mutable_columns(
                    state.doc_states[documents[position].doc_id],
                    state.expanded_rows[position],
                ),
                position,
            )
            for position in sorted(p for p in changed if p < base.documents)
        ]
        cursor = connection.executemany(
            "UPDATE doc_state SET outputs = ?, important = ?, context_terms = ?, "
            "expanded = ? WHERE position = ?",
            rows,
        )
        if cursor.rowcount != len(rows):
            raise CheckpointError(f"the delta updates documents {self.path} lacks")

    @staticmethod
    def _append(
        connection: sqlite3.Connection, state: IncrementalState, base: StateMark
    ) -> None:
        """Insert the state's terms, documents and batches past ``base``."""
        connection.executemany(
            "INSERT INTO terms (id, term) VALUES (?, ?)",
            enumerate(state.interner.terms()[base.terms :], start=base.terms),
        )
        rows = []
        states = []
        for position in range(base.documents, state.document_count):
            document = state.documents[position]
            rows.append(
                _document_row(position, document, state.original_rows[position])
            )
            states.append((
                position,
                *_mutable_columns(
                    state.doc_states[document.doc_id], state.expanded_rows[position]
                ),
            ))
        connection.executemany(
            "INSERT INTO documents (position, doc_id, title, body, source, "
            "published, gold, original) "
            "VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
            rows,
        )
        connection.executemany(
            "INSERT INTO doc_state (position, outputs, important, context_terms, "
            "expanded) VALUES (?, ?, ?, ?, ?)",
            states,
        )
        connection.executemany(
            "INSERT INTO batches (position, batch_id) VALUES (?, ?)",
            enumerate(state.batches_done[base.batches :], start=base.batches),
        )

    @staticmethod
    def _write_postings(
        connection: sqlite3.Connection,
        state: IncrementalState,
        term_ids: Iterable[int],
    ) -> None:
        """Rewrite the stored postings of ``term_ids``; an id without
        documents loses its row."""
        postings = state.term_positions
        ordered = sorted(term_ids)
        connection.executemany(
            "INSERT OR REPLACE INTO postings (term_id, positions) VALUES (?, ?)",
            ((i, postings[i].tobytes()) for i in ordered if i in postings),
        )
        connection.executemany(
            "DELETE FROM postings WHERE term_id = ?",
            ((i,) for i in ordered if i not in postings),
        )

    # -- load ----------------------------------------------------------------

    def _read_meta(self, connection: sqlite3.Connection) -> dict[str, str]:
        meta = dict(connection.execute("SELECT key, value FROM meta").fetchall())
        if meta.get("schema") != CHECKPOINT_SCHEMA:
            raise CheckpointError(
                f"{self.path}: schema {meta.get('schema')!r} != {CHECKPOINT_SCHEMA!r}"
            )
        if meta.get("byteorder") != sys.byteorder:
            raise CheckpointError(
                f"{self.path}: id blobs are {meta.get('byteorder')!r}-endian, "
                f"this machine reads {sys.byteorder!r}"
            )
        return meta

    def load_latest(self) -> tuple[int, dict] | None:
        """The committed checkpoint as ``(sequence, state payload)``: the
        state of :meth:`load_state`, as its payload."""
        loaded = self.load_state()
        if loaded is None:
            return None
        sequence, state = loaded
        return sequence, state.to_payload()

    def load_state(self) -> tuple[int, IncrementalState] | None:
        """The committed checkpoint as ``(sequence, state)``.

        None when the run directory has no checkpoint or the file is
        damaged (logged as ``checkpoint.skipping_damaged``): the stream
        then starts cold, and replaying every batch reproduces the lost
        state exactly.  Only a loaded checkpoint serves its answers.  A
        directory holding only retired JSON snapshots raises
        :class:`CheckpointError`.
        """
        if not self.path.exists():
            retired = sorted(self.directory.glob("checkpoint-*.json"))
            if retired:
                raise CheckpointError(
                    f"{retired[-1]}: schema {RETIRED_SCHEMA!r} is retired; "
                    f"this version reads {CHECKPOINT_SCHEMA!r} from "
                    f"{CHECKPOINT_FILE}. Re-ingest the stream with resume "
                    "off or into a new run directory"
                )
            return None
        try:
            loaded = self._load()
        except (sqlite3.DatabaseError, StorageError, ValueError) as exc:
            log.warning(
                "checkpoint.skipping_damaged", path=str(self.path), error=str(exc)
            )
            self.answers.readable = False
            return None
        self.answers.readable = True
        return loaded

    def _load(self) -> tuple[int, IncrementalState]:
        connection = self._connect()
        try:
            meta = self._read_meta(connection)
            first, last, count = connection.execute(
                "SELECT MIN(id), MAX(id), COUNT(*) FROM terms"
            ).fetchone()
            # Distinct ids from 0 whose last is count - 1 leave no gap.
            if count and (first, last) != (0, count - 1):
                raise CheckpointError("the term ids have a gap")
            terms = [term for (term,) in connection.execute(
                "SELECT term FROM terms ORDER BY id"
            )]
            # CAST keeps a blob a blob whatever a damaged file stored;
            # array() then refuses one that is not whole int32 values.
            rows = connection.execute(
                "SELECT documents.position, documents.doc_id, documents.title, "
                "documents.body, documents.source, documents.published, "
                "documents.gold, CAST(documents.original AS BLOB), "
                "doc_state.outputs, doc_state.important, doc_state.context_terms, "
                "CAST(doc_state.expanded AS BLOB) "
                "FROM documents JOIN doc_state "
                "ON doc_state.position = documents.position "
                "ORDER BY documents.position"
            ).fetchall()
            stored = [
                connection.execute(f"SELECT COUNT(*) FROM {table}").fetchone()[0]
                for table in ("documents", "doc_state")
            ]
            term_positions = {
                term_id: array("i", blob)
                for term_id, blob in connection.execute(
                    "SELECT term_id, CAST(positions AS BLOB) FROM postings"
                )
            }
            batches = connection.execute(
                "SELECT batch_id FROM batches ORDER BY position"
            ).fetchall()
        finally:
            connection.close()
        if stored != [len(rows)] * 2 or (rows and rows[-1][0] != len(rows) - 1):
            raise CheckpointError("the document positions have a gap")
        documents: list[Document] = []
        doc_states: list[DocumentState] = []
        original_rows: list[array] = []
        expanded_rows: list[array] = []
        for (
            _position, doc_id, title, body, source, published, gold,
            original, outputs, important, context_terms, expanded,
        ) in rows:
            document = {
                "doc_id": doc_id,
                "title": title,
                "body": body,
                "source": source,
                "published": published,
            }
            if gold is not None:
                document["gold"] = json.loads(gold)
            documents.append(document_from_payload(document))
            doc_states.append(
                DocumentState(
                    outputs=_split_lists(outputs),
                    important=split_terms(important),
                    context_terms=split_terms(context_terms),
                )
            )
            original_rows.append(array("i", original))
            expanded_rows.append(array("i", expanded))
        state = IncrementalState.from_columns(
            documents,
            doc_states,
            terms,
            original_rows,
            expanded_rows,
            term_positions,
            [batch_id for (batch_id,) in batches],
        )
        return int(meta["sequence"]), state
