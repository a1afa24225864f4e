"""Crash-safe checkpoint storage for the incremental pipeline.

The checkpoint is one SQLite database in the run directory,
``checkpoint.sqlite`` (schema ``repro.checkpoint/3``).  Documents are
append-only, so their state splits into two tables keyed by ingestion
position:

* ``documents`` holds the write-once columns: the document fields and
  the original terms (``stats_terms``, which the Yahoo stand-in also
  re-scores from) — most of the bytes, written once when the document
  arrives;
* ``doc_state`` holds the columns a later batch may rewrite: the
  per-extractor outputs, the merged ``I(d)`` and the context terms.

The batch ledger (``batches``) and the sequence (``meta``) sit beside
them.  Term lists are stored as terminator-joined text (every term ends
with ``\\x1f``, every list of a list of lists with ``\\x1e``); a term
holding either character is rejected on save.

:meth:`CheckpointStore.save` takes the state payload of
:meth:`~repro.incremental.state.IncrementalState.to_payload`, which
replaces whatever the file held, or a delta of the same shape
(:meth:`~repro.incremental.state.IncrementalState.delta_payload`) that
names the document and batch counts it extends; a delta whose base
disagrees with the store is rejected and the store is left unchanged.
Every save is one transaction in SQLite's rollback-journal mode with
``synchronous=FULL``: a crash at any point leaves the previous commit,
SQLite rolls back the hot journal the next time the file is opened, and
after every commit the database file alone holds the checkpoint.

A file that cannot be read as this schema (truncated, garbage, another
schema tag) reads as no checkpoint, and the next full save replaces it.
That includes a ``repro.checkpoint/2`` file, which also stored each
document's Yahoo candidate counts: the stream starts cold and replays
its batch files.
A run directory that holds only the retired JSON snapshots
(``checkpoint-NNNNNN.json``, ``repro.checkpoint/1``) raises
:class:`CheckpointError` instead of silently starting over.
"""

from __future__ import annotations

import json
import sqlite3
from collections.abc import Callable
from pathlib import Path

from ..errors import StorageError
from ..observability.logging import get_logger
from .state import STATE_SCHEMA

log = get_logger(__name__)

#: Schema tag of the checkpoint database (bump on layout changes).
CHECKPOINT_SCHEMA = "repro.checkpoint/3"

#: The JSON snapshot format this database replaced.
RETIRED_SCHEMA = "repro.checkpoint/1"

#: File name of the checkpoint database inside the run directory.
CHECKPOINT_FILE = "checkpoint.sqlite"

_SCHEMA_SQL = """
CREATE TABLE meta (
    key TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE documents (
    position INTEGER PRIMARY KEY,
    doc_id TEXT NOT NULL UNIQUE,
    title TEXT NOT NULL,
    body TEXT NOT NULL,
    source TEXT NOT NULL,
    published TEXT NOT NULL,
    gold TEXT,
    stats_terms TEXT NOT NULL
);
CREATE TABLE doc_state (
    position INTEGER PRIMARY KEY,
    outputs TEXT NOT NULL,
    important TEXT NOT NULL,
    context_terms TEXT NOT NULL
);
CREATE TABLE batches (
    position INTEGER PRIMARY KEY,
    batch_id TEXT NOT NULL
);
"""

_TERM = "\x1f"
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
    """Terms as text, each ended by ``_TERM``."""
    if not terms:
        return ""
    text = _TERM.join(terms) + _TERM
    if text.count(_TERM) != len(terms):
        raise CheckpointError(f"a term holds the reserved character {_TERM!r}")
    return text


def _split(text: str) -> list[str]:
    return text.split(_TERM)[:-1]


def _join_lists(lists: list[list[str]]) -> str:
    """Lists of terms as text, each list ended by ``_LIST``."""
    text = "".join([_join(terms) + _LIST for terms in lists])
    if text.count(_LIST) != len(lists):
        raise CheckpointError(f"a term holds the reserved character {_LIST!r}")
    return text


def _split_lists(text: str) -> list[list[str]]:
    return [_split(part) for part in text.split(_LIST)[:-1]]


def _document_row(position: int, document: dict, cached: dict) -> tuple:
    gold = document.get("gold")
    return (
        position,
        document["doc_id"],
        document["title"],
        document["body"],
        document["source"],
        document["published"],
        None if gold is None else canonical_json(gold),
        _join(cached["stats_terms"]),
    )


def _mutable_columns(cached: dict) -> tuple[str, str, str]:
    return (
        _join_lists(cached["outputs"]),
        _join(cached["important"]),
        _join(cached["context_terms"]),
    )


class CheckpointStore:
    """The checkpoint database of one run directory.

    Parameters
    ----------
    directory:
        The run directory; created on first use.
    fault_hook:
        Test-only crash-injection callback, fired with stage names at
        the matching points of :meth:`save`: ``"pre-checkpoint"``
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

    def _fire(self, stage: str) -> None:
        if self._fault_hook is not None:
            self._fault_hook(stage)

    def _connect(self) -> sqlite3.Connection:
        """A connection in autocommit mode: transactions are explicit."""
        connection = sqlite3.connect(self.path, isolation_level=None)
        try:
            connection.execute("PRAGMA journal_mode=DELETE")
            connection.execute("PRAGMA synchronous=FULL")
        except sqlite3.Error:
            connection.close()
            raise
        return connection

    # -- save ----------------------------------------------------------------

    def save(self, payload: dict, sequence: int) -> Path:
        """Commit ``payload`` as checkpoint ``sequence`` in one transaction.

        A payload with a ``base`` entry is a delta: its documents are
        appended, its other ``docs`` entries overwrite those documents'
        mutable columns, and its batches extend the ledger.  Any other
        payload starts a new file, replacing an older run's history or a
        damaged file.
        """
        if sequence < 0:
            raise CheckpointError(f"sequence must be >= 0, got {sequence}")
        if payload.get("schema") != STATE_SCHEMA:
            raise CheckpointError(
                f"state schema {payload.get('schema')!r} != {STATE_SCHEMA!r}"
            )
        base = payload.get("base")
        self._fire("pre-checkpoint")
        if base is None:
            for stale in (self.path, self.path.with_name(CHECKPOINT_FILE + "-journal")):
                stale.unlink(missing_ok=True)
        try:
            connection = self._connect()
        except sqlite3.Error as exc:
            raise CheckpointError(f"cannot open checkpoint {self.path}: {exc}") from exc
        try:
            connection.execute("BEGIN IMMEDIATE")
            try:
                self._write(connection, payload, base, sequence)
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
        self._fire("post-write")
        log.info("checkpoint.saved", sequence=sequence, path=str(self.path))
        return self.path

    def _write(
        self,
        connection: sqlite3.Connection,
        payload: dict,
        base: dict | None,
        sequence: int,
    ) -> None:
        if base is None:
            for statement in _SCHEMA_SQL.split(";")[:-1]:
                connection.execute(statement)
            start = (0, 0)
        else:
            start = self._check_base(connection, base)
            self._update_changed(connection, payload)
        self._append(connection, payload, *start)
        connection.executemany(
            "INSERT OR REPLACE INTO meta (key, value) VALUES (?, ?)",
            [("schema", CHECKPOINT_SCHEMA), ("sequence", str(sequence))],
        )

    def _check_base(
        self, connection: sqlite3.Connection, base: dict
    ) -> tuple[int, int]:
        """The stored document and batch counts, which must be ``base``'s."""
        self._read_meta(connection)
        documents, batches = (
            connection.execute(
                f"SELECT COALESCE(MAX(position) + 1, 0) FROM {table}"
            ).fetchone()[0]
            for table in ("documents", "batches")
        )
        if (documents, batches) != (base["documents"], base["batches"]):
            raise CheckpointError(
                f"{self.path} holds {documents} documents and {batches} batches; "
                f"the delta extends {base['documents']} and {base['batches']}"
            )
        return documents, batches

    def _update_changed(self, connection: sqlite3.Connection, payload: dict) -> None:
        """Overwrite the mutable columns of the delta's stored documents."""
        new_ids = {document["doc_id"] for document in payload["documents"]}
        changed = [
            (*_mutable_columns(cached), doc_id)
            for doc_id, cached in payload["docs"].items()
            if doc_id not in new_ids
        ]
        cursor = connection.executemany(
            "UPDATE doc_state SET outputs = ?, important = ?, context_terms = ? "
            "WHERE position = (SELECT position FROM documents WHERE doc_id = ?)",
            changed,
        )
        if cursor.rowcount != len(changed):
            raise CheckpointError(f"the delta updates documents {self.path} lacks")

    @staticmethod
    def _append(
        connection: sqlite3.Connection, payload: dict, documents: int, batches: int
    ) -> None:
        """Insert the payload's documents and batches after the stored ones."""
        docs = payload["docs"]
        rows = []
        states = []
        for position, document in enumerate(payload["documents"], start=documents):
            cached = docs[document["doc_id"]]
            rows.append(_document_row(position, document, cached))
            states.append((position, *_mutable_columns(cached)))
        connection.executemany(
            "INSERT INTO documents (position, doc_id, title, body, source, "
            "published, gold, stats_terms) "
            "VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
            rows,
        )
        connection.executemany(
            "INSERT INTO doc_state (position, outputs, important, context_terms) "
            "VALUES (?, ?, ?, ?)",
            states,
        )
        connection.executemany(
            "INSERT INTO batches (position, batch_id) VALUES (?, ?)",
            enumerate(payload["batches_done"], start=batches),
        )

    # -- load ----------------------------------------------------------------

    def _read_meta(self, connection: sqlite3.Connection) -> dict[str, str]:
        meta = dict(connection.execute("SELECT key, value FROM meta").fetchall())
        if meta.get("schema") != CHECKPOINT_SCHEMA:
            raise CheckpointError(
                f"{self.path}: schema {meta.get('schema')!r} != {CHECKPOINT_SCHEMA!r}"
            )
        return meta

    def load_latest(self) -> tuple[int, dict] | None:
        """The committed checkpoint as ``(sequence, state payload)``.

        None when the run directory has no checkpoint or the file is
        damaged (logged as ``checkpoint.skipping_damaged``): the stream
        then starts cold, and replaying every batch reproduces the lost
        state exactly.  A directory holding only retired JSON snapshots
        raises :class:`CheckpointError`.
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
            return self._load()
        except (sqlite3.DatabaseError, CheckpointError, ValueError) as exc:
            log.warning(
                "checkpoint.skipping_damaged", path=str(self.path), error=str(exc)
            )
            return None

    def _load(self) -> tuple[int, dict]:
        connection = self._connect()
        try:
            meta = self._read_meta(connection)
            rows = connection.execute(
                "SELECT documents.doc_id, documents.title, documents.body, "
                "documents.source, documents.published, documents.gold, "
                "documents.stats_terms, doc_state.outputs, "
                "doc_state.important, doc_state.context_terms "
                "FROM documents JOIN doc_state "
                "ON doc_state.position = documents.position "
                "ORDER BY documents.position"
            ).fetchall()
            batches = connection.execute(
                "SELECT batch_id FROM batches ORDER BY position"
            ).fetchall()
        finally:
            connection.close()
        documents: list[dict] = []
        docs: dict[str, dict] = {}
        for (
            doc_id, title, body, source, published, gold,
            stats_terms, outputs, important, context_terms,
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
            documents.append(document)
            docs[doc_id] = {
                "stats_terms": _split(stats_terms),
                "outputs": _split_lists(outputs),
                "important": _split(important),
                "context_terms": _split(context_terms),
            }
        payload = {
            "schema": STATE_SCHEMA,
            "documents": documents,
            "docs": docs,
            "batches_done": [batch_id for (batch_id,) in batches],
        }
        return int(meta["sequence"]), payload
