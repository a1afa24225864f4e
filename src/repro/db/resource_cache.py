"""The one SQLite store for the resource answers a run has paid for.

The paper recommends performing term and context extraction offline
(Section V-D); this store is what makes that practical.  Every healthy
``(namespace, normalized term)`` answer is written once and reused by
the rest of the run *and* by every later run over the same file.  One
class serves both owners of such a file:

* **``extract --cache FILE``** (``ParallelConfig.cache_path``):
  :class:`~repro.core.pipeline.FacetExtractor` opens the file, and
  every :meth:`PersistentResourceCache.put_many` commits at once.
  File-backed stores run under ``journal_mode=WAL`` with
  ``synchronous=NORMAL``, best effort: backends that reject the pragmas
  (``:memory:``, read-only or network filesystems) keep their defaults.
* **a stream's checkpoint** (``buffered=True``, the
  :class:`~repro.incremental.checkpoint.CheckpointStore`'s ``answers``):
  ``put_many`` only buffers, and the checkpoint writes the buffer with
  :func:`write_answers` inside the transaction that commits the state,
  so a crash keeps both or neither.  Reads open the file read-only and
  serve nothing until the owner sets :attr:`~PersistentResourceCache.readable`
  (a loaded or committed checkpoint), so a damaged, foreign or replaced
  file serves nothing.

The layout (:data:`ANSWER_TABLES`) stores each namespace once in
``answer_namespaces``; ``answers`` maps ``(namespace id, term)`` to the
answer's terms, each ended by :data:`TERM_END` (:func:`join_terms`).
An answer holding that character cannot be stored and is left out;
storing never raises.  A file in the JSON ``context_cache`` layout of
earlier versions reads cold: that table is never read.

A corrupted, locked or unwritable file switches the store into a
disabled mode where :meth:`~PersistentResourceCache.get_many` misses and
``put_many`` is a no-op (counted as ``cache.persistent.degraded``), so a
batch job falls back to the in-process tier instead of crashing.
Namespaces keep resources with different semantics, or differently
configured worlds, from serving each other's answers.
"""

from __future__ import annotations

import sqlite3
import threading
from collections.abc import Iterable, Iterator, Mapping, Sequence
from contextlib import contextmanager
from pathlib import Path

from ..observability.context import current_metrics
from ..observability.logging import get_logger

log = get_logger(__name__)

#: The answer tables, created in a ``--cache`` file on open and in a
#: checkpoint beside its state tables.
ANSWER_TABLES = """
CREATE TABLE IF NOT EXISTS answer_namespaces (
    id INTEGER PRIMARY KEY,
    namespace TEXT NOT NULL UNIQUE
);
CREATE TABLE IF NOT EXISTS answers (
    namespace INTEGER NOT NULL,
    term TEXT NOT NULL,
    terms TEXT NOT NULL,
    PRIMARY KEY (namespace, term)
) WITHOUT ROWID;
"""

#: Pragmas applied to a ``--cache`` connection, best effort.
_PRAGMAS = (
    "PRAGMA journal_mode=WAL",
    "PRAGMA synchronous=NORMAL",
)

#: Terms per ``IN (...)`` select — comfortably under SQLite's historical
#: 999-host-parameter limit (one slot is taken by the namespace).
_SELECT_CHUNK = 500

#: Ends every term of a stored term list.
TERM_END = "\x1f"

#: Answers by namespace, then by normalized term.
Answers = dict[str, dict[str, tuple[str, ...]]]


def join_terms(terms: Sequence[str]) -> str | None:
    """``terms`` as text, each ended by :data:`TERM_END`; None when a
    term holds that character (the text could not be split back)."""
    if not terms:
        return ""
    text = TERM_END.join(terms) + TERM_END
    return text if text.count(TERM_END) == len(terms) else None


def split_terms(text: str) -> list[str]:
    """The terms :func:`join_terms` joined."""
    return text.split(TERM_END)[:-1]


def write_answers(connection: sqlite3.Connection, answers: Answers) -> int:
    """Insert ``answers`` in the caller's transaction, each namespace
    stored once and an answer the codec cannot hold left out; returns
    the rows written."""
    written = 0
    for namespace, entries in answers.items():
        rows = []
        for term, answer in sorted(entries.items()):
            text = join_terms(answer)
            if text is not None:
                rows.append((term, text))
        if not rows:
            continue
        connection.execute(
            "INSERT OR IGNORE INTO answer_namespaces (namespace) VALUES (?)",
            (namespace,),
        )
        (namespace_id,) = connection.execute(
            "SELECT id FROM answer_namespaces WHERE namespace = ?", (namespace,)
        ).fetchone()
        connection.executemany(
            "INSERT OR REPLACE INTO answers (namespace, term, terms) "
            "VALUES (?, ?, ?)",
            [(namespace_id, term, text) for term, text in rows],
        )
        written += len(rows)
    return written


class PersistentResourceCache:
    """Persistent ``(namespace, term) -> context terms`` store.

    Parameters
    ----------
    path:
        SQLite database path; ``":memory:"`` keeps the store private to
        this object (still shareable across resource instances).
    timeout:
        Seconds to wait on a locked database before degrading.
    buffered:
        Keep answers in memory for the owner to write (a checkpoint's
        answers; see the module docstring) instead of opening ``path``.
    """

    def __init__(
        self, path: str | Path = ":memory:", timeout: float = 5.0, buffered: bool = False
    ) -> None:
        self.path = path
        self._timeout = timeout
        self._buffered = buffered
        self._lock = threading.Lock()
        self._connection: sqlite3.Connection | None = None
        self._pending: Answers = {}
        #: Whether stored answers are served; a buffered store's owner
        #: sets it once the file holds a checkpoint of its own.
        self.readable = not buffered
        self.disabled = False
        self.error: Exception | None = None
        self.hits = 0
        self.misses = 0
        self.writes = 0
        self.batch_reads = 0
        self.batch_writes = 0
        self.wal_enabled = False
        if not buffered:
            self._connect()

    # -- connection management -------------------------------------------------

    def _connect(self) -> None:
        try:
            self._connection = sqlite3.connect(
                self.path, timeout=self._timeout, check_same_thread=False
            )
            self._connection.executescript(ANSWER_TABLES)
        except sqlite3.Error as exc:
            self._degrade(exc)
        else:
            self._apply_pragmas(self._connection)

    def _apply_pragmas(self, connection: sqlite3.Connection) -> None:
        """Best-effort performance pragmas.

        ``:memory:`` databases report ``journal_mode=memory`` and some
        filesystems reject WAL outright; neither disables the store —
        the cache simply runs on SQLite's defaults.
        """
        for pragma in _PRAGMAS:
            try:
                row = connection.execute(pragma).fetchone()
            except sqlite3.Error as exc:
                log.debug(
                    "persistent_cache.pragma_rejected",
                    path=str(self.path),
                    pragma=pragma,
                    error=str(exc),
                )
            else:
                if pragma.endswith("journal_mode=WAL"):
                    self.wal_enabled = bool(row) and str(row[0]).lower() == "wal"

    @contextmanager
    def _connected(self, mode: str) -> Iterator[sqlite3.Connection]:
        """The store's own connection, or (buffered) a fresh one on the
        owner's file in ``mode`` (``ro`` or ``rw``), closed afterwards."""
        if self._connection is not None:
            yield self._connection
            return
        uri = f"{Path(self.path).resolve().as_uri()}?mode={mode}"
        connection = sqlite3.connect(uri, uri=True, timeout=self._timeout)
        try:
            yield connection
        finally:
            connection.close()

    def _degrade(self, exc: Exception) -> None:
        """Disable the store after an unrecoverable error."""
        self.disabled = True
        self.error = exc
        self._pending.clear()
        if self._connection is not None:
            try:
                self._connection.close()
            except sqlite3.Error as close_exc:
                log.debug(
                    "persistent_cache.close_failed",
                    path=str(self.path),
                    error=str(close_exc),
                )
            self._connection = None
        metrics = current_metrics()
        if metrics is not None:
            metrics.increment("cache.persistent.degraded")
        log.warning(
            "persistent_cache.degraded", path=str(self.path), error=str(exc)
        )

    # -- cache operations --------------------------------------------------------

    def get_many(
        self, namespace: str, terms: Sequence[str]
    ) -> dict[str, tuple[str, ...]]:
        """Buffered or stored answers for a term batch (present keys only).

        One chunked ``SELECT ... JOIN ... IN (...)`` per
        :data:`_SELECT_CHUNK` terms; absent terms are simply missing from
        the returned mapping.  When disabled, returns an empty mapping
        (every term is a miss).
        """
        if not terms:
            return {}
        with self._lock:
            if self.disabled:
                return {}
            buffered = self._pending.get(namespace, {})
            found = {term: buffered[term] for term in terms if term in buffered}
            rest = [term for term in terms if term not in found]
            if rest and self.readable:
                try:
                    with self._connected("ro") as connection:
                        for start in range(0, len(rest), _SELECT_CHUNK):
                            chunk = rest[start : start + _SELECT_CHUNK]
                            placeholders = ",".join("?" * len(chunk))
                            rows = connection.execute(
                                "SELECT answers.term, answers.terms FROM answers "
                                "JOIN answer_namespaces "
                                "ON answer_namespaces.id = answers.namespace "
                                "WHERE answer_namespaces.namespace = ? "
                                f"AND answers.term IN ({placeholders})",
                                [namespace, *chunk],
                            ).fetchall()
                            found.update(
                                (term, tuple(split_terms(text))) for term, text in rows
                            )
                except sqlite3.Error as exc:
                    self._degrade(exc)
                    return {}
            self.batch_reads += 1
            self.hits += len(found)
            self.misses += len(terms) - len(found)
        metrics = current_metrics()
        if metrics is not None:
            metrics.increment("cache.persistent.batch_reads")
            metrics.increment("cache.persistent.hits", len(found))
            metrics.increment(
                "cache.persistent.misses", len(terms) - len(found)
            )
        return found

    def put_many(
        self, namespace: str, entries: Mapping[str, Iterable[str]]
    ) -> None:
        """Store a batch of healthy answers (no-op when disabled; last
        writer wins).

        A buffered store keeps them for its owner's next write; a
        ``--cache`` store writes them in one transaction of its own.
        """
        if not entries:
            return
        batch = {term: tuple(terms) for term, terms in entries.items()}
        with self._lock:
            if self.disabled:
                return
            if self._buffered:
                self._pending.setdefault(namespace, {}).update(batch)
                return
            if self._connection is None:
                return
            try:
                with self._connection:
                    written = write_answers(self._connection, {namespace: batch})
            except sqlite3.Error as exc:
                self._degrade(exc)
                return
            self.writes += written
            self.batch_writes += 1
        metrics = current_metrics()
        if metrics is not None:
            metrics.increment("cache.persistent.writes", written)
            metrics.increment("cache.persistent.batch_writes")

    def clear(self, namespace: str | None = None) -> None:
        """Drop one namespace's answers (every answer when None), both
        the buffered and the stored ones."""
        with self._lock:
            if namespace is None:
                self._pending.clear()
            else:
                self._pending.pop(namespace, None)
            if self.disabled or not self.readable:
                return
            try:
                with self._connected("rw") as connection, connection:
                    if namespace is None:
                        connection.execute("DELETE FROM answers")
                    else:
                        connection.execute(
                            "DELETE FROM answers WHERE namespace IN "
                            "(SELECT id FROM answer_namespaces WHERE namespace = ?)",
                            (namespace,),
                        )
            except sqlite3.Error as exc:
                self._degrade(exc)

    def size(self, namespace: str | None = None) -> int:
        """Stored answers in one namespace (or overall when None)."""
        with self._lock:
            if self.disabled or not self.readable:
                return 0
            try:
                with self._connected("ro") as connection:
                    if namespace is None:
                        row = connection.execute(
                            "SELECT COUNT(*) FROM answers"
                        ).fetchone()
                    else:
                        row = connection.execute(
                            "SELECT COUNT(*) FROM answers JOIN answer_namespaces "
                            "ON answer_namespaces.id = answers.namespace "
                            "WHERE answer_namespaces.namespace = ?",
                            (namespace,),
                        ).fetchone()
            except sqlite3.Error as exc:
                self._degrade(exc)
                return 0
            return row[0]

    def close(self) -> None:
        with self._lock:
            self.readable = False
            if self._connection is not None:
                self._connection.close()
                self._connection = None

    # -- the owner's write (buffered stores) ----------------------------------------

    def _take(self) -> Answers:
        """A copy of the buffer, for the owner to write."""
        with self._lock:
            return {
                namespace: dict(entries)
                for namespace, entries in self._pending.items()
                if entries
            }

    def _committed(self, written: Answers) -> None:
        """Drop what the owner committed from the buffer; the file now
        holds a checkpoint of this store."""
        with self._lock:
            for namespace, entries in written.items():
                buffered = self._pending.get(namespace, {})
                for term in entries:
                    buffered.pop(term, None)
            self.readable = True
