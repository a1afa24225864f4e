"""SQLite-backed persistent cache for external-resource expansions.

The paper recommends performing term and context extraction offline
(Section V-D); this store is what makes that practical at scale.  Every
distinct ``(namespace, term)`` expansion is written once and reused by
the rest of the current run *and* by every later run pointed at the
same file — the Datasette-style "SQLite as a shared cache" pattern.

Design points:

* **Thread-safe.** One connection (``check_same_thread=False``) guarded
  by a lock; SQLite's own file locking arbitrates between processes.
* **Degrades, never aborts.** A corrupted, locked, or unwritable cache
  file switches the store into a disabled mode where :meth:`get_many`
  misses and :meth:`put_many` is a no-op — the pipeline silently falls
  back to the in-process tier instead of crashing a batch job.
* **Namespaced.** Resources with different semantics (or differently
  configured worlds) write under distinct namespaces so one run can
  never poison another.
* **Batched.** :meth:`get_many` answers a whole term batch with chunked
  ``IN (...)`` selects and :meth:`put_many` upserts a batch inside one
  transaction via ``executemany`` — one round trip per chunk instead of
  one per term, which is what makes the batched query engine's cache
  traffic cheap.
* **Tuned.** File-backed stores run under ``journal_mode=WAL`` with
  ``synchronous=NORMAL`` (readers never block the writer, fsyncs
  amortized); backends that reject the pragmas (``:memory:``, read-only
  or network filesystems) keep their defaults — pragma failure is never
  an error.
"""

from __future__ import annotations

import json
import sqlite3
import threading
from collections.abc import Iterable, Mapping, Sequence

from ..observability.context import current_metrics
from ..observability.logging import get_logger

log = get_logger(__name__)

_SCHEMA = """
CREATE TABLE IF NOT EXISTS context_cache (
    namespace TEXT NOT NULL,
    term      TEXT NOT NULL,
    terms     TEXT NOT NULL,
    PRIMARY KEY (namespace, term)
);
"""

#: Pragmas applied to every connection, best effort (see module docstring).
_PRAGMAS = (
    "PRAGMA journal_mode=WAL",
    "PRAGMA synchronous=NORMAL",
)

#: Terms per ``IN (...)`` select — comfortably under SQLite's historical
#: 999-host-parameter limit (one slot is taken by the namespace).
_SELECT_CHUNK = 500


class PersistentResourceCache:
    """Persistent ``(namespace, term) -> context terms`` store.

    Parameters
    ----------
    path:
        SQLite database path; ``":memory:"`` keeps the store private to
        this object (still shareable across resource instances).
    timeout:
        Seconds to wait on a locked database before degrading.
    """

    def __init__(self, path: str = ":memory:", timeout: float = 5.0) -> None:
        self.path = path
        self._timeout = timeout
        self._lock = threading.Lock()
        self._connection: sqlite3.Connection | None = None
        self.disabled = False
        self.error: Exception | None = None
        self.hits = 0
        self.misses = 0
        self.writes = 0
        self.batch_reads = 0
        self.batch_writes = 0
        self.wal_enabled = False
        self._connect()

    # -- connection management -------------------------------------------------

    def _connect(self) -> None:
        try:
            connection = sqlite3.connect(
                self.path, timeout=self._timeout, check_same_thread=False
            )
            connection.executescript(_SCHEMA)
            connection.commit()
        except sqlite3.Error as exc:
            self._degrade(exc)
        else:
            self._connection = connection
            self._apply_pragmas(connection)

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
                    path=self.path,
                    pragma=pragma,
                    error=str(exc),
                )
            else:
                if pragma.endswith("journal_mode=WAL"):
                    self.wal_enabled = bool(row) and str(row[0]).lower() == "wal"

    def _degrade(self, exc: Exception) -> None:
        """Disable the persistent tier after an unrecoverable error."""
        self.disabled = True
        self.error = exc
        if self._connection is not None:
            try:
                self._connection.close()
            except sqlite3.Error as close_exc:
                log.debug(
                    "persistent_cache.close_failed",
                    path=self.path,
                    error=str(close_exc),
                )
            self._connection = None
        metrics = current_metrics()
        if metrics is not None:
            metrics.increment("cache.persistent.degraded")
        log.warning(
            "persistent_cache.degraded", path=self.path, error=str(exc)
        )

    # -- cache operations --------------------------------------------------------

    def get_many(
        self, namespace: str, terms: Sequence[str]
    ) -> dict[str, tuple[str, ...]]:
        """Cached expansions for a term batch (present keys only).

        One chunked ``SELECT ... IN (...)`` per :data:`_SELECT_CHUNK`
        terms replaces a round trip per term; absent terms are simply
        missing from the returned mapping.  When disabled, returns an
        empty mapping (every term is a miss).
        """
        if not terms:
            return {}
        found: dict[str, tuple[str, ...]] = {}
        with self._lock:
            if self.disabled or self._connection is None:
                return {}
            try:
                for start in range(0, len(terms), _SELECT_CHUNK):
                    chunk = list(terms[start : start + _SELECT_CHUNK])
                    placeholders = ",".join("?" * len(chunk))
                    rows = self._connection.execute(
                        "SELECT term, terms FROM context_cache "
                        f"WHERE namespace = ? AND term IN ({placeholders})",
                        [namespace, *chunk],
                    ).fetchall()
                    for term, payload in rows:
                        found[term] = tuple(json.loads(payload))
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
        """Upsert a batch of expansions inside a single transaction
        (no-op when disabled; last writer wins).

        One ``executemany`` with ``ON CONFLICT ... DO UPDATE`` per call:
        either every entry of the batch commits or none does, and a
        concurrent writer racing on the same terms leaves the table in a
        last-writer-wins state rather than a partially-interleaved one.
        """
        if not entries:
            return
        rows = [
            (namespace, term, json.dumps(list(terms)))
            for term, terms in entries.items()
        ]
        with self._lock:
            if self.disabled or self._connection is None:
                return
            try:
                with self._connection:
                    self._connection.executemany(
                        "INSERT INTO context_cache (namespace, term, terms) "
                        "VALUES (?, ?, ?) "
                        "ON CONFLICT(namespace, term) "
                        "DO UPDATE SET terms = excluded.terms",
                        rows,
                    )
            except sqlite3.Error as exc:
                self._degrade(exc)
                return
            self.writes += len(rows)
            self.batch_writes += 1
        metrics = current_metrics()
        if metrics is not None:
            metrics.increment("cache.persistent.writes", len(rows))
            metrics.increment("cache.persistent.batch_writes")

    def clear(self, namespace: str | None = None) -> None:
        """Drop one namespace's entries, or every entry when None."""
        with self._lock:
            if self.disabled or self._connection is None:
                return
            try:
                with self._connection:
                    if namespace is None:
                        self._connection.execute("DELETE FROM context_cache")
                    else:
                        self._connection.execute(
                            "DELETE FROM context_cache WHERE namespace = ?",
                            (namespace,),
                        )
            except sqlite3.Error as exc:
                self._degrade(exc)

    def size(self, namespace: str | None = None) -> int:
        """Stored entries in one namespace (or overall when None)."""
        with self._lock:
            if self.disabled or self._connection is None:
                return 0
            try:
                if namespace is None:
                    row = self._connection.execute(
                        "SELECT COUNT(*) FROM context_cache"
                    ).fetchone()
                else:
                    row = self._connection.execute(
                        "SELECT COUNT(*) FROM context_cache WHERE namespace = ?",
                        (namespace,),
                    ).fetchone()
            except sqlite3.Error as exc:
                self._degrade(exc)
                return 0
            return row[0]

    def close(self) -> None:
        with self._lock:
            if self._connection is not None:
                self._connection.close()
                self._connection = None
