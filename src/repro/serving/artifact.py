"""The serving-ready read-only index artifact (schema ``repro.index/1``).

``FacetIndex.build`` compiles a pipeline run (documents, BM25 postings,
facet hierarchies with materialized parent/child edges and per-node
document-id sets) into a single versioned SQLite file; ``FacetIndex.open``
reopens it in O(1) — no re-tokenization, no hierarchy rebuild — and
answers the exact query surface of
:class:`~repro.core.interface.FacetedInterface` with identical values.
The artifact is immutable after build, so one file can be shared
read-only across any number of serving workers; connections are opened
``mode=ro`` and lazily per thread.

Layout::

    manifest         key/value: schema, counts, content checksums
    documents        one row per document (store column order), position-ordered
    doc_lengths      BM25 document lengths (stopwords excluded)
    postings         (term, doc_id, tf) — words and candidate phrases
    facets           facet roots in display order
    facet_nodes      pre-order nodes with parent edge, depth, count
    facet_node_docs  materialized doc-id set per node (descendants included)

Reads cost the page they show, not the set they match.  Each facet
node's document set is held in memory as one ``int`` bitmap over the
documents' ranks in sorted-id order (the rank table and each bitmap
are built on first use), so a dice is an ``&`` of bitmaps, a union an
``|``, a facet count ``bit_count()``, and the ascending set bits are the
matched ids already sorted.  Only then are documents read, by id, one
``SELECT … IN (…)`` per page (:meth:`FacetIndex.documents`): a
drilldown that shows 10 of 400 matches reads 10 rows.

Checksums (``content_sha256`` plus one per section) are computed over
the canonical row streams at build time, stored in the manifest, and
verifiable with :meth:`FacetIndex.verify`; the HTTP layer derives its
ETags from ``content_sha256``.
"""

from __future__ import annotations

import hashlib
import os
import sqlite3
import threading
from collections.abc import Iterable
from itertools import chain
from typing import TYPE_CHECKING

from ..corpus.document import Document
from ..core.hierarchy import FacetHierarchy
from ..core.interface import FacetCount, FacetedInterface
from ..core.subsumption import position_bitmap
from ..db.inverted_index import InvertedIndex, Posting
from ..db.search import BM25Searcher
from ..db.store import DOCUMENT_COLUMNS, DocumentStore, document_from_row, document_to_row
from ..errors import HierarchyError, StorageError
from ..observability.logging import get_logger
from ..text.tokenizer import normalize_term

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..core.pipeline import FacetExtractionResult

log = get_logger(__name__)

#: The artifact schema this module writes and reads.
SCHEMA_VERSION = "repro.index/1"

_SCHEMA = """
CREATE TABLE manifest (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE documents (
    position   INTEGER PRIMARY KEY,
    doc_id     TEXT NOT NULL UNIQUE,
    title      TEXT NOT NULL,
    body       TEXT NOT NULL,
    source     TEXT NOT NULL,
    published  TEXT NOT NULL,
    gold_topic TEXT,
    gold_entities TEXT,
    gold_facets   TEXT,
    gold_leaked   TEXT
);
CREATE TABLE doc_lengths (
    doc_id TEXT PRIMARY KEY,
    length INTEGER NOT NULL
);
CREATE TABLE postings (
    term   TEXT NOT NULL,
    doc_id TEXT NOT NULL,
    tf     INTEGER NOT NULL,
    PRIMARY KEY (term, doc_id)
) WITHOUT ROWID;
CREATE TABLE facets (
    facet_id     INTEGER PRIMARY KEY,
    root_node_id INTEGER NOT NULL,
    name         TEXT NOT NULL
);
CREATE TABLE facet_nodes (
    node_id   INTEGER PRIMARY KEY,
    facet_id  INTEGER NOT NULL,
    parent_id INTEGER,
    term      TEXT NOT NULL,
    norm_term TEXT NOT NULL,
    depth     INTEGER NOT NULL,
    count     INTEGER NOT NULL
);
CREATE INDEX idx_nodes_norm ON facet_nodes(norm_term, node_id);
CREATE TABLE facet_node_docs (
    node_id INTEGER NOT NULL,
    doc_id  TEXT NOT NULL,
    PRIMARY KEY (node_id, doc_id)
) WITHOUT ROWID;
"""

#: Ids per :meth:`FacetIndex.documents` query, inside SQLite's default
#: bound-variable limit (999 before SQLite 3.32).
_ID_CHUNK = 500

#: The set-bit offsets of each byte value, for reading a bitmap back.
_BYTE_BITS = tuple(
    tuple(bit for bit in range(8) if value >> bit & 1) for value in range(256)
)

_ROW_SEP = b"\x1e"
_FIELD_SEP = "\x1f"


def _hash_rows(rows: Iterable[tuple]) -> "hashlib._Hash":
    """Checksum a canonical row stream (order-sensitive, None-safe)."""
    digest = hashlib.sha256()
    for row in rows:
        line = _FIELD_SEP.join(
            "" if value is None else str(value) for value in row
        )
        digest.update(line.encode("utf-8"))
        digest.update(_ROW_SEP)
    return digest


def _set_bits(bits: int) -> list[int]:
    """The positions of the set bits of a non-negative ``bits``, ascending."""
    data = bits.to_bytes((bits.bit_length() + 7) >> 3, "little")
    return [
        (offset << 3) + bit
        for offset, byte in enumerate(data)
        if byte
        for bit in _BYTE_BITS[byte]
    ]


class FacetIndex:
    """A read-only facet-browsing index over a compiled artifact.

    Never constructed directly: :meth:`build` compiles a pipeline result
    into an artifact file and returns it opened; :meth:`open` reopens an
    existing artifact.  All query methods mirror
    :class:`~repro.core.interface.FacetedInterface` and return identical
    values for identical queries.
    """

    def __init__(self, path: str, manifest: dict[str, str]) -> None:
        self._path = path
        self._manifest = manifest
        self._lock = threading.Lock()
        # Separate from _lock: query methods hold _lock around lazy cache
        # fills whose SQL may open this thread's first connection, so the
        # registry needs its own (non-reentrant-safe) lock.
        self._conn_lock = threading.Lock()
        self._local = threading.local()
        self._connections: list[sqlite3.Connection] = []
        self._closed = False
        self._doc_lengths: dict[str, int] | None = None
        self._doc_ids: tuple[list[str], list[str], dict[str, int]] | None = None
        self._node_bitmaps: dict[int, int] = {}
        self._node_rows: dict[str, tuple[int, str, int, int]] = {}
        self._roots: list[tuple[int, str, int]] | None = None

    # -- lifecycle ----------------------------------------------------------------

    @classmethod
    def build(
        cls,
        result: "FacetExtractionResult",
        store: DocumentStore | None = None,
        *,
        path: str,
    ) -> "FacetIndex":
        """Compile a pipeline run into an artifact at ``path`` and open it.

        ``result`` is a :class:`~repro.core.pipeline.FacetExtractionResult`
        (anything carrying ``documents``, ``hierarchies``, and optionally
        ``store`` works).  ``store`` overrides the document source; the
        BM25 postings always come from an index over ``result.documents``
        — the same objects :meth:`FacetedInterface.from_result` reuses —
        so the artifact answers byte-identically to the in-memory
        interface.  The file is written to a temporary sibling and moved
        into place atomically.
        """
        if store is None:
            store = getattr(result, "store", None)
        documents = list(store) if store is not None else list(result.documents)
        index = getattr(result, "_built_index", None)
        if index is None:
            index = InvertedIndex()
            index.add_documents(list(result.documents))
            if hasattr(result, "_built_index"):
                result._built_index = index
        hierarchies = list(result.hierarchies)
        return cls.build_from_parts(
            documents=documents, index=index, facets=hierarchies, path=path
        )

    @classmethod
    def build_from_parts(
        cls,
        *,
        documents: list[Document],
        index: InvertedIndex,
        facets: list[FacetHierarchy],
        path: str,
    ) -> "FacetIndex":
        """Compile an artifact from already-built pieces (see :meth:`build`)."""
        tmp_path = f"{path}.tmp"
        if os.path.exists(tmp_path):
            os.remove(tmp_path)
        connection = sqlite3.connect(tmp_path)
        try:
            manifest = cls._write_artifact(connection, documents, index, facets)
            connection.close()
            os.replace(tmp_path, path)
        except BaseException:
            connection.close()  # a no-op when already closed
            if os.path.exists(tmp_path):
                os.remove(tmp_path)
            raise
        log.info(
            "index.built",
            path=path,
            documents=len(documents),
            facets=len(facets),
            nodes=int(manifest["node_count"]),
            checksum=manifest["content_sha256"][:16],
        )
        return cls.open(path)

    @staticmethod
    def _write_artifact(
        connection: sqlite3.Connection,
        documents: list[Document],
        index: InvertedIndex,
        facets: list[FacetHierarchy],
    ) -> dict[str, str]:
        """Fill an empty database; returns the manifest it wrote."""
        connection.executescript(_SCHEMA)

        document_rows = [
            (position, *document_to_row(doc))
            for position, doc in enumerate(documents)
        ]
        length_rows = sorted(index.document_lengths().items())
        posting_rows = list(index.iter_postings())

        facet_rows: list[tuple[int, int, str]] = []
        node_rows: list[tuple[int, int, int | None, str, str, int, int]] = []
        node_doc_rows: list[tuple[int, str]] = []
        next_id = 1

        def write_node(node, facet_id: int, parent_id: int | None, depth: int) -> int:
            nonlocal next_id
            node_id = next_id
            next_id += 1
            node_rows.append(
                (
                    node_id,
                    facet_id,
                    parent_id,
                    node.term,
                    normalize_term(node.term),
                    depth,
                    node.count,
                )
            )
            node_doc_rows.extend(
                (node_id, doc_id) for doc_id in sorted(node.doc_ids)
            )
            for child in node.children:
                write_node(child, facet_id, node_id, depth + 1)
            return node_id

        for facet_id, facet in enumerate(facets):
            root_id = write_node(facet.root, facet_id, None, 0)
            facet_rows.append((facet_id, root_id, facet.name))

        documents_sha = _hash_rows(document_rows).hexdigest()
        postings_sha = _hash_rows(
            [*length_rows, *sorted(posting_rows)]
        ).hexdigest()
        facets_sha = _hash_rows(
            [*facet_rows, *node_rows, *node_doc_rows]
        ).hexdigest()
        content = hashlib.sha256(
            f"{documents_sha}\n{postings_sha}\n{facets_sha}".encode("ascii")
        ).hexdigest()

        manifest = {
            "schema": SCHEMA_VERSION,
            "document_count": str(len(documents)),
            "doc_length_total": str(index.total_document_length),
            "posting_count": str(len(posting_rows)),
            "facet_count": str(len(facet_rows)),
            "node_count": str(len(node_rows)),
            "documents_sha256": documents_sha,
            "postings_sha256": postings_sha,
            "facets_sha256": facets_sha,
            "content_sha256": content,
        }

        with connection:
            connection.executemany(
                "INSERT INTO documents VALUES (?,?,?,?,?,?,?,?,?,?)",
                document_rows,
            )
            connection.executemany(
                "INSERT INTO doc_lengths VALUES (?,?)", length_rows
            )
            connection.executemany(
                "INSERT INTO postings VALUES (?,?,?)", posting_rows
            )
            connection.executemany(
                "INSERT INTO facets VALUES (?,?,?)", facet_rows
            )
            connection.executemany(
                "INSERT INTO facet_nodes VALUES (?,?,?,?,?,?,?)", node_rows
            )
            connection.executemany(
                "INSERT INTO facet_node_docs VALUES (?,?)", node_doc_rows
            )
            connection.executemany(
                "INSERT INTO manifest VALUES (?,?)", sorted(manifest.items())
            )
        return manifest

    @classmethod
    def open(cls, path: str) -> "FacetIndex":
        """Open an artifact read-only in O(1) (manifest read, no scans)."""
        if not os.path.isfile(path):
            raise StorageError(f"no index artifact at {path!r}")
        connection = sqlite3.connect(
            f"file:{path}?mode=ro", uri=True, check_same_thread=False
        )
        try:
            rows = connection.execute("SELECT key, value FROM manifest").fetchall()
        except sqlite3.DatabaseError as exc:
            connection.close()
            raise StorageError(
                f"cannot read index artifact at {path!r}: {exc}"
            ) from exc
        manifest = {key: value for key, value in rows}
        schema = manifest.get("schema")
        if schema != SCHEMA_VERSION:
            connection.close()
            raise StorageError(
                f"unsupported index schema {schema!r} at {path!r} "
                f"(expected {SCHEMA_VERSION!r})"
            )
        missing = [
            key
            for key in ("document_count", "doc_length_total", "content_sha256")
            if key not in manifest
        ]
        if missing:
            connection.close()
            raise StorageError(
                f"index manifest at {path!r} is missing keys: {missing}"
            )
        opened = cls(path, manifest)
        opened._adopt_connection(connection)
        return opened

    def _adopt_connection(self, connection: sqlite3.Connection) -> None:
        # Executor threads race each other (and close()) to register the
        # connections they open; the lock keeps the registry consistent
        # so close() can reach every connection ever opened, and a
        # connection adopted after close() is closed immediately instead
        # of leaking.
        with self._conn_lock:
            if self._closed:
                connection.close()
                raise StorageError(f"index at {self._path!r} is closed")
            self._connections.append(connection)
        self._local.connection = connection

    def _connection(self) -> sqlite3.Connection:
        if self._closed:
            raise StorageError(f"index at {self._path!r} is closed")
        connection = getattr(self._local, "connection", None)
        if connection is None:
            connection = sqlite3.connect(
                f"file:{self._path}?mode=ro", uri=True, check_same_thread=False
            )
            self._adopt_connection(connection)
        return connection

    def close(self) -> None:
        """Close every connection this index opened (all threads)."""
        with self._conn_lock:
            if self._closed:
                return
            self._closed = True
            for connection in self._connections:
                try:
                    connection.close()
                except sqlite3.Error:  # pragma: no cover - close is best effort
                    log.warning("index.close_failed", path=self._path)
            self._connections.clear()
        self._local = threading.local()

    def __enter__(self) -> "FacetIndex":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- metadata -----------------------------------------------------------------

    @property
    def path(self) -> str:
        """Filesystem location of the artifact."""
        return self._path

    @property
    def manifest(self) -> dict[str, str]:
        """The artifact manifest (copy)."""
        return dict(self._manifest)

    @property
    def checksum(self) -> str:
        """Content checksum (ETag source for the HTTP layer)."""
        return self._manifest["content_sha256"]

    @property
    def document_count(self) -> int:
        return int(self._manifest["document_count"])

    @property
    def facet_count(self) -> int:
        return int(self._manifest["facet_count"])

    @property
    def node_count(self) -> int:
        return int(self._manifest["node_count"])

    def verify(self) -> bool:
        """Recompute every section checksum against the manifest."""
        connection = self._connection()
        documents_sha = _hash_rows(
            connection.execute(
                f"SELECT position, {', '.join(DOCUMENT_COLUMNS)} "
                "FROM documents ORDER BY position"
            )
        ).hexdigest()
        postings_sha = _hash_rows(
            chain(
                connection.execute(
                    "SELECT doc_id, length FROM doc_lengths ORDER BY doc_id"
                ),
                connection.execute(
                    "SELECT term, doc_id, tf FROM postings ORDER BY term, doc_id"
                ),
            )
        ).hexdigest()
        facets_sha = _hash_rows(
            chain(
                connection.execute(
                    "SELECT facet_id, root_node_id, name FROM facets"
                    " ORDER BY facet_id"
                ),
                connection.execute(
                    "SELECT node_id, facet_id, parent_id, term, norm_term,"
                    " depth, count FROM facet_nodes ORDER BY node_id"
                ),
                connection.execute(
                    "SELECT node_id, doc_id FROM facet_node_docs"
                    " ORDER BY node_id, doc_id"
                ),
            )
        ).hexdigest()
        content = hashlib.sha256(
            f"{documents_sha}\n{postings_sha}\n{facets_sha}".encode("ascii")
        ).hexdigest()
        (posting_count,) = connection.execute(
            "SELECT COUNT(*) FROM postings"
        ).fetchone()
        return (
            documents_sha == self._manifest.get("documents_sha256")
            and postings_sha == self._manifest.get("postings_sha256")
            and facets_sha == self._manifest.get("facets_sha256")
            and content == self._manifest.get("content_sha256")
            and int(posting_count) == int(self._manifest.get("posting_count", -1))
        )

    # -- facet navigation ----------------------------------------------------------

    def _root_rows(self) -> list[tuple[int, str, int]]:
        """(root_node_id, term, count) per facet, in display order."""
        if self._roots is None:
            with self._lock:
                if self._roots is None:
                    rows = self._connection().execute(
                        "SELECT n.node_id, n.term, n.count"
                        " FROM facets f JOIN facet_nodes n"
                        " ON n.node_id = f.root_node_id"
                        " ORDER BY f.facet_id"
                    ).fetchall()
                    self._roots = [(row[0], row[1], row[2]) for row in rows]
        return self._roots

    def facet_names(self) -> list[str]:
        """Facet root terms, in display order."""
        return [term for _node_id, term, _count in self._root_rows()]

    def top_level_counts(self) -> list[FacetCount]:
        """The facet roots with document counts (the sidebar view)."""
        return [
            FacetCount(term, count, depth=0)
            for _node_id, term, count in self._root_rows()
        ]

    def _node_row(self, term: str) -> tuple[int, str, int, int] | None:
        """(node_id, term, depth, count) of the first matching node.

        Found rows are cached per normalized term (a bounded set: the
        artifact's nodes); unknown terms are looked up every time.
        """
        key = normalize_term(term)
        found = self._node_rows.get(key)
        if found is None:
            with self._lock:
                found = self._node_rows.get(key)
                if found is None:
                    row = self._connection().execute(
                        "SELECT node_id, term, depth, count FROM facet_nodes"
                        " WHERE norm_term = ? ORDER BY node_id LIMIT 1",
                        (key,),
                    ).fetchone()
                    if row is None:
                        return None
                    found = self._node_rows[key] = (row[0], row[1], row[2], row[3])
        return found

    def _require_node(self, term: str) -> tuple[int, str, int, int]:
        row = self._node_row(term)
        if row is None:
            raise HierarchyError(f"no facet node for term: {term!r}")
        return row

    def has_node(self, term: str) -> bool:
        return self._node_row(term) is not None

    def depth(self, term: str) -> int:
        """Tree depth of a facet node (roots are depth 0)."""
        return self._require_node(term)[2]

    def children(self, term: str) -> list[FacetCount]:
        """Child nodes of a facet node, with counts (drill-down view)."""
        node_id, _term, _depth, _count = self._require_node(term)
        rows = self._connection().execute(
            "SELECT term, count, depth FROM facet_nodes"
            " WHERE parent_id = ? ORDER BY node_id",
            (node_id,),
        ).fetchall()
        return [FacetCount(row[0], row[1], depth=row[2]) for row in rows]

    def breadcrumb(self, term: str) -> list[str]:
        """Root-to-node trail of a facet node (for display)."""
        node_id, _term, _depth, _count = self._require_node(term)
        rows = self._connection().execute(
            "WITH RECURSIVE trail(node_id, parent_id, term, hops) AS ("
            " SELECT node_id, parent_id, term, 0 FROM facet_nodes WHERE node_id = ?"
            " UNION ALL"
            " SELECT n.node_id, n.parent_id, n.term, t.hops + 1"
            " FROM facet_nodes n JOIN trail t ON n.node_id = t.parent_id)"
            " SELECT term FROM trail ORDER BY hops DESC",
            (node_id,),
        ).fetchall()
        return [row[0] for row in rows]

    # -- documents -----------------------------------------------------------------

    def document(self, doc_id: str) -> Document:
        """Fetch one document by id (:class:`StorageError` when unknown)."""
        return self.documents([doc_id])[0]

    def documents(self, doc_ids: list[str]) -> list[Document]:
        """Fetch documents by id, in the given order, with one query per
        :data:`_ID_CHUNK` ids (:class:`StorageError` on an unknown id)."""
        connection = self._connection()
        found: dict[str, Document] = {}
        for start in range(0, len(doc_ids), _ID_CHUNK):
            chunk = doc_ids[start : start + _ID_CHUNK]
            for row in connection.execute(
                f"SELECT {', '.join(DOCUMENT_COLUMNS)} FROM documents"
                f" WHERE doc_id IN ({', '.join('?' * len(chunk))})",
                chunk,
            ):
                found[row[0]] = document_from_row(row)
        try:
            return [found[doc_id] for doc_id in doc_ids]
        except KeyError as exc:
            raise StorageError(f"unknown doc_id: {exc.args[0]!r}") from None

    def _id_tables(self) -> tuple[list[str], list[str], dict[str, int]]:
        """(ids in position order, ids in sorted order, id -> sorted rank).

        The ranks number the bitmap bits.  They come from Python's
        ``sorted()``, not SQL ``ORDER BY``, so ascending bits give ids in
        exactly the order ``sorted(doc_ids)`` does.
        """
        if self._doc_ids is None:
            with self._lock:
                if self._doc_ids is None:
                    by_position = [
                        row[0]
                        for row in self._connection().execute(
                            "SELECT doc_id FROM documents ORDER BY position"
                        )
                    ]
                    by_rank = sorted(by_position)
                    ranks = {doc_id: rank for rank, doc_id in enumerate(by_rank)}
                    self._doc_ids = (by_position, by_rank, ranks)
        return self._doc_ids

    def _ids_of(self, bits: int) -> list[str]:
        """The ids a rank bitmap holds, sorted."""
        by_rank = self._id_tables()[1]
        return [by_rank[rank] for rank in _set_bits(bits)]

    def _node_bits(self, node_id: int) -> int:
        """The rank bitmap of one node's document set."""
        bits = self._node_bitmaps.get(node_id)
        if bits is None:
            ranks = self._id_tables()[2]
            with self._lock:
                bits = self._node_bitmaps.get(node_id)
                if bits is None:
                    rows = self._connection().execute(
                        "SELECT doc_id FROM facet_node_docs WHERE node_id = ?",
                        (node_id,),
                    ).fetchall()
                    try:
                        bits = position_bitmap([ranks[row[0]] for row in rows])
                    except KeyError as exc:
                        raise StorageError(
                            f"unknown doc_id: {exc.args[0]!r}"
                        ) from None
                    self._node_bitmaps[node_id] = bits
        return bits

    # -- OLAP-style selection -------------------------------------------------------

    def slice(self, term: str) -> list[Document]:
        """Documents under one facet node."""
        node_id = self._require_node(term)[0]
        return self.documents(self._ids_of(self._node_bits(node_id)))

    def dice_ids(self, terms: list[str]) -> list[str]:
        """Ids of the documents satisfying *all* facet constraints: sorted,
        or every id in collection order when ``terms`` is empty."""
        if not terms:
            return list(self._id_tables()[0])
        bits = -1
        for term in terms:
            bits &= self._node_bits(self._require_node(term)[0])
        return self._ids_of(bits)

    def dice(self, terms: list[str]) -> list[Document]:
        """Documents satisfying *all* facet constraints (cube dice)."""
        return self.documents(self.dice_ids(terms))

    def union(self, terms: list[str]) -> list[Document]:
        """Documents under *any* of the facet nodes."""
        bits = 0
        for term in terms:
            bits |= self._node_bits(self._require_node(term)[0])
        return self.documents(self._ids_of(bits))

    # -- search integration ---------------------------------------------------------

    def _lengths(self) -> dict[str, int]:
        if self._doc_lengths is None:
            with self._lock:
                if self._doc_lengths is None:
                    rows = self._connection().execute(
                        "SELECT doc_id, length FROM doc_lengths"
                    ).fetchall()
                    self._doc_lengths = {row[0]: row[1] for row in rows}
        return self._doc_lengths

    def _searcher(self) -> BM25Searcher:
        return BM25Searcher(_SqlSearchAdapter(self))

    def search(self, query: str, limit: int = 10) -> list[Document]:
        """Plain BM25 keyword search."""
        return self.documents(
            [result.doc_id for result in self._searcher().search(query, limit=limit)]
        )

    def search_with_facets(
        self, query: str, facet_terms: list[str], limit: int = 10
    ) -> list[Document]:
        """Keyword search restricted to documents matching facet constraints."""
        allowed = set(self.dice_ids(facet_terms)) if facet_terms else None
        hits: list[str] = []
        for result in self._searcher().search(query, limit=limit * 10):
            if allowed is None or result.doc_id in allowed:
                hits.append(result.doc_id)
                if len(hits) >= limit:
                    break
        return self.documents(hits)

    def facet_counts_for(
        self, doc_ids: set[str], max_facets: int = 10
    ) -> list[FacetCount]:
        """Per-facet counts restricted to a result set (dynamic faceting).

        Ids the artifact lacks match no node, so they count nowhere.
        """
        ranks = self._id_tables()[2]
        wanted = position_bitmap([ranks[d] for d in doc_ids if d in ranks])
        counts = []
        for node_id, term, _count in self._root_rows():
            overlap = (self._node_bits(node_id) & wanted).bit_count()
            if overlap:
                counts.append(FacetCount(term, overlap, depth=0))
        counts.sort(key=lambda fc: (-fc.count, fc.term))
        return counts[:max_facets]

    # -- interoperability -----------------------------------------------------------

    def to_interface(self) -> FacetedInterface:
        """Materialize an in-memory interface from the artifact.

        Loads every document and rebuilds the inverted index — the
        opposite trade-off to :meth:`open`; useful for offline analysis
        of a shipped artifact, not for serving.
        """
        store = DocumentStore(self.dice([]))
        facets = _load_hierarchies(self._connection())
        return FacetedInterface(store=store, facets=facets)


class _SqlSearchAdapter:
    """A :class:`~repro.db.search.ScoringIndex` over the artifact tables.

    Feeds :class:`BM25Searcher` the exact statistics the in-memory index
    exposes — same document count, exact integer length total (so the
    average-length division is bit-identical), same per-term postings —
    which is what keeps artifact search results equal to in-memory ones.
    """

    def __init__(self, index: FacetIndex) -> None:
        self._index = index
        self._postings: dict[str, list[Posting]] = {}

    @property
    def document_count(self) -> int:
        return self._index.document_count

    @property
    def average_document_length(self) -> float:
        count = self._index.document_count
        if not count:
            return 0.0
        return int(self._index.manifest["doc_length_total"]) / count

    def document_frequency(self, term: str) -> int:
        return len(self.postings(term))

    def document_length(self, doc_id: str) -> int:
        return self._index._lengths().get(doc_id, 0)

    def postings(self, term: str) -> list[Posting]:
        """One term's postings, read once per adapter (one search)."""
        found = self._postings.get(term)
        if found is None:
            rows = self._index._connection().execute(
                "SELECT doc_id, tf FROM postings WHERE term = ?", (term,)
            ).fetchall()
            found = self._postings[term] = [Posting(row[0], row[1]) for row in rows]
        return found


def _load_hierarchies(connection: sqlite3.Connection) -> list[FacetHierarchy]:
    """Rebuild FacetHierarchy trees from the artifact node tables."""
    from ..core.hierarchy import FacetNode

    nodes: dict[int, FacetNode] = {}
    parents: dict[int, int | None] = {}
    for node_id, parent_id, term in connection.execute(
        "SELECT node_id, parent_id, term FROM facet_nodes ORDER BY node_id"
    ):
        nodes[node_id] = FacetNode(term=term)
        parents[node_id] = parent_id
    for node_id, doc_id in connection.execute(
        "SELECT node_id, doc_id FROM facet_node_docs ORDER BY node_id, doc_id"
    ):
        nodes[node_id].doc_ids.add(doc_id)
    for node_id, parent_id in parents.items():
        if parent_id is not None:
            nodes[parent_id].children.append(nodes[node_id])
    roots = [
        row[0]
        for row in connection.execute(
            "SELECT root_node_id FROM facets ORDER BY facet_id"
        )
    ]
    return [FacetHierarchy(root=nodes[root_id]) for root_id in roots]
