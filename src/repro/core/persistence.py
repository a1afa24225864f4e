"""Persist offline expansion artifacts.

The Section V-D deployment performs term and context extraction offline;
the artifacts must therefore survive the process that computed them.
:func:`save_expansions` writes a contextualized database (important
terms, original term sets, context terms) to SQLite;
:func:`load_expansions` restores it against a document store, ready for
:class:`~repro.core.dynamic.DynamicFaceter` or facet selection without
re-running extractors or resources.
"""

from __future__ import annotations

import sqlite3

from ..corpus.document import Document
from ..errors import StorageError
from ..text.vocabulary import TermInterner
from .contextualize import ContextualizedDatabase, assemble_databases

_SCHEMA = """
CREATE TABLE IF NOT EXISTS important_terms (
    doc_id TEXT NOT NULL,
    pos    INTEGER NOT NULL,
    term   TEXT NOT NULL,
    PRIMARY KEY (doc_id, pos)
);
CREATE TABLE IF NOT EXISTS original_terms (
    doc_id TEXT NOT NULL,
    term   TEXT NOT NULL,
    PRIMARY KEY (doc_id, term)
);
CREATE TABLE IF NOT EXISTS context_terms (
    doc_id TEXT NOT NULL,
    pos    INTEGER NOT NULL,
    term   TEXT NOT NULL,
    PRIMARY KEY (doc_id, pos)
);
"""


def save_expansions(database: ContextualizedDatabase, path: str) -> None:
    """Write a contextualized database's per-document artifacts."""
    connection = sqlite3.connect(path)
    try:
        with connection:
            connection.executescript(_SCHEMA)
            connection.execute("DELETE FROM important_terms")
            connection.execute("DELETE FROM original_terms")
            connection.execute("DELETE FROM context_terms")
            annotated = database.annotated
            connection.executemany(
                "INSERT INTO important_terms VALUES (?,?,?)",
                [
                    (doc_id, pos, term)
                    for doc_id, terms in annotated.important_terms.items()
                    for pos, term in enumerate(terms)
                ],
            )
            connection.executemany(
                "INSERT INTO original_terms VALUES (?,?)",
                [
                    # Sorted: term_sets holds sets, and iterating them
                    # directly would make row order (and therefore the
                    # database bytes) vary run to run.
                    (doc_id, term)
                    for doc_id, terms in annotated.term_sets.items()
                    for term in sorted(terms)
                ],
            )
            connection.executemany(
                "INSERT INTO context_terms VALUES (?,?,?)",
                [
                    (doc_id, pos, term)
                    for doc_id, terms in database.context_terms.items()
                    for pos, term in enumerate(terms)
                ],
            )
    finally:
        connection.close()


def load_expansions(
    documents: list[Document], path: str
) -> ContextualizedDatabase:
    """Rebuild a contextualized database from :func:`save_expansions`.

    ``documents`` supplies the document objects (typically loaded from a
    :class:`~repro.db.store.DocumentStore`); artifacts for unknown
    doc_ids are ignored, and documents without artifacts contribute
    empty sets.
    """
    connection = sqlite3.connect(path)
    try:
        important_rows = connection.execute(
            "SELECT doc_id, pos, term FROM important_terms ORDER BY doc_id, pos"
        ).fetchall()
        original_rows = connection.execute(
            "SELECT doc_id, term FROM original_terms ORDER BY doc_id, term"
        ).fetchall()
        context_rows = connection.execute(
            "SELECT doc_id, pos, term FROM context_terms ORDER BY doc_id, pos"
        ).fetchall()
    except sqlite3.DatabaseError as exc:
        raise StorageError(f"cannot read expansions at {path!r}") from exc
    finally:
        connection.close()

    known = {doc.doc_id for doc in documents}
    important: dict[str, list[str]] = {doc_id: [] for doc_id in sorted(known)}
    original_terms: dict[str, list[str]] = {doc_id: [] for doc_id in sorted(known)}
    context_terms: dict[str, list[str]] = {doc_id: [] for doc_id in sorted(known)}
    for doc_id, _pos, term in important_rows:
        if doc_id in known:
            important[doc_id].append(term)
    for doc_id, term in original_rows:
        if doc_id in known:
            original_terms[doc_id].append(term)
    for doc_id, _pos, term in context_rows:
        if doc_id in known:
            context_terms[doc_id].append(term)

    interner = TermInterner()
    originals = [
        interner.intern_many(original_terms[doc.doc_id]) for doc in documents
    ]
    expanded: list[list[int]] = []
    for document, row in zip(documents, originals):
        ids = set(row)
        ids.update(interner.normalized_ids(context_terms[document.doc_id]))
        ids.discard(TermInterner.EMPTY)
        expanded.append(sorted(ids))
    return assemble_databases(
        documents, important, context_terms, interner, originals, expanded
    )
