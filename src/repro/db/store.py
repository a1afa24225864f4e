"""Document storage.

:class:`DocumentStore` keeps documents in memory with id lookup.  The
row codec (:data:`DOCUMENT_COLUMNS`, :func:`document_to_row`,
:func:`document_from_row`) flattens a document, gold annotation
included, into the serving artifact's ``documents`` table
(:mod:`repro.serving.artifact`), which is where documents persist.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from datetime import date

from ..corpus.document import Document, GoldAnnotation
from ..errors import StorageError

_FIELD_SEP = "\x1f"  # unit separator: safe because terms never contain it


def _pack(values: tuple[str, ...]) -> str:
    return _FIELD_SEP.join(values)


def _unpack(packed: str | None) -> tuple[str, ...]:
    if not packed:
        return ()
    return tuple(packed.split(_FIELD_SEP))


#: Column order of the serving artifact's ``documents`` table.
DOCUMENT_COLUMNS = (
    "doc_id",
    "title",
    "body",
    "source",
    "published",
    "gold_topic",
    "gold_entities",
    "gold_facets",
    "gold_leaked",
)


def document_to_row(doc: Document) -> tuple:
    """Flatten a document (gold annotation included) into a SQLite row."""
    return (
        doc.doc_id,
        doc.title,
        doc.body,
        doc.source,
        doc.published.isoformat(),
        doc.gold.topic if doc.gold else None,
        _pack(doc.gold.entity_names) if doc.gold else None,
        _pack(doc.gold.facet_terms) if doc.gold else None,
        _pack(doc.gold.leaked_terms) if doc.gold else None,
    )


def document_from_row(row: tuple) -> Document:
    """Rebuild a document from a :data:`DOCUMENT_COLUMNS` row."""
    gold = None
    if row[5] is not None:
        gold = GoldAnnotation(
            topic=row[5],
            entity_names=_unpack(row[6]),
            facet_terms=_unpack(row[7]),
            leaked_terms=_unpack(row[8]),
        )
    return Document(
        doc_id=row[0],
        title=row[1],
        body=row[2],
        source=row[3],
        published=date.fromisoformat(row[4]),
        gold=gold,
    )


class DocumentStore:
    """An ordered collection of documents with id lookup."""

    def __init__(self, documents: Iterable[Document] = ()) -> None:
        self._documents: list[Document] = []
        self._by_id: dict[str, Document] = {}
        for document in documents:
            self.add(document)

    def add(self, document: Document) -> None:
        """Add one document; ids must be unique."""
        if document.doc_id in self._by_id:
            raise StorageError(f"duplicate doc_id: {document.doc_id!r}")
        self._by_id[document.doc_id] = document
        self._documents.append(document)

    def get(self, doc_id: str) -> Document:
        """Fetch a document by id."""
        try:
            return self._by_id[doc_id]
        except KeyError:
            raise StorageError(f"unknown doc_id: {doc_id!r}") from None

    def __contains__(self, doc_id: str) -> bool:
        return doc_id in self._by_id

    def __len__(self) -> int:
        return len(self._documents)

    def __iter__(self) -> Iterator[Document]:
        return iter(self._documents)
