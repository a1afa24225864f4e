"""Step 1: identify important terms within each document (Figure 1).

For every document, each configured extractor contributes its important
terms ``E_i(d)``; their union is the document annotation ``I(d)``.  The
pass also records the original database's term statistics, which Step 3
compares against the contextualized database.

The pass runs on the columnar data plane (:mod:`repro.core.columnar`):
both passes share one memo over the pure text functions, and the
statistics fold into an id-indexed
:class:`~repro.core.columnar.ColumnarVocabulary` plus per-document id
columns.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

from ..corpus.document import Document
from ..extractors.base import TermExtractor
from ..observability import names as obs_names
from ..observability.context import current_metrics
from ..text.interning import TextMemo, normalize_term, use_text_memo
from ..text.phrases import document_terms
from ..text.vocabulary import TermInterner
from .columnar import ColumnarVocabulary, DocumentColumns


@dataclass
class AnnotatedDatabase:
    """The original database plus per-document important terms."""

    documents: list[Document]
    important_terms: dict[str, list[str]]  # doc_id -> I(d)
    vocabulary: ColumnarVocabulary
    """Term statistics of the original database."""
    columns: DocumentColumns
    """Per-document normalized term ids; row ``i`` is ``documents[i]``."""

    @property
    def term_sets(self) -> dict[str, set[str]]:
        """doc_id -> normalized original terms (derived from the columns)."""
        return self.columns.term_sets()

    def important(self, doc_id: str) -> list[str]:
        """Important terms ``I(d)`` of one document."""
        return self.important_terms.get(doc_id, [])


def merge_important(outputs: Iterable[list[str]]) -> list[str]:
    """Union per-extractor term lists into ``I(d)``, first-seen order.

    Deduplication is on the normalized form; the first surface form
    wins.  Shared by the batch annotation pass and the incremental
    pipeline (which re-merges cached per-extractor outputs), so the two
    paths cannot diverge.  Normalization routes through the interning
    layer: with an active memo each distinct surface normalizes once
    per pass.
    """
    merged: list[str] = []
    seen: set[str] = set()
    for terms in outputs:
        for term in terms:
            key = normalize_term(term)
            if key and key not in seen:
                seen.add(key)
                merged.append(term)
    return merged


def reject_duplicate_ids(documents: Iterable[Document]) -> None:
    """Raise :class:`ValueError` on a repeated document id.

    The statistics count document positions while the facet nodes count
    distinct ids, so a repeat would make them disagree.
    """
    seen: set[str] = set()
    for document in documents:
        if document.doc_id in seen:
            raise ValueError(f"duplicate document id: {document.doc_id!r}")
        seen.add(document.doc_id)


def annotate_database(
    documents: list[Document],
    extractors: list[TermExtractor],
) -> AnnotatedDatabase:
    """Run Step 1 over a document collection.

    Every document is scanned once per extractor; the union of extractor
    outputs (deduplicated on normalized form) becomes ``I(d)``.

    The statistics fold into an id-indexed columnar vocabulary plus
    per-document id columns.  Both passes run under one text memo that
    normalizes through the vocabulary's interner, so a document
    tokenized for statistics is still cached during extraction, and
    every surface form the extractors resolve is already memoized when
    contextualization probes the same table.

    Raises :class:`ValueError` on a repeated document id
    (:func:`reject_duplicate_ids`).
    """
    reject_duplicate_ids(documents)
    interner = TermInterner()
    vocabulary = ColumnarVocabulary(interner)
    columns = DocumentColumns(interner)
    important: dict[str, list[str]] = {}
    with use_text_memo(TextMemo(interner)):
        # First pass: corpus statistics, so that background-scored
        # extractors (the Yahoo stand-in) have idf available during
        # extraction.
        # No normalization pass: document_terms emits lower-cased tokens
        # and space-joined token n-grams, every one a fixed point of
        # normalize_term (pinned by tests/test_columnar.py).
        for document in documents:
            terms = document_terms(document.text)
            vocabulary.add_document_ids(columns.add_document(document.doc_id, terms))
        for extractor in extractors:
            extractor.use_background(vocabulary)
        # Second pass: important-term extraction against the adopted
        # background vocabulary.
        for document in documents:
            important[document.doc_id] = merge_important(
                extractor.extract(document) for extractor in extractors
            )
    metrics = current_metrics()
    if metrics is not None:
        metrics.increment("annotate.documents", len(documents))
        metrics.increment(
            "annotate.important_terms",
            # order: summing ints is order-insensitive
            sum(len(terms) for terms in important.values()),
        )
        metrics.gauge("annotate.vocabulary_size", len(vocabulary))
        metrics.gauge(obs_names.COLUMNAR_INTERNED_TERMS, len(interner))
    return AnnotatedDatabase(
        documents=list(documents),
        important_terms=important,
        vocabulary=vocabulary,
        columns=columns,
    )
