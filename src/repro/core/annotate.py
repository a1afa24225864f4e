"""Step 1: identify important terms within each document (Figure 1).

For every document, each configured extractor contributes its important
terms ``E_i(d)``; their union is the document annotation ``I(d)``.  The
pass also records the original database's term statistics, which Step 3
compares against the contextualized database.

The pass runs on the columnar data plane (:mod:`repro.core.columnar`):
chunk workers memoize the pure text functions, and the statistics fold
into an id-indexed :class:`~repro.core.columnar.ColumnarVocabulary` plus
per-document id columns.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from contextlib import AbstractContextManager, nullcontext
from dataclasses import dataclass
from functools import partial

from ..config import ParallelConfig
from ..corpus.document import Document
from ..extractors.base import TermExtractor
from ..observability import Observability
from ..observability import names as obs_names
from ..observability.context import current_metrics
from ..parallel import chunked, map_chunks
from ..text.interning import (
    MemoizedChunk,
    TextMemo,
    install_worker_memo,
    normalize_term,
    use_text_memo,
)
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


def _columnar_stats_chunk(
    documents: list[Document],
) -> list[tuple[str, list[str]]]:
    """Statistics worker of Step 1 (batch and incremental): no
    normalization pass.

    :func:`~repro.text.phrases.document_terms` emits lower-cased single
    tokens and space-joined lower-cased token n-grams — every one a
    fixed point of :func:`~repro.text.tokenizer.normalize_term`, because
    each token is a full match of the tokenizer's word regex (pinned by
    ``tests/test_columnar.py``).  Skipping the per-occurrence regex is
    the single biggest win of the columnar statistics pass; chunk
    workers run under a memo, so the terms come from the memoized
    sentence columns.
    """
    return [
        (document.doc_id, document_terms(document.text)) for document in documents
    ]


def merge_important(outputs: Iterable[list[str]]) -> list[str]:
    """Union per-extractor term lists into ``I(d)``, first-seen order.

    Deduplication is on the normalized form; the first surface form
    wins.  Shared by the batch annotation pass and the incremental
    pipeline (which re-merges cached per-extractor outputs), so the two
    paths cannot diverge.  Normalization routes through the interning
    layer: with an active memo each distinct surface normalizes once
    per chunk.
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


def _extract_chunk(
    extractors: list[TermExtractor], documents: list[Document]
) -> list[tuple[str, list[str]]]:
    """Per-chunk worker for the extraction pass: ``I(d)`` per doc."""
    out: list[tuple[str, list[str]]] = []
    for document in documents:
        merged = merge_important(
            extractor.extract(document) for extractor in extractors
        )
        out.append((document.doc_id, merged))
    return out


def text_memo_scope(
    settings: ParallelConfig, interner: TermInterner | None = None
) -> tuple[AbstractContextManager, Callable[[], None] | None]:
    """How Step 1's statistics and extraction passes share one memo.

    An inline run activates one memo around both passes (normalizing
    through ``interner`` when given), so a document tokenized for
    statistics is still cached during extraction; a pooled run arms one
    persistent memo per worker through the returned pool initializer.
    Returns the context to wrap both passes in and the initializer.
    """
    if settings.enabled:
        return nullcontext(), install_worker_memo
    return use_text_memo(TextMemo(interner)), None


def annotate_database(
    documents: list[Document],
    extractors: list[TermExtractor],
    parallel: ParallelConfig | None = None,
    obs: Observability | None = None,
    on_important: Callable[[list[tuple[str, list[str]]]], None] | None = None,
) -> AnnotatedDatabase:
    """Run Step 1 over a document collection.

    Every document is scanned once per extractor; the union of extractor
    outputs (deduplicated on normalized form) becomes ``I(d)``.

    With ``parallel.workers > 1`` both passes are sharded over a worker
    pool; each document is processed by the same per-chunk code the
    serial path uses and the results are folded in document order, so
    the output is bit-for-bit identical at every worker count.

    The statistics fold into an id-indexed columnar vocabulary plus
    per-document id columns, and chunk workers memoize the pure text
    functions.

    An active ``obs`` bundle records a chunk span per shard and
    per-chunk worker-local metrics (see :func:`repro.parallel.map_chunks`);
    instrumentation never touches the data path.

    ``on_important`` fires with each extraction chunk's
    ``(doc_id, I(d))`` list as the chunk completes (possibly on a worker
    thread) — the hook the pipeline uses to start prefetching resource
    answers for a chunk's terms while later chunks are still being
    tagged.  It must be side-effect-only; the returned database never
    depends on it.

    Raises :class:`ValueError` on a repeated document id
    (:func:`reject_duplicate_ids`).
    """
    reject_duplicate_ids(documents)
    settings = parallel or ParallelConfig(workers=1)
    chunk_size = settings.resolve_chunk_size(len(documents))
    chunks = chunked(documents, max(1, chunk_size))
    # First pass: corpus statistics, so that background-scored extractors
    # (the Yahoo stand-in) have idf available during extraction.
    interner = TermInterner()
    vocabulary = ColumnarVocabulary(interner)
    columns = DocumentColumns(interner)
    # An inline run normalizes through the *vocabulary* interner, so
    # every surface form the extractors resolve is already memoized when
    # contextualization probes the same table.
    run_memo, pool_initializer = text_memo_scope(settings, interner)
    with run_memo:
        for chunk_result in map_chunks(
            MemoizedChunk(_columnar_stats_chunk),
            chunks,
            parallel,
            obs=obs,
            initializer=pool_initializer,
        ):
            for doc_id, normalized in chunk_result:
                vocabulary.add_document_ids(columns.add_document(doc_id, normalized))
        for extractor in extractors:
            extractor.use_background(vocabulary)
        # Second pass: important-term extraction against the adopted
        # background vocabulary, which pool threads share read-only.
        important: dict[str, list[str]] = {}
        for chunk_result in map_chunks(
            MemoizedChunk(partial(_extract_chunk, extractors)),
            chunks,
            parallel,
            obs=obs,
            on_result=on_important,
            initializer=pool_initializer,
        ):
            for doc_id, merged in chunk_result:
                important[doc_id] = merged
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
