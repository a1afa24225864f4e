"""Step 2: expand documents with context terms (Figure 2).

Each important term of each document is sent to every external resource;
the union of returned context terms ``C(d)`` augments the document.  The
contextualized database keeps, per document, the original terms plus the
context terms — the input to the comparative analysis of Step 3.

The expansion runs on the columnar data plane: the distinct important
terms are resolved once (one batch per resource), every
answer is normalized and interned once, and the per-document merges
become integer set operations over precomputed ``(surface, key-id)``
contribution lists.  :func:`expand_documents` is that expansion; the
batch pipeline runs it over the whole corpus and the incremental
pipeline over each batch's new and dirty documents.
"""

from __future__ import annotations

from array import array
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

from ..corpus.document import Document
from ..observability.context import current_metrics
from ..resources.base import ExternalResource
from ..text.interning import TextMemo, use_text_memo
from ..text.vocabulary import TermInterner
from .annotate import AnnotatedDatabase
from .columnar import ColumnarVocabulary, DocumentColumns


@dataclass
class ContextualizedDatabase:
    """The expanded database ``C(D)``."""

    annotated: AnnotatedDatabase
    context_terms: dict[str, list[str]]  # doc_id -> C(d) (surface forms)
    vocabulary: ColumnarVocabulary
    """Term statistics of the contextualized database."""
    columns: DocumentColumns
    """Per-document expanded term ids (original plus context terms,
    distinct and ascending); row ``i`` is ``annotated.documents[i]``."""

    @property
    def expanded_sets(self) -> dict[str, set[str]]:
        """doc_id -> normalized original + context terms (derived from
        the columns)."""
        return self.columns.term_sets()

    def context(self, doc_id: str) -> list[str]:
        """Context terms ``C(d)`` of one document."""
        return self.context_terms.get(doc_id, [])


def expanded_database(
    annotated: AnnotatedDatabase,
    context_terms: dict[str, list[str]],
    expanded_rows: Iterable[Sequence[int]],
) -> ContextualizedDatabase:
    """Assemble ``C(D)`` over ``annotated`` from per-document id rows.

    ``expanded_rows`` gives, in document order, each document's expanded
    term ids (original plus context terms) in ``annotated``'s interner,
    distinct and ascending.
    """
    interner = annotated.columns.interner
    vocabulary = ColumnarVocabulary(interner)
    columns = DocumentColumns(interner)
    for document, row in zip(annotated.documents, expanded_rows, strict=True):
        vocabulary.add_document_distinct_ids(row)
        columns.add_document_ids(document.doc_id, row)
    return ContextualizedDatabase(
        annotated=annotated,
        context_terms=context_terms,
        vocabulary=vocabulary,
        columns=columns,
    )


def assemble_databases(
    documents: list[Document],
    important_terms: dict[str, list[str]],
    context_terms: dict[str, list[str]],
    interner: TermInterner,
    original_rows: Iterable[Sequence[int]],
    expanded_rows: Iterable[Sequence[int]],
) -> ContextualizedDatabase:
    """Both databases from per-document id rows, in document order.

    ``original_rows`` are each document's original term ids in
    ``interner`` (repeats count towards tf); ``expanded_rows`` are as
    in :func:`expanded_database`.  The stream's snapshot and dynamic
    faceting over a subset build their databases here, so every
    database carries columns.
    """
    vocabulary = ColumnarVocabulary(interner)
    columns = DocumentColumns(interner)
    for document, row in zip(documents, original_rows, strict=True):
        vocabulary.add_document_ids(row)
        columns.add_document_ids(document.doc_id, row)
    annotated = AnnotatedDatabase(
        documents=list(documents),
        important_terms=important_terms,
        vocabulary=vocabulary,
        columns=columns,
    )
    return expanded_database(annotated, context_terms, expanded_rows)


#: Shared empty contribution list for keys no resource answered.
_NO_PAIRS: tuple[tuple[str, int], ...] = ()


def expand_documents(
    important: Sequence[list[str]],
    resources: list[ExternalResource],
    interner: TermInterner,
) -> list[tuple[list[str], list[int]]]:
    """Expand documents given by their important terms ``I(d)``.

    Returns, per document, its context terms ``C(d)`` (surface forms)
    and their normalized key ids in ``interner``, both in first-seen
    order.  The batch pipeline (:func:`contextualize`) and the
    incremental one (new and dirty documents) both expand through here.

    Phase A resolves the documents' distinct important terms once (the
    first surface form per normalized key), under one text memo, with
    one deduplicated batch per resource — one engine pass each: bulk
    backend lookups, batched persistent-cache I/O and, for a remote
    resource, one round trip.  Phase B merges per document, in document
    order, with integer set operations over interned ids: contribution
    lists preserve resource order and answer order, and the
    per-document filter keeps the first-seen surface form per key.
    """
    # Phase A: the distinct important terms, first surface per key.
    # Per-document key-id lists are kept (dropping empty normalizations)
    # so phase B never re-probes the surface → id table.
    ordered_terms: list[str] = []
    key_ids: list[int] = []
    known: set[int] = set()
    kids_per_doc: list[list[int]] = []
    for terms in important:
        doc_kids: list[int] = []
        for term, kid in zip(terms, interner.normalized_ids(terms)):
            if kid < 0:
                continue
            doc_kids.append(kid)
            if kid not in known:
                known.add(kid)
                ordered_terms.append(term)
                key_ids.append(kid)
        kids_per_doc.append(doc_kids)
    with use_text_memo(TextMemo()):
        per_resource = [
            resource.context_terms_many(ordered_terms) for resource in resources
        ]
    # Contribution lists: per key id, the (surface, key id) pairs its
    # answers add, in resource order then answer order — each answer
    # term normalized and interned exactly once per call.
    pairs: dict[int, list[tuple[str, int]]] = {}
    for position, kid in enumerate(key_ids):
        contributions: list[tuple[str, int]] = []
        for answers in per_resource:
            answer = answers[position]
            contributions.extend(
                (context_term, context_kid)
                for context_term, context_kid in zip(
                    answer, interner.normalized_ids(answer)
                )
                if context_kid >= 0
            )
        if contributions:
            pairs[kid] = contributions
    # Phase B: per-document merges, first-seen over ids.
    expansions: list[tuple[list[str], list[int]]] = []
    for doc_kids in kids_per_doc:
        merged: list[str] = []
        seen: set[int] = set()
        seen_order: list[int] = []
        for kid in doc_kids:
            for context_term, context_kid in pairs.get(kid, _NO_PAIRS):
                if context_kid not in seen:
                    seen.add(context_kid)
                    seen_order.append(context_kid)
                    merged.append(context_term)
        expansions.append((merged, seen_order))
    return expansions


def contextualize(
    annotated: AnnotatedDatabase,
    resources: list[ExternalResource],
) -> ContextualizedDatabase:
    """Run Step 2: query every resource with every important term.

    Resources memoize per-term answers, so cost scales with the number
    of *distinct* important terms, not with corpus size — this is what
    makes the offline-expansion deployment of Section V-D practical.
    The expansion itself is :func:`expand_documents`; this function
    adds each document's original terms and builds the contextualized
    vocabulary and columns from the result.
    """
    documents = annotated.documents
    original = annotated.columns
    expansions = expand_documents(
        [annotated.important(document.doc_id) for document in documents],
        resources,
        original.interner,
    )
    context_terms: dict[str, list[str]] = {}
    expanded_rows: list[array] = []
    for index, (document, (merged, context_ids)) in enumerate(
        zip(documents, expansions, strict=True)
    ):
        context_terms[document.doc_id] = merged
        expanded = set(original.ids_of(index))
        expanded.update(context_ids)
        expanded_rows.append(array("i", sorted(expanded)))
    database = expanded_database(annotated, context_terms, expanded_rows)
    metrics = current_metrics()
    if metrics is not None:
        metrics.increment("contextualize.documents", len(documents))
        metrics.increment(
            "contextualize.context_terms",
            # order: summing ints is order-insensitive
            sum(len(terms) for terms in context_terms.values()),
        )
        metrics.gauge("contextualize.vocabulary_size", len(database.vocabulary))
    return database
