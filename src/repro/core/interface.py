"""The OLAP-style faceted browsing interface.

"A faceted interface can be perceived as an OLAP-style cube over the
text documents" (Section I).  This layer combines the extracted facet
hierarchies with keyword search: users drill down facet nodes (slice),
combine constraints across facets (dice), and intersect with BM25
keyword results — the interaction pattern measured in the user study
(Section V-E).

Two implementations share this query surface:

* :class:`FacetedInterface` (here) answers from in-memory objects —
  the right backend inside a pipeline run or a notebook;
* :class:`repro.serving.FacetIndex` answers the same queries from a
  read-only SQLite artifact built once with ``FacetIndex.build`` and
  opened in O(1), which is what the HTTP service serves from.

Both return identical values for identical queries (certified by the
artifact round-trip tests), so callers can swap backends freely.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..corpus.document import Document
from ..db.inverted_index import InvertedIndex
from ..db.search import BM25Searcher
from ..db.store import DocumentStore
from ..errors import HierarchyError
from ..text.tokenizer import normalize_term
from .hierarchy import FacetHierarchy, FacetNode

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .pipeline import FacetExtractionResult


@dataclass(frozen=True)
class FacetCount:
    """A facet node with its document count and tree depth (for display)."""

    term: str
    count: int
    depth: int


class FacetedInterface:
    """Browse a document collection through extracted facet hierarchies.

    Construction is keyword-only: ``FacetedInterface(store=..., facets=...)``
    with an optional prebuilt inverted ``index`` (built from the store's
    documents when omitted).  For the common cases use
    :meth:`from_result` (wrap a pipeline run) or
    :meth:`repro.serving.FacetIndex.open` (serve a prebuilt artifact).
    """

    def __init__(
        self,
        *,
        store: DocumentStore,
        facets: list[FacetHierarchy],
        index: InvertedIndex | None = None,
    ) -> None:
        self._store = store
        self._facets = list(facets)
        if index is None:
            index = InvertedIndex()
            index.add_documents(list(store))
        self._index = index
        self._searcher = BM25Searcher(index)
        self._nodes: dict[str, FacetNode] = {}
        self._depths: dict[str, int] = {}
        for facet in self._facets:
            for node, depth in _walk_with_depth(facet.root):
                key = normalize_term(node.term)
                if key not in self._nodes:
                    self._nodes[key] = node
                    self._depths[key] = depth

    @classmethod
    def from_result(
        cls,
        result: "FacetExtractionResult",
        *,
        store: DocumentStore | None = None,
    ) -> "FacetedInterface":
        """The in-memory interface over a pipeline run.

        Reuses, in order of preference: an explicitly passed store, the
        store the run was fed from (``result.store``), or a store built
        on first call and cached on the result — repeated calls never
        silently rebuild document storage or the inverted index.
        """
        if store is None:
            store = result.store
        if store is None:
            if result._built_store is None:
                result._built_store = DocumentStore(result.documents)
            store = result._built_store
        if result._built_index is None:
            index = InvertedIndex()
            index.add_documents(result.documents)
            result._built_index = index
        return cls(store=store, facets=result.hierarchies, index=result._built_index)

    # -- facet navigation --------------------------------------------------------

    @property
    def facets(self) -> list[FacetHierarchy]:
        """The top-level facets."""
        return list(self._facets)

    def facet_names(self) -> list[str]:
        return [facet.name for facet in self._facets]

    def node(self, term: str) -> FacetNode:
        """Locate a facet node by term."""
        node = self._nodes.get(normalize_term(term))
        if node is None:
            raise HierarchyError(f"no facet node for term: {term!r}")
        return node

    def has_node(self, term: str) -> bool:
        return normalize_term(term) in self._nodes

    def depth(self, term: str) -> int:
        """Tree depth of a facet node (roots are depth 0)."""
        key = normalize_term(term)
        if key not in self._depths:
            raise HierarchyError(f"no facet node for term: {term!r}")
        return self._depths[key]

    def children(self, term: str) -> list[FacetCount]:
        """Child nodes of a facet node, with counts (drill-down view)."""
        node = self.node(term)
        child_depth = self.depth(term) + 1
        return [
            FacetCount(child.term, child.count, depth=child_depth)
            for child in node.children
        ]

    def top_level_counts(self) -> list[FacetCount]:
        """The facet roots with document counts (the sidebar view)."""
        return [
            FacetCount(facet.root.term, facet.root.count, depth=0)
            for facet in self._facets
        ]

    # -- documents ----------------------------------------------------------------

    @property
    def document_count(self) -> int:
        """Number of documents in the collection."""
        return len(self._store)

    def document(self, doc_id: str) -> Document:
        """Fetch one document by id (:class:`StorageError` when unknown)."""
        return self._store.get(doc_id)

    def documents(self, doc_ids: list[str]) -> list[Document]:
        """Fetch documents by id, in the given order (:class:`StorageError`
        on an unknown id)."""
        return [self._store.get(doc_id) for doc_id in doc_ids]

    # -- OLAP-style selection ------------------------------------------------------

    def slice(self, term: str) -> list[Document]:
        """Documents under one facet node."""
        return self.documents(sorted(self.node(term).doc_ids))

    def dice_ids(self, terms: list[str]) -> list[str]:
        """Ids of the documents satisfying *all* facet constraints: sorted,
        or every id in collection order when ``terms`` is empty."""
        if not terms:
            return [doc.doc_id for doc in self._store]
        doc_ids: set[str] | None = None
        for term in terms:
            node_docs = self.node(term).doc_ids
            doc_ids = node_docs.copy() if doc_ids is None else doc_ids & node_docs
        return sorted(doc_ids or set())

    def dice(self, terms: list[str]) -> list[Document]:
        """Documents satisfying *all* facet constraints (cube dice)."""
        return self.documents(self.dice_ids(terms))

    def union(self, terms: list[str]) -> list[Document]:
        """Documents under *any* of the facet nodes (multi-select within
        a facet, e.g. "France or Germany")."""
        doc_ids: set[str] = set()
        for term in terms:
            doc_ids |= self.node(term).doc_ids
        return self.documents(sorted(doc_ids))

    def breadcrumb(self, term: str) -> list[str]:
        """Root-to-node trail of a facet node (for display)."""
        key = normalize_term(term)
        for facet in self._facets:
            trail: list[str] = []

            def descend(node: FacetNode, path: list[str]) -> list[str] | None:
                current = path + [node.term]
                if normalize_term(node.term) == key:
                    return current
                for child in node.children:
                    found = descend(child, current)
                    if found:
                        return found
                return None

            found = descend(facet.root, trail)
            if found:
                return found
        raise HierarchyError(f"no facet node for term: {term!r}")

    # -- search integration -------------------------------------------------------------

    def search(self, query: str, limit: int = 10) -> list[Document]:
        """Plain BM25 keyword search."""
        return self.documents(
            [result.doc_id for result in self._searcher.search(query, limit=limit)]
        )

    def search_with_facets(
        self, query: str, facet_terms: list[str], limit: int = 10
    ) -> list[Document]:
        """Keyword search restricted to documents matching facet constraints."""
        allowed = set(self.dice_ids(facet_terms)) if facet_terms else None
        hits: list[str] = []
        for result in self._searcher.search(query, limit=limit * 10):
            if allowed is None or result.doc_id in allowed:
                hits.append(result.doc_id)
                if len(hits) >= limit:
                    break
        return self.documents(hits)

    def facet_counts_for(
        self, doc_ids: set[str], max_facets: int = 10
    ) -> list[FacetCount]:
        """Per-facet counts restricted to a result set (dynamic faceting
        over lengthy query results, as the paper proposes)."""
        counts = []
        for facet in self._facets:
            overlap = len(facet.root.doc_ids & doc_ids)
            if overlap:
                counts.append(FacetCount(facet.root.term, overlap, depth=0))
        counts.sort(key=lambda fc: (-fc.count, fc.term))
        return counts[:max_facets]


def _walk_with_depth(root: FacetNode, depth: int = 0):
    """Pre-order traversal yielding ``(node, depth)`` pairs."""
    yield root, depth
    for child in root.children:
        yield from _walk_with_depth(child, depth + 1)
