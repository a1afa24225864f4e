"""Dynamic faceting over query results (Section V-D deployment mode).

"We can generate facet hierarchies over the complete database and
dynamically over a set of lengthy query results": with term and context
extraction performed offline (the resources memoize per-term answers),
computing facets for a result set costs only the Figure 3 statistics and
a small subsumption run — "a few seconds and almost independent of the
collection size".

:class:`DynamicFaceter` holds the offline artifacts (annotated +
contextualized database for the whole collection) and derives facet
hierarchies for any subset of documents on demand.
"""

from __future__ import annotations

from .contextualize import ContextualizedDatabase, assemble_databases
from .hierarchy import FacetHierarchy, build_facet_hierarchies
from .selection import FacetTermCandidate, select_facet_terms


class DynamicFaceter:
    """Facets for arbitrary document subsets, from offline expansions."""

    def __init__(
        self,
        contextualized: ContextualizedDatabase,
        top_k: int = 60,
        edge_validator=None,
    ) -> None:
        if top_k <= 0:
            raise ValueError(f"top_k must be positive, got {top_k}")
        self._full = contextualized
        self._top_k = top_k
        self._edge_validator = edge_validator
        # Row i of both column sets is annotated.documents[i].
        self._positions = {
            doc.doc_id: position
            for position, doc in enumerate(contextualized.annotated.documents)
        }

    def _subset_database(self, doc_ids: list[str]) -> ContextualizedDatabase:
        """A contextualized database restricted to ``doc_ids``.

        Reuses the offline per-document id rows — no re-extraction and
        no resource queries happen here.  A repeated id counts once, in
        first-seen order: a result set is a set of documents.
        """
        full = self._full
        positions = [
            position
            for position in map(self._positions.get, dict.fromkeys(doc_ids))
            if position is not None
        ]
        documents = [full.annotated.documents[p] for p in positions]
        return assemble_databases(
            documents,
            {doc.doc_id: full.annotated.important(doc.doc_id) for doc in documents},
            {doc.doc_id: full.context(doc.doc_id) for doc in documents},
            full.columns.interner,
            [full.annotated.columns.ids_of(p) for p in positions],
            [full.columns.ids_of(p) for p in positions],
        )

    def facet_terms(self, doc_ids: list[str]) -> list[FacetTermCandidate]:
        """Facet terms for a result set (Figure 3 over the subset)."""
        subset = self._subset_database(doc_ids)
        if not subset.annotated.documents:
            return []
        return select_facet_terms(subset, top_k=self._top_k)

    def facets_for(self, doc_ids: list[str]) -> list[FacetHierarchy]:
        """Facet hierarchies for a result set."""
        subset = self._subset_database(doc_ids)
        if not subset.annotated.documents:
            return []
        candidates = select_facet_terms(subset, top_k=self._top_k)
        return build_facet_hierarchies(
            candidates, subset, edge_validator=self._edge_validator
        )

    def facets_for_query(
        self, interface, query: str, limit: int = 200
    ) -> list[FacetHierarchy]:
        """Convenience: facets over the results of a keyword query."""
        hits = interface.search(query, limit=limit)
        return self.facets_for([doc.doc_id for doc in hits])
