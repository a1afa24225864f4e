"""The Wikipedia link graph as a context resource."""

from __future__ import annotations

from ..config import PAPER_WIKI_GRAPH_TOP_K
from ..wikipedia.graph import WikipediaGraph
from .base import ExternalResource, ResourceName


class WikipediaGraphResource(ExternalResource):
    """Top-k linked entries of the page a term resolves to.

    The derived context contains "both more general and more specific
    terms" (Section IV-B); the comparative frequency analysis downstream
    is what isolates the general ones.
    """

    name = ResourceName.WIKI_GRAPH

    def __init__(
        self, graph: WikipediaGraph, top_k: int = PAPER_WIKI_GRAPH_TOP_K
    ) -> None:
        super().__init__()
        if top_k <= 0:
            raise ValueError(f"top_k must be positive, got {top_k}")
        self._graph = graph
        self._top_k = top_k

    def _query(self, term: str) -> list[str]:
        return self.query_many([term])[0]

    def query_many(self, terms: list[str]) -> list[list[str]]:
        """Bulk lookup: one graph pass, shared per-page neighbour scoring.

        Terms resolving to the same page share one scored list (see
        :meth:`~repro.wikipedia.graph.WikipediaGraph.neighbours_many`),
        so the title projection also runs once per distinct list.
        """
        projected: dict[int, list[str]] = {}
        answers: list[list[str]] = []
        for neighbours in self._graph.neighbours_many(terms, k=self._top_k):
            titles = projected.get(id(neighbours))
            if titles is None:
                titles = projected[id(neighbours)] = [
                    n.title for n in neighbours
                ]
            answers.append(titles)
        return answers

    def cache_namespace(self) -> str:
        return f"WikipediaGraphResource(k={self._top_k})"
