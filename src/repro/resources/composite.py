"""Union of several resources (the "All" rows of the paper's tables)."""

from __future__ import annotations

from ..text.interning import normalize_term
from .base import ExternalResource


class CompositeResource(ExternalResource):
    """Queries every member resource and unions the results."""

    def __init__(self, resources: list[ExternalResource]) -> None:
        super().__init__()
        if not resources:
            raise ValueError("CompositeResource needs at least one resource")
        self._resources = list(resources)
        self.name = resources[0].name  # placeholder; label() is canonical
        self.remote = any(resource.remote for resource in resources)

    def label(self) -> str:
        """Human-readable combination label."""
        return " + ".join(resource.name.value for resource in self._resources)

    @property
    def members(self) -> tuple[ExternalResource, ...]:
        return tuple(self._resources)

    def _query(self, term: str) -> list[str]:
        return self.query_many([term])[0]

    def query_many(self, terms: list[str]) -> list[list[str]]:
        """Bulk union: one batched pass per member resource.

        Each member answers the whole batch through its own engine
        (LRU, batched persistent reads, single-flight, bulk backend
        lookups); the per-term union keeps member order, then answer
        order, and the first surface form per normalized key.
        """
        member_answers = [
            resource.context_terms_many(terms) for resource in self._resources
        ]
        merged_all: list[list[str]] = []
        for index in range(len(terms)):
            merged: list[str] = []
            seen: set[str] = set()
            for answers in member_answers:
                for context_term in answers[index]:
                    key = normalize_term(context_term)
                    if key and key not in seen:
                        seen.add(key)
                        merged.append(context_term)
            merged_all.append(merged)
        return merged_all

    def cache_namespace(self) -> str:
        # The union depends on which members are combined (and on their
        # order); encode the member namespaces so different combinations
        # never share persistent entries.
        members = "+".join(r.cache_namespace() for r in self._resources)
        return f"CompositeResource({members})"

    def metric_label(self) -> str:
        # Members record under their own labels when the composite
        # queries them; the union itself records as "composite" so the
        # two never collide in the registry.
        return "composite"
