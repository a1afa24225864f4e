"""WordNet hypernyms as a context resource."""

from __future__ import annotations

from ..wordnet.hypernyms import HypernymLookup
from .base import ExternalResource, ResourceName


class WordNetHypernymResource(ExternalResource):
    """Hypernym chains of a term.

    High precision ("hypernyms naturally form a hierarchy") but low
    recall on named entities and noun phrases, which the lexicon does
    not cover — exactly the profile the paper reports.
    """

    name = ResourceName.WORDNET

    def __init__(self, lookup: HypernymLookup, max_depth: int | None = None) -> None:
        super().__init__()
        self._lookup = lookup
        self._max_depth = max_depth

    def _query(self, term: str) -> list[str]:
        return self.query_many([term])[0]

    def query_many(self, terms: list[str]) -> list[list[str]]:
        """Bulk lookup: hypernym chains are climbed once per batch."""
        return self._lookup.hypernyms_many(terms, max_depth=self._max_depth)
