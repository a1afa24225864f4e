"""Wikipedia synonyms as a context resource."""

from __future__ import annotations

from ..text.interning import normalize_term
from ..wikipedia.synonyms import SynonymFinder
from .base import ExternalResource, ResourceName


class WikipediaSynonymsResource(ExternalResource):
    """Variations of the same term (redirects + scored anchors).

    Synonyms normalize surface variation — a story mentioning "Hillary
    R. Clinton" gains the canonical "Hillary Rodham Clinton" — but they
    are *not* generalizations, which is why this resource alone has the
    lowest recall in Tables II-IV while remaining fairly precise.
    """

    name = ResourceName.WIKI_SYNONYMS

    def __init__(self, finder: SynonymFinder) -> None:
        super().__init__()
        self._finder = finder

    def _query(self, term: str) -> list[str]:
        return self.query_many([term])[0]

    def query_many(self, terms: list[str]) -> list[list[str]]:
        """Bulk lookup: variants of one entry expand once per batch.

        Terms resolving to the same entry share one synonym group (see
        :meth:`~repro.wikipedia.synonyms.SynonymFinder.synonyms_many`),
        so each group's phrases are normalized once per batch and the
        per-term work is the self-exclusion filter alone.
        """
        normalized: dict[int, list[tuple[str, str]]] = {}
        answers: list[list[str]] = []
        for term, synonyms in zip(
            terms, self._finder.synonyms_many(terms), strict=True
        ):
            key = normalize_term(term)
            group = normalized.get(id(synonyms))
            if group is None:
                group = normalized[id(synonyms)] = [
                    (synonym.phrase, normalize_term(synonym.phrase))
                    for synonym in synonyms
                ]
            answers.append(
                [phrase for phrase, phrase_key in group if phrase_key != key]
            )
        return answers
