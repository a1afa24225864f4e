"""Domain-specific vocabularies as resources (Section VII of the paper).

The paper's discussion: "the Taxonomy Warehouse by Dow Jones contains a
large list of controlled vocabularies and specialized taxonomies that
can be used for term identification and term expansion ... when browsing
literature for financial topics, we can use one of the available
glossaries to identify financial terms in the documents; then we can
expand the identified terms using one (or more) of the available
financial ontologies."

:class:`DomainGlossary` is such a controlled vocabulary: a set of domain
terms, each mapped to broader domain concepts.  It plays both roles the
paper describes:

* **term identification** — :class:`DomainTermExtractor` marks glossary
  terms appearing in a document as important;
* **term expansion** — :class:`DomainVocabularyResource` returns the
  broader concepts for a glossary term.

A small built-in financial glossary (:func:`financial_glossary`) matches
the paper's worked example; callers can load their own via
:meth:`DomainGlossary.from_entries`.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..corpus.document import Document
from ..extractors.base import TermExtractor
from ..text.interning import normalize_term, tokenize
from .base import ExternalResource, ResourceName


@dataclass(frozen=True)
class GlossaryEntry:
    """One controlled-vocabulary entry."""

    term: str
    broader: tuple[str, ...] = ()
    synonyms: tuple[str, ...] = ()


class DomainGlossary:
    """A controlled vocabulary with broader-concept links."""

    def __init__(self, name: str, entries: list[GlossaryEntry]) -> None:
        if not name:
            raise ValueError("glossary name must be non-empty")
        self.name = name
        self._entries: dict[str, GlossaryEntry] = {}
        for entry in entries:
            for surface in (entry.term, *entry.synonyms):
                self._entries.setdefault(normalize_term(surface), entry)

    @classmethod
    def from_entries(
        cls, name: str, table: dict[str, list[str]]
    ) -> "DomainGlossary":
        """Build from a simple ``{term: [broader concepts]}`` mapping."""
        return cls(
            name,
            [GlossaryEntry(term=t, broader=tuple(b)) for t, b in table.items()],
        )

    def lookup(self, term: str) -> GlossaryEntry | None:
        """Entry for a surface form, or None."""
        return self._entries.get(normalize_term(term))

    def __contains__(self, term: str) -> bool:
        return normalize_term(term) in self._entries

    def __len__(self) -> int:
        return len({id(e) for e in self._entries.values()})

    def surfaces(self) -> tuple[str, ...]:
        return tuple(self._entries)


class DomainTermExtractor(TermExtractor):
    """Marks glossary terms appearing in a document as important.

    Multi-word glossary terms are matched longest-first, mirroring the
    Wikipedia title extractor.  Glossary matching needs no corpus
    statistics, so the inherited no-op ``use_background`` stands.
    """

    name = None  # not one of the paper's three named extractors

    def __init__(self, glossary: DomainGlossary, max_words: int = 4) -> None:
        self._glossary = glossary
        self._max_words = max_words

    def extract(self, document: Document) -> list[str]:
        words = [t.text for t in tokenize(document.text)]
        found: list[str] = []
        seen: set[str] = set()
        i = 0
        while i < len(words):
            matched = False
            for n in range(min(self._max_words, len(words) - i), 0, -1):
                surface = " ".join(words[i : i + n])
                if surface in self._glossary:
                    key = normalize_term(surface)
                    if key not in seen:
                        seen.add(key)
                        found.append(surface)
                    i += n
                    matched = True
                    break
            if not matched:
                i += 1
        return found


class DomainVocabularyResource(ExternalResource):
    """Expansion through a domain ontology (broader concepts)."""

    name = ResourceName.WORDNET  # closest behavioural profile

    def __init__(self, glossary: DomainGlossary) -> None:
        super().__init__()
        self._glossary = glossary

    def _query(self, term: str) -> list[str]:
        entry = self._glossary.lookup(term)
        if entry is None:
            return []
        return list(entry.broader)


def financial_glossary() -> DomainGlossary:
    """The paper's worked example: a small financial vocabulary."""
    return DomainGlossary.from_entries(
        "financial",
        {
            "mortgage": ["consumer credit", "real estate finance"],
            "dividend": ["shareholder returns", "equity markets"],
            "bond": ["fixed income", "debt markets"],
            "merger": ["corporate transactions", "business"],
            "acquisition": ["corporate transactions", "business"],
            "earnings": ["corporate performance", "equity markets"],
            "inflation": ["monetary policy", "macroeconomics"],
            "interest rates": ["monetary policy", "macroeconomics"],
            "hedge fund": ["asset management", "financial firms"],
            "due diligence": ["corporate transactions"],
            "initial public offering": ["equity markets", "capital raising"],
            "balance sheet": ["corporate performance", "accounting"],
            "stock market": ["equity markets", "financial markets"],
            "portfolio": ["asset management"],
            "bankruptcy": ["corporate distress", "business"],
        },
    )
