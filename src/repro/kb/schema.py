"""Dataclasses shared by the knowledge-base subpackage."""

from __future__ import annotations

import enum
from dataclasses import dataclass

from ..errors import KnowledgeBaseError

#: A facet path is the sequence of facet terms from a root facet down to a
#: leaf, e.g. ``("People", "Leaders", "Political Leaders")``.
FacetPath = tuple[str, ...]


class EntityKind(enum.Enum):
    """Coarse entity types, mirroring standard NER categories."""

    PERSON = "person"
    ORGANIZATION = "organization"
    LOCATION = "location"
    EVENT = "event"
    CONCEPT = "concept"


@dataclass(frozen=True)
class Entity:
    """A world entity.

    Parameters
    ----------
    name:
        Canonical name, which is also the simulated Wikipedia page title.
    kind:
        Coarse type used by the named-entity tagger gazetteer.
    variants:
        Alternate surface forms (the simulated Wikipedia redirects), e.g.
        ``("Hillary Clinton", "Hillary R. Clinton")`` for the canonical
        "Hillary Rodham Clinton".
    facet_paths:
        Ground-truth facet paths this entity belongs to.  Terms on these
        paths are the facet terms a human annotator would assign to a story
        about this entity.
    related_terms:
        Terms associated with the entity but not on its facet paths
        ("President of France" for Jacques Chirac).  These populate the
        simulated Wikipedia links and Google snippets.
    description_words:
        Common-noun vocabulary used by the article generator when the
        entity is mentioned ("president", "summit", ...).
    prominence:
        Relative sampling weight in the article generator (>= 0).
    """

    name: str
    kind: EntityKind
    variants: tuple[str, ...] = ()
    facet_paths: tuple[FacetPath, ...] = ()
    related_terms: tuple[str, ...] = ()
    description_words: tuple[str, ...] = ()
    prominence: float = 1.0

    def __post_init__(self) -> None:
        if not self.name:
            raise KnowledgeBaseError("entity name must be non-empty")
        if self.prominence < 0:
            raise KnowledgeBaseError(
                f"prominence must be >= 0 for {self.name!r}, got {self.prominence}"
            )

    @property
    def all_names(self) -> tuple[str, ...]:
        """Canonical name followed by all variants."""
        return (self.name, *self.variants)

    @property
    def facet_terms(self) -> tuple[str, ...]:
        """All facet terms on this entity's paths, most general first."""
        seen: dict[str, None] = {}
        for path in self.facet_paths:
            for term in path:
                seen.setdefault(term, None)
        return tuple(seen)


@dataclass(frozen=True)
class Topic:
    """A newsroom subject area used by the article generator.

    Parameters
    ----------
    name:
        Short identifier, e.g. ``"elections"``.
    facet_terms:
        Facet terms implied by stories on this topic (must exist in the
        taxonomy); annotators assign these to the story's gold set.
    vocabulary:
        Content words characteristic of the topic.
    entity_kinds:
        Entity kinds that stories on this topic involve; the generator
        samples entities matching these kinds and facet hints.
    facet_hints:
        Facet terms an involved entity should fall under (e.g. the
        "elections" topic involves entities under "Political Leaders").
    weight:
        Relative probability of the topic in the simulated news mix.
    """

    name: str
    facet_terms: tuple[str, ...]
    vocabulary: tuple[str, ...]
    entity_kinds: tuple[EntityKind, ...]
    facet_hints: tuple[str, ...] = ()
    weight: float = 1.0

    def __post_init__(self) -> None:
        if not self.name:
            raise KnowledgeBaseError("topic name must be non-empty")
        if not self.vocabulary:
            raise KnowledgeBaseError(f"topic {self.name!r} needs vocabulary")
        if self.weight <= 0:
            raise KnowledgeBaseError(
                f"topic weight must be positive for {self.name!r}"
            )
