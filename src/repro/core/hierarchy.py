"""Facet hierarchy construction over the selected facet terms.

The selected terms are organized with Sanderson-Croft subsumption over
co-occurrence in the *contextualized* database; each root of the
resulting forest becomes one browsing facet, and every node is populated
with the documents whose expanded term set contains the node's term —
the OLAP-style structure the user study browses.

Both pipelines read those documents from positional postings (term id
-> ascending document positions, :class:`PositionalPostings`): the
batch pipeline inverts its contextualized columns for the selected
terms, the stream keeps its postings current per batch.  Each term's
positions become one ``int`` bitmap for the subsumption pair loop;
document-id sets are built only for the nodes the forest emits.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Mapping, Sequence
from dataclasses import dataclass, field
from typing import Protocol

from ..errors import HierarchyError
from ..observability.context import current_metrics
from ..text.tokenizer import normalize_term
from ..text.vocabulary import TermInterner
from .contextualize import ContextualizedDatabase
from .selection import FacetTermCandidate
from .subsumption import (
    SubsumptionHierarchy,
    position_bitmap,
    subsumption_from_bitmaps,
)


@dataclass
class FacetNode:
    """One node of a facet hierarchy."""

    term: str
    children: list["FacetNode"] = field(default_factory=list)
    doc_ids: set[str] = field(default_factory=set)

    @property
    def count(self) -> int:
        """Number of documents at this node (inclusive of descendants)."""
        return len(self.doc_ids)

    def walk(self):
        """Pre-order traversal."""
        yield self
        for child in self.children:
            yield from child.walk()

    def find(self, term: str) -> "FacetNode | None":
        """Locate a descendant node by (normalized) term."""
        key = normalize_term(term)
        for node in self.walk():
            if normalize_term(node.term) == key:
                return node
        return None


@dataclass
class FacetHierarchy:
    """One facet: a named root plus its tree."""

    root: FacetNode

    @property
    def name(self) -> str:
        return self.root.term

    @property
    def size(self) -> int:
        """Number of nodes in the facet tree."""
        return sum(1 for _ in self.root.walk())

    def terms(self) -> list[str]:
        return [node.term for node in self.root.walk()]


#: Default parent/child coverage ratio cap for facet trees (see
#: :func:`repro.core.subsumption.subsumption_from_bitmaps`).
DEFAULT_MAX_DF_RATIO = 30.0

#: Terms covering more than this fraction of the collection cannot act
#: as hierarchy *parents*: a facet node matching nearly every document
#: would trivially adopt every orphan term under subsumption,
#: collapsing the forest into one tree.  Such terms stay in the forest
#: as stand-alone roots.
DEFAULT_MAX_COVERAGE = 0.75


class PositionalPostings(Protocol):
    """The hierarchy stage's one input: per term id, the ascending
    positions of the documents whose expanded term set holds it (ids
    without documents may be absent).

    :class:`~repro.core.columnar.DocumentColumns` (the batch
    contextualized columns) inverts its rows on demand;
    :class:`~repro.incremental.state.IncrementalState` keeps its
    postings current as documents arrive.
    """

    interner: TermInterner

    @property
    def doc_ids(self) -> Sequence[str]: ...  # the document id at each position

    def postings(self, term_ids: Iterable[int]) -> Mapping[int, Sequence[int]]: ...


def hierarchies_from_postings(
    candidates: list[FacetTermCandidate],
    index: PositionalPostings,
    threshold: float = 0.8,
    min_docs: int = 1,
    max_df_ratio: float | None = DEFAULT_MAX_DF_RATIO,
    max_coverage: float = DEFAULT_MAX_COVERAGE,
    edge_validator: Callable[[str, str], bool] | None = None,
) -> list[FacetHierarchy]:
    """Group facet terms into per-facet trees and populate them.

    The one entry of the hierarchy stage: the batch pipeline passes its
    contextualized columns, the stream its maintained state, and both
    run this exact code, so the trees cannot diverge.

    Parameters
    ----------
    candidates:
        Output of :func:`repro.core.selection.select_facet_terms`.
    index:
        Positional postings over the contextualized database
        (co-occurrence source and document population).
    threshold:
        Subsumption threshold.
    min_docs:
        Nodes covering fewer documents are dropped.
    """
    if min_docs < 1:
        raise HierarchyError(f"min_docs must be >= 1, got {min_docs}")
    if not 0 < max_coverage <= 1:
        raise HierarchyError(f"max_coverage must be in (0, 1], got {max_coverage}")
    terms = [normalize_term(c.term) for c in candidates]
    term_ids = [index.interner.id_of(term) for term in terms]
    postings = index.postings({i for i in term_ids if i is not None})
    doc_ids = index.doc_ids
    positions: dict[str, Sequence[int]] = {}
    bitmaps: dict[str, int] = {}
    for term, term_id in zip(terms, term_ids):
        posting = postings.get(term_id, ()) if term_id is not None else ()
        bits = position_bitmap(posting)
        if bits.bit_count() >= min_docs:
            positions[term] = posting
            bitmaps[term] = bits
    max_parent_df = int(max_coverage * max(len(doc_ids), 1))
    usable = [t for t in terms if t in bitmaps]
    subsumption = subsumption_from_bitmaps(
        usable,
        bitmaps,
        threshold=threshold,
        max_df_ratio=max_df_ratio,
        max_parent_df=max_parent_df,
        edge_validator=edge_validator,
    )
    doc_sets = {
        term: {doc_ids[position] for position in positions[term]}
        for term in subsumption.parents
    }
    hierarchies = hierarchies_from_subsumption(subsumption, doc_sets)
    metrics = current_metrics()
    if metrics is not None:
        metrics.increment("hierarchy.candidate_terms", len(terms))
        metrics.increment("hierarchy.usable_terms", len(usable))
        metrics.increment("hierarchy.pair_tests", subsumption.pair_tests)
        metrics.increment("hierarchy.validator_calls", subsumption.validator_calls)
        metrics.increment("hierarchy.facets", len(hierarchies))
        metrics.increment(
            "hierarchy.nodes", sum(facet.size for facet in hierarchies)
        )
    return hierarchies


def build_facet_hierarchies(
    candidates: list[FacetTermCandidate],
    database: ContextualizedDatabase,
    **options,
) -> list[FacetHierarchy]:
    """:func:`hierarchies_from_postings` over a contextualized database's
    columns (``options`` as there)."""
    return hierarchies_from_postings(candidates, database.columns, **options)


def hierarchies_from_subsumption(
    subsumption: SubsumptionHierarchy,
    doc_sets: dict[str, set[str]],
) -> list[FacetHierarchy]:
    """Materialize :class:`FacetHierarchy` trees from a subsumption forest."""

    def build_node(term: str) -> FacetNode:
        node = FacetNode(term=term, doc_ids=set(doc_sets.get(term, set())))
        for child_term in subsumption.children_of(term):
            child = build_node(child_term)
            node.children.append(child)
            node.doc_ids.update(child.doc_ids)
        node.children.sort(key=lambda n: (-n.count, n.term))
        return node

    facets = [FacetHierarchy(root=build_node(root)) for root in subsumption.roots]
    facets.sort(key=lambda f: (-f.root.count, f.name))
    return facets
