"""Sanderson-Croft subsumption hierarchies.

Sanderson & Croft (SIGIR'99): term ``x`` subsumes term ``y`` when

    P(x | y) >= threshold   and   P(y | x) < 1

estimated from document co-occurrence.  The hierarchy attaches each term
to its most specific subsumer; terms nobody subsumes become roots.  The
paper uses this algorithm both as the final hierarchy builder over the
selected facet terms and — without the expansion pipeline — as the
baseline of Figure 5.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

from ..errors import HierarchyError

#: The subsumption threshold from Sanderson & Croft.
DEFAULT_THRESHOLD = 0.8


@dataclass
class SubsumptionHierarchy:
    """Parent/children structure produced by the subsumption test."""

    parents: dict[str, str | None] = field(default_factory=dict)
    children: dict[str, list[str]] = field(default_factory=dict)

    @property
    def roots(self) -> list[str]:
        """Terms with no parent, sorted for determinism."""
        return sorted(t for t, p in self.parents.items() if p is None)

    def terms(self) -> list[str]:
        return list(self.parents)

    def parent(self, term: str) -> str | None:
        if term not in self.parents:
            raise HierarchyError(f"unknown term: {term!r}")
        return self.parents[term]

    def children_of(self, term: str) -> list[str]:
        return self.children.get(term, [])

    def depth(self, term: str) -> int:
        """0 for roots; follows parent pointers."""
        depth = 0
        current = self.parent(term)
        while current is not None:
            depth += 1
            current = self.parents.get(current)
        return depth

    def subtree(self, term: str) -> list[str]:
        """Pre-order subtree rooted at ``term`` (inclusive)."""
        result = [term]
        stack = list(reversed(self.children_of(term)))
        while stack:
            current = stack.pop()
            result.append(current)
            stack.extend(reversed(self.children_of(current)))
        return result


def build_subsumption_hierarchy(
    terms: list[str],
    doc_sets: dict[str, set[str]],
    threshold: float = DEFAULT_THRESHOLD,
    max_df_ratio: float | None = None,
    max_parent_df: int | None = None,
    edge_validator: Callable[[str, str], bool] | None = None,
) -> SubsumptionHierarchy:
    """Build the hierarchy for ``terms``.

    Parameters
    ----------
    terms:
        The vocabulary to organize.
    doc_sets:
        term -> set of document ids containing the term (in whichever
        database the caller wants co-occurrence measured: original for
        the baseline, contextualized for the real pipeline).
    threshold:
        ``P(x | y)`` cut-off (0.8 in Sanderson & Croft).
    max_df_ratio:
        When set, a parent may cover at most this many times the
        documents of its child.  Pure Sanderson-Croft (None) lets a
        near-universal term subsume every rare orphan, collapsing the
        forest into one tree; the facet builder passes a finite ratio,
        in the spirit of the grouping step of Dakka et al. (CIKM'05).
    max_parent_df:
        When set, terms covering more documents than this cannot act as
        parents (they trivially subsume everything) — they remain in
        the forest as roots.
    edge_validator:
        Optional independent-evidence check ``f(child, parent)``; when
        given, subsumption edges lacking evidence are rejected (see
        :class:`repro.core.evidence.LinkEvidence`).
    """
    if not 0 < threshold <= 1:
        raise HierarchyError(f"threshold must be in (0, 1], got {threshold}")
    if max_df_ratio is not None and max_df_ratio < 1:
        raise HierarchyError(f"max_df_ratio must be >= 1, got {max_df_ratio}")
    present = [t for t in terms if doc_sets.get(t)]
    hierarchy = SubsumptionHierarchy(
        parents={t: None for t in present},
        children={t: [] for t in present},
    )
    # For each term y, find subsumers x and keep the most specific one
    # (smallest document set strictly larger-than-or-equal coverage).
    for y in present:
        docs_y = doc_sets[y]
        best_parent: str | None = None
        best_df = None
        for x in present:
            if x == y:
                continue
            docs_x = doc_sets[x]
            if max_parent_df is not None and len(docs_x) > max_parent_df:
                continue
            shared = len(docs_x & docs_y)
            p_x_given_y = shared / len(docs_y)
            p_y_given_x = shared / len(docs_x)
            if max_df_ratio is not None and len(docs_x) > max_df_ratio * len(docs_y):
                continue
            if edge_validator is not None and not edge_validator(y, x):
                continue
            if p_x_given_y >= threshold and p_y_given_x < 1.0:
                if best_df is None or len(docs_x) < best_df:
                    best_parent = x
                    best_df = len(docs_x)
        if best_parent is not None and not _creates_cycle(
            hierarchy.parents, y, best_parent
        ):
            hierarchy.parents[y] = best_parent
            hierarchy.children[best_parent].append(y)
    # order: each child list is sorted in place; no cross-entry order leaks
    for kids in hierarchy.children.values():
        kids.sort()
    return hierarchy


def _creates_cycle(
    parents: dict[str, str | None], child: str, candidate_parent: str
) -> bool:
    """Would setting ``child.parent = candidate_parent`` form a cycle?"""
    current: str | None = candidate_parent
    while current is not None:
        if current == child:
            return True
        current = parents.get(current)
    return False
