"""Sanderson-Croft subsumption hierarchies.

Sanderson & Croft (SIGIR'99): term ``x`` subsumes term ``y`` when

    P(x | y) >= threshold   and   P(y | x) < 1

estimated from document co-occurrence, counted on ``int`` bitmaps over
document positions.  The hierarchy attaches each term to its most
specific subsumer; terms nobody subsumes become roots.  The paper uses
this algorithm both as the final hierarchy builder over the selected
facet terms and — without the expansion pipeline — as the baseline of
Figure 5.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Hashable, Sequence
from dataclasses import dataclass, field

from ..errors import HierarchyError

#: The subsumption threshold from Sanderson & Croft.
DEFAULT_THRESHOLD = 0.8


@dataclass
class SubsumptionHierarchy:
    """Parent/children structure produced by the subsumption test."""

    parents: dict[str, str | None] = field(default_factory=dict)
    children: dict[str, list[str]] = field(default_factory=dict)
    #: Work done by the pair loop that built it: ordered pairs whose
    #: co-occurrence was counted, and edge-validator calls.
    pair_tests: int = 0
    validator_calls: int = 0

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


def position_bitmap(positions: Sequence[int]) -> int:
    """An ``int`` with bit ``p`` set for each document position ``p``.

    Built in one pass over a byte buffer: or-ing bits into a growing
    ``int`` would copy it once per position.
    """
    if not positions:
        return 0
    mask = bytearray((max(positions) >> 3) + 1)
    for position in positions:
        mask[position >> 3] |= 1 << (position & 7)
    return int.from_bytes(mask, "little")


def build_subsumption_hierarchy(
    terms: list[str],
    doc_sets: dict[str, set[str]],
    threshold: float = DEFAULT_THRESHOLD,
    max_df_ratio: float | None = None,
    max_parent_df: int | None = None,
    edge_validator: Callable[[str, str], bool] | None = None,
) -> SubsumptionHierarchy:
    """Build the hierarchy for ``terms`` from document-id sets.

    ``doc_sets`` maps a term to the ids of the documents containing it
    (in whichever database the caller wants co-occurrence measured:
    original for the Figure 5 baseline).  The ids are numbered in
    first-seen order and the builder runs
    :func:`subsumption_from_bitmaps` over the resulting bitmaps; the
    other parameters are as there.
    """
    numbering: dict[Hashable, int] = {}
    bitmaps: dict[str, int] = {}
    for term in terms:
        docs = doc_sets.get(term)
        if docs and term not in bitmaps:
            bitmaps[term] = position_bitmap(
                [numbering.setdefault(doc, len(numbering)) for doc in docs]
            )
    return subsumption_from_bitmaps(
        terms,
        bitmaps,
        threshold=threshold,
        max_df_ratio=max_df_ratio,
        max_parent_df=max_parent_df,
        edge_validator=edge_validator,
    )


def subsumption_from_bitmaps(
    terms: list[str],
    bitmaps: dict[str, int],
    threshold: float = DEFAULT_THRESHOLD,
    max_df_ratio: float | None = None,
    max_parent_df: int | None = None,
    edge_validator: Callable[[str, str], bool] | None = None,
) -> SubsumptionHierarchy:
    """Build the hierarchy for ``terms`` — the one subsumption pair loop.

    Parameters
    ----------
    terms:
        The vocabulary to organize; terms without a bitmap (or with an
        empty one) are left out.
    bitmaps:
        term -> document bitmap: bit ``p`` is set when the document at
        position ``p`` contains the term (see :func:`position_bitmap`).
        A term's document frequency is its bitmap's ``bit_count()`` and
        a pair's co-occurrence count that of the two bitmaps' ``&``.
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
        :class:`repro.core.evidence.LinkEvidence`).  It must be pure: it
        is asked only about a pair that passes every numeric test and
        would become the child's parent.
    """
    if not 0 < threshold <= 1:
        raise HierarchyError(f"threshold must be in (0, 1], got {threshold}")
    if max_df_ratio is not None and max_df_ratio < 1:
        raise HierarchyError(f"max_df_ratio must be >= 1, got {max_df_ratio}")
    dfs: dict[str, int] = {t: bitmaps[t].bit_count() for t in terms if t in bitmaps}
    present = [t for t in terms if dfs.get(t)]
    hierarchy = SubsumptionHierarchy(
        parents={t: None for t in present},
        children={t: [] for t in present},
    )
    # Each term y takes the most specific subsumer x: the smallest
    # document frequency, the earlier term on a tie.  Scanning the
    # candidate parents in that order (a stable sort), the first pair
    # that passes every test is the answer.
    candidates = sorted(
        (
            (x, bitmaps[x], dfs[x])
            for x in dict.fromkeys(present)
            if max_parent_df is None or dfs[x] <= max_parent_df
        ),
        key=lambda candidate: candidate[2],
    )
    pair_tests = 0
    validator_calls = 0
    for y in present:
        bits_y = bitmaps[y]
        df_y = dfs[y]
        max_df = math.inf if max_df_ratio is None else max_df_ratio * df_y
        best_parent: str | None = None
        for x, bits_x, df_x in candidates:
            if df_x > max_df:
                break  # every later candidate covers even more documents
            if x == y:
                continue
            pair_tests += 1
            shared = (bits_x & bits_y).bit_count()
            if shared / df_y >= threshold and shared / df_x < 1.0:
                if edge_validator is not None:
                    validator_calls += 1
                    if not edge_validator(y, x):
                        continue
                best_parent = x
                break
        if best_parent is not None and not _creates_cycle(
            hierarchy.parents, y, best_parent
        ):
            hierarchy.parents[y] = best_parent
            hierarchy.children[best_parent].append(y)
    # order: each child list is sorted in place; no cross-entry order leaks
    for kids in hierarchy.children.values():
        kids.sort()
    hierarchy.pair_tests = pair_tests
    hierarchy.validator_calls = validator_calls
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
