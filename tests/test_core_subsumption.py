"""Tests for Sanderson-Croft subsumption and facet hierarchy building."""

from __future__ import annotations

import random
import zlib

import pytest

from repro.core.subsumption import (
    _creates_cycle,
    build_subsumption_hierarchy,
    position_bitmap,
)
from repro.errors import HierarchyError


def docs(*ids):
    return set(ids)


class TestSubsumption:
    def test_classic_subsumption(self):
        # "animal" appears in every doc that mentions "dog"; the reverse
        # does not hold -> animal subsumes dog.
        doc_sets = {
            "animal": docs(1, 2, 3, 4),
            "dog": docs(1, 2),
        }
        hierarchy = build_subsumption_hierarchy(["animal", "dog"], doc_sets)
        assert hierarchy.parent("dog") == "animal"
        assert hierarchy.parent("animal") is None

    def test_threshold_respected(self):
        doc_sets = {
            "animal": docs(1, 2, 3, 4),
            "dog": docs(1, 2, 5),  # P(animal|dog) = 2/3 < 0.8
        }
        hierarchy = build_subsumption_hierarchy(["animal", "dog"], doc_sets)
        assert hierarchy.parent("dog") is None

    def test_identical_sets_do_not_subsume(self):
        doc_sets = {"a": docs(1, 2), "b": docs(1, 2)}
        hierarchy = build_subsumption_hierarchy(["a", "b"], doc_sets)
        # P(y|x) < 1 fails in both directions.
        assert hierarchy.parent("a") is None
        assert hierarchy.parent("b") is None

    def test_most_specific_parent_chosen(self):
        doc_sets = {
            "animal": docs(1, 2, 3, 4, 5, 6),
            "canine": docs(1, 2, 3),
            "dog": docs(1, 2),
        }
        hierarchy = build_subsumption_hierarchy(
            ["animal", "canine", "dog"], doc_sets
        )
        assert hierarchy.parent("dog") == "canine"
        assert hierarchy.parent("canine") == "animal"

    def test_no_cycles(self):
        doc_sets = {
            "a": docs(1, 2, 3),
            "b": docs(1, 2, 3, 4),
            "c": docs(1, 2, 3, 4, 5),
        }
        hierarchy = build_subsumption_hierarchy(["a", "b", "c"], doc_sets)
        for term in hierarchy.terms():
            seen = set()
            current = term
            while current is not None:
                assert current not in seen
                seen.add(current)
                current = hierarchy.parents.get(current)

    def test_empty_doc_sets_dropped(self):
        hierarchy = build_subsumption_hierarchy(
            ["a", "b"], {"a": docs(1), "b": set()}
        )
        assert hierarchy.terms() == ["a"]

    def test_max_df_ratio_blocks_huge_parents(self):
        doc_sets = {
            "universal": set(range(100)),
            "rare": docs(1, 2),
        }
        free = build_subsumption_hierarchy(["universal", "rare"], doc_sets)
        assert free.parent("rare") == "universal"
        capped = build_subsumption_hierarchy(
            ["universal", "rare"], doc_sets, max_df_ratio=10
        )
        assert capped.parent("rare") is None

    def test_max_parent_df(self):
        doc_sets = {
            "universal": set(range(100)),
            "mid": set(range(40)),
        }
        hierarchy = build_subsumption_hierarchy(
            ["universal", "mid"], doc_sets, max_parent_df=50
        )
        assert hierarchy.parent("mid") is None

    def test_edge_validator(self):
        doc_sets = {"animal": docs(1, 2, 3, 4), "dog": docs(1, 2)}
        hierarchy = build_subsumption_hierarchy(
            ["animal", "dog"], doc_sets, edge_validator=lambda child, parent: False
        )
        assert hierarchy.parent("dog") is None

    def test_invalid_threshold(self):
        with pytest.raises(HierarchyError):
            build_subsumption_hierarchy([], {}, threshold=0)

    def test_invalid_ratio(self):
        with pytest.raises(HierarchyError):
            build_subsumption_hierarchy([], {}, max_df_ratio=0.5)


class TestHierarchyNavigation:
    @pytest.fixture()
    def hierarchy(self):
        doc_sets = {
            "animal": set(range(20)),
            "canine": set(range(8)),
            "dog": set(range(4)),
            "plant": set(range(20, 30)),
        }
        return build_subsumption_hierarchy(
            ["animal", "canine", "dog", "plant"], doc_sets
        )

    def test_roots(self, hierarchy):
        assert set(hierarchy.roots) == {"animal", "plant"}

    def test_depth(self, hierarchy):
        assert hierarchy.depth("animal") == 0
        assert hierarchy.depth("dog") == 2

    def test_subtree(self, hierarchy):
        assert hierarchy.subtree("animal") == ["animal", "canine", "dog"]

    def test_children(self, hierarchy):
        assert hierarchy.children_of("canine") == ["dog"]

    def test_unknown_term(self, hierarchy):
        with pytest.raises(HierarchyError):
            hierarchy.parent("fungus")


def reference_hierarchy(
    terms,
    doc_sets,
    threshold=0.8,
    max_df_ratio=None,
    max_parent_df=None,
    edge_validator=None,
):
    """The set-based pair loop the bitmap loop replaced, kept verbatim
    as the reference: ``(parents, children)``."""
    present = [t for t in terms if doc_sets.get(t)]
    parents = {t: None for t in present}
    children = {t: [] for t in present}
    for y in present:
        docs_y = doc_sets[y]
        best_parent = None
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
        if best_parent is not None and not _creates_cycle(parents, y, best_parent):
            parents[y] = best_parent
            children[best_parent].append(y)
    for kids in children.values():
        kids.sort()
    return parents, children


def passes_numeric_tests(child, parent, doc_sets, threshold, max_df_ratio, max_parent_df):
    docs_y, docs_x = doc_sets[child], doc_sets[parent]
    shared = len(docs_x & docs_y)
    return (
        (max_parent_df is None or len(docs_x) <= max_parent_df)
        and (max_df_ratio is None or len(docs_x) <= max_df_ratio * len(docs_y))
        and shared / len(docs_y) >= threshold
        and shared / len(docs_x) < 1.0
    )


def rejects_some(child, parent):
    """A deterministic validator that rejects about a third of the edges."""
    return zlib.crc32(f"{child}>{parent}".encode()) % 3 != 0


def random_doc_sets(seed):
    """Terms over 40 documents, many derived from shared bases by a
    one- or two-document change: equal-df pairs that subsume each other
    (the cycle guard), df ties among candidate parents, and a few broad
    terms for the ratio and coverage caps.  One term is empty and one
    has no entry at all."""
    rng = random.Random(seed)
    universe = [f"d{i:02d}" for i in range(40)]
    doc_sets = {}
    bases = [set(rng.sample(universe, rng.randint(3, 12))) for _ in range(4)]
    bases.append(set(rng.sample(universe, 36)))
    for b, base in enumerate(bases):
        doc_sets[f"b{b}"] = set(base)
        for v in range(rng.randint(2, 5)):
            variant = set(base)
            for _ in range(rng.randint(1, 2)):
                if variant and rng.random() < 0.5:
                    variant.discard(rng.choice(sorted(variant)))
                else:
                    variant.add(rng.choice(universe))
            doc_sets[f"b{b}v{v}"] = variant
    for r in range(rng.randint(3, 8)):
        doc_sets[f"r{r}"] = set(rng.sample(universe, rng.randint(1, 5)))
    doc_sets["empty"] = set()
    terms = list(doc_sets) + ["absent"]
    rng.shuffle(terms)
    return terms, doc_sets


class TestAgainstSetReference:
    """The bitmap pair loop against the set-based loop it replaced."""

    @pytest.mark.parametrize("seed", range(40))
    def test_same_forest(self, seed):
        terms, doc_sets = random_doc_sets(seed)
        rng = random.Random(1000 + seed)
        options = {
            "threshold": rng.choice([0.5, 0.8, 0.8, 1.0]),
            "max_df_ratio": rng.choice([None, 1.0, 2.5, 30.0]),
            "max_parent_df": rng.choice([None, 10, 30]),
            "edge_validator": rng.choice([None, rejects_some]),
        }
        hierarchy = build_subsumption_hierarchy(terms, doc_sets, **options)
        parents, children = reference_hierarchy(terms, doc_sets, **options)
        assert hierarchy.parents == parents
        assert hierarchy.children == children

    def test_the_fixtures_cover_every_case(self):
        """Across the seeds, the cycle guard fires, df ties among
        candidate parents occur, and each cap and the validator change
        some forest."""
        cycles = ties = ratio = coverage = validator = 0
        for seed in range(40):
            terms, doc_sets = random_doc_sets(seed)
            plain = reference_hierarchy(terms, doc_sets)
            present = [t for t in terms if doc_sets.get(t)]
            for y in present:
                subsumers = [
                    x
                    for x in present
                    if x != y and passes_numeric_tests(y, x, doc_sets, 0.8, None, None)
                ]
                dfs = sorted(len(doc_sets[x]) for x in subsumers)
                ties += len(dfs) > 1 and dfs[0] == dfs[1]
                cycles += any(
                    len(doc_sets[x]) == len(doc_sets[y])
                    and passes_numeric_tests(x, y, doc_sets, 0.8, None, None)
                    for x in subsumers
                )
            ratio += reference_hierarchy(terms, doc_sets, max_df_ratio=2.5) != plain
            coverage += reference_hierarchy(terms, doc_sets, max_parent_df=10) != plain
            validator += (
                reference_hierarchy(terms, doc_sets, edge_validator=rejects_some)
                != plain
            )
        assert min(cycles, ties, ratio, coverage, validator) > 0

    @pytest.mark.parametrize("seed", range(10))
    def test_validator_sees_only_numeric_winners(self, seed):
        terms, doc_sets = random_doc_sets(seed)
        options = {"threshold": 0.8, "max_df_ratio": 2.5, "max_parent_df": 30}
        calls = []

        def counting(child, parent):
            calls.append((child, parent))
            return rejects_some(child, parent)

        hierarchy = build_subsumption_hierarchy(
            terms, doc_sets, edge_validator=counting, **options
        )
        assert calls
        assert hierarchy.validator_calls == len(calls)
        for child, parent in calls:
            assert passes_numeric_tests(child, parent, doc_sets, **options)

    def test_duplicate_terms_match_the_reference(self):
        doc_sets = {"a": {1, 2, 3, 4, 5}, "b": {1, 2, 3, 4}, "c": {1, 2}}
        terms = ["b", "a", "b", "c", "a"]
        hierarchy = build_subsumption_hierarchy(terms, doc_sets)
        assert (hierarchy.parents, hierarchy.children) == reference_hierarchy(
            terms, doc_sets
        )


class TestPositionBitmap:
    def test_bits_and_counts(self):
        assert position_bitmap([]) == 0
        assert position_bitmap([0, 3, 9]) == 0b1000001001
        assert position_bitmap(range(100)).bit_count() == 100
        assert (position_bitmap([1, 8, 64]) & position_bitmap([8, 64, 65])).bit_count() == 2
