"""Tests for the simulated Wikipedia: database, graph, synonyms, titles."""

from __future__ import annotations

import math

import pytest

from repro.errors import StorageError
from repro.wikipedia.database import WikipediaDatabase
from repro.wikipedia.graph import WikipediaGraph
from repro.wikipedia.model import WikiPage
from repro.wikipedia.synonyms import SynonymFinder
from repro.wikipedia.titles import TitleMatcher


@pytest.fixture()
def tiny_wiki():
    db = WikipediaDatabase()
    db.add_page(WikiPage("France", links=("Europe", "Paris")))
    db.add_page(WikiPage("Europe", links=("France", "Germany")))
    db.add_page(WikiPage("Germany", links=("Europe",)))
    db.add_page(WikiPage("Paris", links=("France",)))
    db.add_page(WikiPage("Hillary Rodham Clinton", links=("Political Leaders",)))
    db.add_page(WikiPage("Political Leaders", links=()))
    db.add_redirect("Hillary Clinton", "Hillary Rodham Clinton")
    db.add_redirect("Hillary R. Clinton", "Hillary Rodham Clinton")
    db.add_anchor("Hillary Clinton", "Hillary Rodham Clinton", count=5)
    db.add_anchor("Senator Clinton", "Hillary Rodham Clinton", count=1)
    db.add_anchor("the city", "Paris", count=1)
    db.add_anchor("the city", "France", count=1)
    return db


class TestDatabase:
    def test_page_lookup(self, tiny_wiki):
        assert tiny_wiki.page("France").title == "France"

    def test_page_via_redirect(self, tiny_wiki):
        page = tiny_wiki.page("Hillary Clinton")
        assert page.title == "Hillary Rodham Clinton"

    def test_resolve_case_insensitive(self, tiny_wiki):
        assert tiny_wiki.resolve("france") == "France"
        assert tiny_wiki.resolve("HILLARY R. CLINTON") == "Hillary Rodham Clinton"

    def test_resolve_unknown(self, tiny_wiki):
        assert tiny_wiki.resolve("Atlantis") is None

    def test_duplicate_title_rejected(self, tiny_wiki):
        with pytest.raises(StorageError):
            tiny_wiki.add_page(WikiPage("France"))

    def test_degrees(self, tiny_wiki):
        assert tiny_wiki.out_degree("France") == 2
        assert tiny_wiki.in_degree("Europe") == 2
        assert tiny_wiki.in_degree("Political Leaders") == 1

    def test_redirect_group(self, tiny_wiki):
        group = tiny_wiki.redirect_group("Hillary Rodham Clinton")
        assert "Hillary Clinton" in group
        assert "Hillary R. Clinton" in group

    def test_anchor_scoring(self, tiny_wiki):
        stats = tiny_wiki.anchor_stats("the city")
        assert stats.spread == 2
        assert stats.score("Paris") == pytest.approx(0.5)
        dedicated = tiny_wiki.anchor_stats("Senator Clinton")
        assert dedicated.score("Hillary Rodham Clinton") == pytest.approx(1.0)


class TestGraph:
    def test_association_formula(self, tiny_wiki):
        graph = WikipediaGraph(tiny_wiki)
        n = tiny_wiki.page_count
        expected = math.log(n / tiny_wiki.in_degree("Europe")) / tiny_wiki.out_degree(
            "France"
        )
        assert graph.association("France", "Europe") == pytest.approx(expected)

    def test_association_asymmetric(self, tiny_wiki):
        graph = WikipediaGraph(tiny_wiki)
        assert graph.association("France", "Paris") != graph.association(
            "Paris", "France"
        )

    def test_association_missing_link(self, tiny_wiki):
        graph = WikipediaGraph(tiny_wiki)
        assert graph.association("Paris", "Germany") == 0.0

    def test_neighbours_ranked(self, tiny_wiki):
        graph = WikipediaGraph(tiny_wiki)
        neighbours = graph.neighbours("France", k=10)
        assert [n.title for n in neighbours][:2] == sorted(
            ["Europe", "Paris"],
            key=lambda t: -graph.association("France", t),
        )

    def test_neighbours_top_k(self, tiny_wiki):
        graph = WikipediaGraph(tiny_wiki)
        assert len(graph.neighbours("France", k=1)) == 1

    def test_neighbours_via_redirect(self, tiny_wiki):
        graph = WikipediaGraph(tiny_wiki)
        titles = [n.title for n in graph.neighbours("Hillary Clinton", k=5)]
        assert "Political Leaders" in titles

    def test_neighbours_unknown_term(self, tiny_wiki):
        assert WikipediaGraph(tiny_wiki).neighbours("Atlantis") == []

    def test_invalid_k(self, tiny_wiki):
        with pytest.raises(ValueError):
            WikipediaGraph(tiny_wiki).neighbours("France", k=0)


class TestSynonyms:
    def test_redirect_synonyms(self, tiny_wiki):
        finder = SynonymFinder(tiny_wiki)
        phrases = [s.phrase for s in finder.synonyms("Hillary Rodham Clinton")]
        assert "Hillary Clinton" in phrases
        assert "Hillary R. Clinton" in phrases

    def test_query_by_variant_includes_canonical(self, tiny_wiki):
        finder = SynonymFinder(tiny_wiki)
        phrases = [s.phrase for s in finder.synonyms("Hillary Clinton")]
        assert "Hillary Rodham Clinton" in phrases

    def test_anchor_synonym_above_threshold(self, tiny_wiki):
        finder = SynonymFinder(tiny_wiki)
        phrases = [s.phrase for s in finder.synonyms("Hillary Rodham Clinton")]
        assert "senator clinton" in phrases

    def test_ambiguous_anchor_filtered(self, tiny_wiki):
        finder = SynonymFinder(tiny_wiki, anchor_threshold=0.6)
        phrases = [s.phrase for s in finder.synonyms("Paris")]
        assert "the city" not in phrases  # score 0.5 < 0.6

    def test_unknown_term(self, tiny_wiki):
        assert SynonymFinder(tiny_wiki).synonyms("Atlantis") == []

    def test_invalid_threshold(self, tiny_wiki):
        with pytest.raises(ValueError):
            SynonymFinder(tiny_wiki, anchor_threshold=2.0)

    def test_provenance_labels(self, tiny_wiki):
        finder = SynonymFinder(tiny_wiki)
        by_source = {s.phrase: s.source for s in finder.synonyms("Hillary Clinton")}
        assert by_source["Hillary Rodham Clinton"] == "title"
        assert by_source["Hillary R. Clinton"] == "redirect"


class TestTitleMatcher:
    def test_longest_match_wins(self, tiny_wiki):
        matcher = TitleMatcher(tiny_wiki)
        matches = matcher.matches("Hillary Rodham Clinton arrived")
        assert matches[0].title == "Hillary Rodham Clinton"
        assert matches[0].surface == "Hillary Rodham Clinton"

    def test_redirect_surface_resolves(self, tiny_wiki):
        matcher = TitleMatcher(tiny_wiki)
        matches = matcher.matches("Hillary Clinton arrived in France")
        titles = [m.title for m in matches]
        assert "Hillary Rodham Clinton" in titles
        assert "France" in titles

    def test_no_overlapping_matches(self, tiny_wiki):
        matcher = TitleMatcher(tiny_wiki)
        matches = matcher.matches("Hillary Rodham Clinton")
        assert len(matches) == 1

    def test_lowercase_single_word_skipped(self, tiny_wiki):
        matcher = TitleMatcher(tiny_wiki)
        assert matcher.match_titles("the france of old") == []

    def test_capitalized_single_word_matches(self, tiny_wiki):
        matcher = TitleMatcher(tiny_wiki)
        assert matcher.match_titles("Visiting France today") == ["France"]

    def test_without_redirects(self, tiny_wiki):
        matcher = TitleMatcher(tiny_wiki, use_redirects=False)
        assert matcher.match_titles("Hillary Clinton spoke") == []

    def test_no_matches(self, tiny_wiki):
        matcher = TitleMatcher(tiny_wiki)
        assert matcher.matches("nothing known here") == []


class TestBuiltSnapshot:
    """Checks against the full generated snapshot."""

    def test_chirac_expansion_matches_paper_example(self, wikipedia):
        graph = WikipediaGraph(wikipedia)
        titles = {n.title for n in graph.neighbours("Jacques Chirac", k=50)}
        # Section IV-B's worked example: context terms for Jacques
        # Chirac include "President of France".
        assert "President of France" in titles
        assert "France" in titles

    def test_every_entity_has_a_page(self, world, wikipedia):
        for entity in world.entities:
            assert wikipedia.resolve(entity.name) == entity.name

    def test_every_facet_term_has_a_page(self, world, wikipedia):
        for term in world.taxonomy.terms():
            assert wikipedia.resolve(term) is not None

    def test_variants_redirect(self, world, wikipedia):
        entity = world.entity("Hillary Rodham Clinton")
        for variant in entity.variants:
            assert wikipedia.resolve(variant) == entity.name

    def test_facet_pages_link_parent_and_children(self, world, wikipedia):
        taxonomy = world.taxonomy
        links = set(wikipedia.out_links("Leaders"))
        assert "People" in links
        assert set(taxonomy.children("Leaders")) <= links

    def test_facet_pages_do_not_link_siblings(self, world, wikipedia):
        # Sibling links would corrupt subsumption (see builder docs).
        assert "Germany" not in wikipedia.out_links("France")
