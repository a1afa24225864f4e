"""Tests for the simulated web and search engine."""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.websim.engine import SearchEngineSim
from repro.websim.pages import BOILERPLATE, WebPage, build_web_corpus


#: sha256 of :func:`_query_digest` over every entity name and taxonomy
#: term of the ``ReproConfig(scale=0.1)`` world, recorded before the
#: engine mined token slices: any change to a hit or a mined term fails.
ENGINE_QUERY_SHA256 = (
    "2d16f6ad827d7411088802cbd8a9d2ec7badae77ed34ab76aceb9fc966c62ff8"
)


def _query_digest(engine: SearchEngineSim, queries: list[str]) -> str:
    payload = [
        [
            query,
            engine.frequent_snippet_terms(query, limit=30, result_count=10),
            [[hit.url, hit.title, hit.text] for hit in engine.search(query)],
        ]
        for query in queries
    ]
    encoded = json.dumps(payload, ensure_ascii=True, separators=(",", ":"))
    return hashlib.sha256(encoded.encode("ascii")).hexdigest()


@pytest.fixture(scope="module")
def web(world, config):
    return build_web_corpus(world, config)


@pytest.fixture(scope="module")
def engine(web):
    return SearchEngineSim(web)


class TestWebCorpus:
    def test_pages_per_entity(self, world, web):
        entity_pages = [p for p in web if p.url.startswith("web://entity/")]
        assert len(entity_pages) == 3 * len(world.entities)

    def test_facet_pages_exist(self, world, web):
        facet_pages = [p for p in web if p.url.startswith("web://facet/")]
        assert len(facet_pages) == len(world.taxonomy)

    def test_entity_pages_mention_facet_terms(self, world, web):
        chirac_pages = [p for p in web if "Jacques Chirac" in p.text]
        assert chirac_pages
        assert any("Political Leaders" in p.text for p in chirac_pages)

    def test_deterministic(self, world, config):
        again = build_web_corpus(world, config)
        assert [p.url for p in again][:20] == [
            p.url for p in build_web_corpus(world, config)
        ][:20]


class TestSearch:
    def test_entity_query_finds_entity_pages(self, engine):
        snippets = engine.search("Jacques Chirac", limit=5)
        assert snippets
        assert any("Chirac" in s.title or "Chirac" in s.text for s in snippets)

    def test_title_match_boost(self, engine):
        snippets = engine.search("People", limit=3)
        assert snippets
        assert "people" in snippets[0].title.lower()

    def test_empty_query(self, engine):
        assert engine.search("") == []
        assert engine.search("the of and") == []

    def test_unknown_query(self, engine):
        assert engine.search("xyzzyqwertyzzz") == []

    def test_limit_respected(self, engine):
        assert len(engine.search("Chirac", limit=2)) <= 2


class TestContextMining:
    def test_facet_terms_in_context(self, engine):
        terms = engine.frequent_snippet_terms("Jacques Chirac", limit=30)
        joined = " ".join(terms)
        assert "political" in joined or "france" in joined or "leaders" in joined

    def test_query_words_excluded(self, engine):
        terms = engine.frequent_snippet_terms("Jacques Chirac", limit=30)
        assert "jacques" not in terms
        assert "chirac" not in terms

    def test_limit(self, engine):
        assert len(engine.frequent_snippet_terms("France", limit=5)) <= 5

    @staticmethod
    def _anthem_engine() -> SearchEngineSim:
        pages = [
            WebPage(f"u{i}", "Anthem", "United States . United States")
            for i in range(3)
        ]
        return SearchEngineSim(pages)

    def test_fragment_suppression(self):
        # "united" and "states" occur only inside "united states", which
        # is counted because neither word is a query word -> both are
        # fragments and suppressed; the full phrase is mined.
        terms = self._anthem_engine().frequent_snippet_terms("anthem", limit=20)
        assert terms == [
            "united states",
            "states united states",
            "united states united",
        ]

    @pytest.mark.parametrize("limit", [0, -1])
    def test_non_positive_limit_mines_nothing(self, limit):
        engine = self._anthem_engine()
        assert engine.frequent_snippet_terms("anthem", limit=limit) == []
        assert engine.frequent_snippet_terms("anthem", limit=1) == ["united states"]

    def test_some_noise_present(self, engine):
        """Google context should contain SOME boilerplate (the paper's
        precision-drop mechanism) across a range of queries."""
        noise = 0
        for query in ("Jacques Chirac", "France", "Federal Reserve"):
            terms = engine.frequent_snippet_terms(query, limit=30)
            noise += sum(1 for t in terms if t in BOILERPLATE)
        assert noise >= 1


class TestQueryParity:
    def test_every_entity_and_taxonomy_query_is_unchanged(self, world, engine):
        queries = [entity.name for entity in world.entities]
        queries += list(world.taxonomy.terms())
        assert len(queries) > 500
        assert _query_digest(engine, queries) == ENGINE_QUERY_SHA256
