"""The snippet search engine over the synthetic web."""

from __future__ import annotations

import heapq
from collections import Counter, defaultdict
from dataclasses import dataclass
from itertools import chain

from ..text.stopwords import STOPWORDS
from ..text.tokenizer import word_tokens
from .pages import WebPage

#: Snippet length in words around the first query match.
SNIPPET_WINDOW = 30


@dataclass(frozen=True)
class Snippet:
    """A search hit: url, title, and the snippet text."""

    url: str
    title: str
    text: str


class SearchEngineSim:
    """tf-scored search with snippet generation (the Google stand-in)."""

    def __init__(self, pages: list[WebPage]) -> None:
        self._pages = pages
        self._postings: dict[str, dict[int, int]] = defaultdict(dict)
        # A page's tokens are its title's followed by its text's: the first
        # ``_title_lengths[i]`` entries of ``_page_words[i]`` are the title,
        # so a hit's title and snippet words are slices, never re-tokenized.
        self._page_words: list[list[str]] = []
        self._title_lengths: list[int] = []
        self._title_postings: dict[str, set[int]] = defaultdict(set)
        for index, page in enumerate(pages):
            title = word_tokens(page.title)
            words = title + word_tokens(page.text)
            self._page_words.append(words)
            self._title_lengths.append(len(title))
            for word in title:
                self._title_postings[word].add(index)
            for word in words:
                entry = self._postings[word]
                entry[index] = entry.get(index, 0) + 1

    def search(self, query: str, limit: int = 10) -> list[Snippet]:
        """Top pages for ``query``, with snippets around the match."""
        terms = [w for w in word_tokens(query) if w not in STOPWORDS]
        results: list[Snippet] = []
        for page_index in self._rank(terms, limit):
            page = self._pages[page_index]
            start = self._snippet_start(page_index, terms)
            words = self._page_words[page_index][start : start + SNIPPET_WINDOW]
            results.append(
                Snippet(url=page.url, title=page.title, text=" ".join(words))
            )
        return results

    def _rank(self, terms: list[str], limit: int) -> list[int]:
        """Indices of the ``limit`` best-scoring pages for ``terms``."""
        if not terms:
            return []
        scores: Counter[int] = Counter()
        for term in terms:
            scores.update(self._postings.get(term, {}))
        # Title boost: pages whose title contains every query term rank
        # first, as on a real engine — Google("People") should return
        # pages *about* people, not pages that merely mention the word.
        # A title's words are page words, so every such page is scored.
        titled = [self._title_postings.get(term, set()) for term in terms]
        for page_index in set.intersection(*titled):
            scores[page_index] += 25
        ranked = heapq.nsmallest(
            limit, scores.items(), key=lambda item: (-item[1], item[0])
        )
        return [page_index for page_index, _ in ranked]

    def _snippet_start(self, page_index: int, terms: list[str]) -> int:
        """Start of the snippet window around the first query-term match."""
        words = self._page_words[page_index]
        anchor = min(words.index(term) for term in set(terms) if term in words)
        return max(0, anchor - SNIPPET_WINDOW // 2)

    def frequent_snippet_terms(
        self, query: str, limit: int = 10, result_count: int = 10
    ) -> list[str]:
        """Most frequent non-query words, bigrams and trigrams in the hits.

        This is the context-term extraction the paper performs on Google
        results: only titles and snippets are mined, never full pages.
        """
        if limit <= 0:
            return []
        terms = [w for w in word_tokens(query) if w not in STOPWORDS]
        query_words = set(terms)
        unigrams: Counter[str] = Counter()
        bigrams: Counter[tuple[str, str]] = Counter()
        trigrams: Counter[tuple[str, str, str]] = Counter()
        for page_index in self._rank(terms, result_count):
            words = self._page_words[page_index]
            start = self._snippet_start(page_index, terms)
            mined = [
                w
                for w in chain(
                    words[: self._title_lengths[page_index]],
                    words[start : start + SNIPPET_WINDOW],
                )
                if w not in STOPWORDS and w not in query_words
            ]
            unigrams.update(mined)
            bigrams.update(zip(mined, mined[1:]))
            trigrams.update(zip(mined, mined[1:], mined[2:]))
        # Subsumed-fragment suppression (as in C-value phrase mining):
        # a term that almost always occurs inside a longer counted
        # phrase ("united" inside "united states") is a fragment, not a
        # context term of its own.  A word's most frequent cover is a
        # bigram: every trigram occurrence holds a bigram occurrence
        # around each of its words, so no trigram outcounts them.
        word_cover: dict[str, int] = {}
        for pair, count in bigrams.items():
            for word in pair:
                if word_cover.get(word, 0) < count:
                    word_cover[word] = count
        bigram_cover: dict[tuple[str, str], int] = {}
        for triple, count in trigrams.items():
            for pair in (triple[:2], triple[1:]):
                if bigram_cover.get(pair, 0) < count:
                    bigram_cover[pair] = count
        # A term's survival depends only on its own count, so filter
        # first and keep the top ``limit``.  Tokens sort above the space,
        # so tuple order is the order of the joined strings.
        survivors: list[tuple[int, tuple[str, ...]]] = [
            (-count, (word,))
            for word, count in unigrams.items()
            if word_cover.get(word, 0) < count * 0.8
        ]
        survivors += [
            (-count, pair)
            for pair, count in bigrams.items()
            if bigram_cover.get(pair, 0) < count * 0.8
        ]
        survivors += [(-count, triple) for triple, count in trigrams.items()]
        return [" ".join(term) for _, term in heapq.nsmallest(limit, survivors)]
