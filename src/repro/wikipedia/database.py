"""The simulated Wikipedia store.

Mirrors the paper's setup ("we downloaded the contents of Wikipedia and
built a relational database that contains, among other things, the titles
of all the Wikipedia pages"): pages, redirects, anchors, and links live
in memory.  The snapshot is not persisted: :mod:`repro.wikipedia.builder`
derives it deterministically from the world model on every run, and the
answers resources draw from it persist in the one answer store
(:mod:`repro.db.resource_cache`): an ``extract --cache`` file or a
stream's checkpoint.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Iterable

from ..errors import StorageError
from ..text.interning import normalize_term
from .model import AnchorStats, WikiPage


class WikipediaDatabase:
    """Pages, redirects, anchor statistics, and the link graph."""

    def __init__(self) -> None:
        self._pages: dict[str, WikiPage] = {}
        self._redirects: dict[str, str] = {}  # normalized variant -> title
        self._anchors: dict[str, AnchorStats] = {}  # normalized phrase
        self._incoming: dict[str, set[str]] = defaultdict(set)
        self._redirect_groups: dict[str, list[str]] = defaultdict(list)
        self._title_by_norm: dict[str, str] = {}
        # Lazy target -> [(phrase, score)] index for anchors_to;
        # invalidated whenever an anchor is added.
        self._anchors_by_target: dict[str, list[tuple[str, float]]] | None = None
        # Mutation counter: derived caches (graph neighbours, synonym
        # groups) key their validity on this instead of subscribing to
        # individual mutators.
        self._version = 0
        self._derived: dict[str, dict] = {}
        self._derived_version = 0

    # -- construction -------------------------------------------------------

    def add_page(self, page: WikiPage) -> None:
        """Register a page; titles must be unique."""
        if page.title in self._pages:
            raise StorageError(f"duplicate Wikipedia title: {page.title!r}")
        self._pages[page.title] = page
        self._title_by_norm.setdefault(normalize_term(page.title), page.title)
        for target in page.links:
            self._incoming[target].add(page.title)
        self._version += 1

    def add_redirect(self, variant: str, target: str) -> None:
        """Register a redirect page ``variant -> target``."""
        key = normalize_term(variant)
        if not key:
            return
        self._redirects.setdefault(key, target)
        self._redirect_groups[target].append(variant)
        self._version += 1

    def add_anchor(self, phrase: str, target: str, count: int = 1) -> None:
        """Record ``count`` uses of ``phrase`` as anchor text to ``target``."""
        key = normalize_term(phrase)
        if not key:
            return
        stats = self._anchors.get(key)
        if stats is None:
            stats = AnchorStats(phrase=key)
            self._anchors[key] = stats
        stats.add(target, count)
        self._anchors_by_target = None
        self._version += 1

    # -- lookups ------------------------------------------------------------------

    @property
    def page_count(self) -> int:
        return len(self._pages)

    @property
    def version(self) -> int:
        """Mutation counter; changes whenever any table changes."""
        return self._version

    def derived_cache(self, namespace: str) -> dict:
        """Memo dict for structures derived from the current snapshot.

        Living on the database rather than on the deriving object
        (graph, synonym finder), the memo survives those objects being
        rebuilt over the same snapshot; every cache is dropped wholesale
        on the first access after any mutation.
        """
        if self._derived_version != self._version:
            self._derived.clear()
            self._derived_version = self._version
        cache = self._derived.get(namespace)
        if cache is None:
            cache = self._derived[namespace] = {}
        return cache

    def titles(self) -> tuple[str, ...]:
        return tuple(self._pages)

    def page(self, title: str) -> WikiPage | None:
        """Page by exact title, or via redirect, or None."""
        direct = self._pages.get(title)
        if direct is not None:
            return direct
        resolved = self.resolve(title)
        if resolved is not None:
            return self._pages.get(resolved)
        return None

    def resolve(self, surface: str) -> str | None:
        """Resolve a surface form to a page title via title or redirect."""
        key = normalize_term(surface)
        if key in self._title_by_norm:
            return self._title_by_norm[key]
        return self._redirects.get(key)

    def redirect_group(self, title: str) -> tuple[str, ...]:
        """All variants redirecting to ``title``."""
        return tuple(self._redirect_groups.get(title, ()))

    def anchor_stats(self, phrase: str) -> AnchorStats | None:
        """Anchor statistics for a phrase (normalized), or None."""
        return self._anchors.get(normalize_term(phrase))

    def anchors_to(self, title: str) -> list[tuple[str, float]]:
        """All anchor phrases pointing at ``title`` with their scores.

        Served from a lazily built target index: one pass over the
        anchor table amortizes what used to be a full scan per call.
        Each per-target list is sorted with the scan's exact key
        (phrases are unique, so the order is total either way).
        """
        index = self._anchors_by_target
        if index is None:
            grouped: dict[str, list[tuple[str, float]]] = defaultdict(list)
            for stats in self._anchors.values():
                for target in stats.targets:
                    grouped[target].append((stats.phrase, stats.score(target)))
            for results in grouped.values():
                results.sort(key=lambda item: (-item[1], item[0]))
            index = self._anchors_by_target = dict(grouped)
        return list(index.get(title, ()))

    def out_links(self, title: str) -> tuple[str, ...]:
        page = self._pages.get(title)
        return page.links if page else ()

    def in_links(self, title: str) -> tuple[str, ...]:
        return tuple(self._incoming.get(title, ()))

    def out_degree(self, title: str) -> int:
        return len(self.out_links(title))

    def in_degree(self, title: str) -> int:
        return len(self._incoming.get(title, ()))

    def all_known_surfaces(self) -> Iterable[str]:
        """All title and redirect surfaces (normalized forms)."""
        yield from self._title_by_norm
        yield from self._redirects
