"""Two-tier resource cache: LRU + persistent SQLite correctness.

Covers the cache contract of :class:`repro.resources.base.ExternalResource`
and :class:`repro.db.resource_cache.PersistentResourceCache`:

* persistent hits survive a fresh resource instance (and a fresh store
  over the same file);
* ``clear_cache()`` drops both tiers;
* hit/miss counters are exact;
* cached entries are immutable — no caller (and no resource mutating
  the list its ``_query`` returned) can poison the cache;
* a corrupted or locked SQLite file degrades gracefully to in-memory
  mode instead of crashing;
* every resource of the default pipeline answers every entity name and
  taxonomy term exactly as recorded, one term at a time and in a batch.
"""

from __future__ import annotations

import hashlib
import json
import sqlite3
import threading

import pytest

from repro.db.resource_cache import PersistentResourceCache
from repro.resources.base import ExternalResource, ResourceName
from repro.resources.registry import build_all_resources, build_resource

#: sha256 of :func:`_answer_digest` over every entity name and taxonomy
#: term of the ``ReproConfig(scale=0.1)`` world, for the four leaf
#: resources and their default composite, recorded while each bulk
#: resource still had a separate single-term body: any change to one
#: context term of either path fails.
RESOURCE_ANSWER_SHA256 = (
    "0e377839ff93ca7a24cbbe66a3453a13ddf0d55a72e4b3e8ba6fdbd083ec92f7"
)


class CountingResource(ExternalResource):
    """Deterministic resource that counts real queries."""

    name = ResourceName.GOOGLE

    def __init__(self, memory_cache_size: int = 65_536):
        super().__init__(memory_cache_size=memory_cache_size)
        self.queries = 0

    def _query(self, term):
        self.queries += 1
        return [f"about {term.lower()}", f"more {term.lower()}"]


class TestMemoryTier:
    def test_memoizes_on_normalized_form(self):
        resource = CountingResource()
        first = resource.context_terms("Paris")
        again = resource.context_terms("  PARIS ")
        assert first == again == ["about paris", "more paris"]
        assert resource.queries == 1

    def test_lru_evicts_oldest(self):
        resource = CountingResource(memory_cache_size=2)
        resource.context_terms("a")
        resource.context_terms("b")
        resource.context_terms("c")  # evicts "a"
        assert resource.cache_size == 2
        resource.context_terms("a")  # re-query
        assert resource.queries == 4

    def test_lru_recency_refresh(self):
        resource = CountingResource(memory_cache_size=2)
        resource.context_terms("a")
        resource.context_terms("b")
        resource.context_terms("a")  # refresh "a"; "b" is now oldest
        resource.context_terms("c")  # evicts "b"
        resource.context_terms("a")
        assert resource.queries == 3  # "a" never re-queried

    def test_invalid_cache_size(self):
        with pytest.raises(ValueError):
            CountingResource(memory_cache_size=0)


class TestImmutability:
    def test_caller_mutation_cannot_poison_cache(self):
        resource = CountingResource()
        answer = resource.context_terms("Paris")
        answer.append("poison")
        answer[0] = "garbage"
        assert resource.context_terms("Paris") == ["about paris", "more paris"]

    def test_entries_are_stored_as_tuples(self):
        resource = CountingResource()
        resource.context_terms("Paris")
        (entry,) = resource._cache.values()
        assert isinstance(entry, tuple)

    def test_resource_mutating_its_own_answer_cannot_poison_cache(self):
        class Mutator(ExternalResource):
            name = ResourceName.GOOGLE

            def __init__(self):
                super().__init__()
                self.last = None

            def _query(self, term):
                self.last = [f"about {term}"]
                return self.last

        resource = Mutator()
        resource.context_terms("paris")
        resource.last.append("poison")  # mutate the list _query returned
        assert resource.context_terms("paris") == ["about paris"]


class TestExactCounters:
    def test_memory_hits_and_misses(self):
        resource = CountingResource()
        for term in ["a", "b", "a", "a", "c", "b"]:
            resource.context_terms(term)
        stats = resource.cache_stats
        assert stats.misses == 3
        assert stats.memory_hits == 3
        assert stats.persistent_hits == 0
        assert stats.hits == 3
        assert stats.queries == 6

    def test_empty_terms_are_not_counted(self):
        resource = CountingResource()
        assert resource.context_terms("   ") == []
        assert resource.cache_stats.queries == 0

    def test_persistent_hit_counting(self, tmp_path):
        store = PersistentResourceCache(str(tmp_path / "cache.db"))
        warmer = CountingResource()
        warmer.attach_cache(store)
        warmer.context_terms("paris")

        fresh = CountingResource()
        fresh.attach_cache(store)
        fresh.context_terms("paris")  # persistent hit, fills memory tier
        fresh.context_terms("paris")  # memory hit
        stats = fresh.cache_stats
        assert stats.persistent_hits == 1
        assert stats.memory_hits == 1
        assert stats.misses == 0
        assert fresh.queries == 0

    def test_reset_cache_stats(self):
        resource = CountingResource()
        resource.context_terms("a")
        resource.reset_cache_stats()
        assert resource.cache_stats.queries == 0


class TestPersistentTier:
    def test_hits_survive_fresh_store_over_same_file(self, tmp_path):
        path = str(tmp_path / "cache.db")
        first = CountingResource()
        first.attach_cache(PersistentResourceCache(path))
        answer = first.context_terms("Paris")

        reopened = CountingResource()
        reopened.attach_cache(PersistentResourceCache(path))
        assert reopened.context_terms("Paris") == answer
        assert reopened.queries == 0
        assert reopened.cache_stats.persistent_hits == 1

    def test_namespaces_do_not_collide(self, tmp_path):
        store = PersistentResourceCache(str(tmp_path / "cache.db"))
        a = CountingResource()
        a.attach_cache(store, namespace="world-a")
        b = CountingResource()
        b.attach_cache(store, namespace="world-b")
        a.context_terms("paris")
        b.context_terms("paris")
        assert a.queries == 1 and b.queries == 1
        assert store.size("world-a") == 1
        assert store.size("world-b") == 1
        assert store.size() == 2

    def test_clear_cache_drops_both_tiers(self, tmp_path):
        store = PersistentResourceCache(str(tmp_path / "cache.db"))
        resource = CountingResource()
        resource.attach_cache(store)
        resource.context_terms("paris")
        assert resource.cache_size == 1
        assert store.size(resource.cache_namespace()) == 1

        resource.clear_cache()
        assert resource.cache_size == 0
        assert store.size(resource.cache_namespace()) == 0
        resource.context_terms("paris")
        assert resource.queries == 2  # truly gone from both tiers

    def test_clear_cache_spares_other_namespaces(self, tmp_path):
        store = PersistentResourceCache(str(tmp_path / "cache.db"))
        mine = CountingResource()
        mine.attach_cache(store, namespace="mine")
        other = CountingResource()
        other.attach_cache(store, namespace="other")
        mine.context_terms("paris")
        other.context_terms("paris")
        mine.clear_cache()
        assert store.size("mine") == 0
        assert store.size("other") == 1

    def test_store_clear_all(self, tmp_path):
        store = PersistentResourceCache(str(tmp_path / "cache.db"))
        store.put_many("n1", {"t": ("a",)})
        store.put_many("n2", {"t": ("b",)})
        store.clear()
        assert store.size() == 0

    def test_detach_keeps_memory_tier(self, tmp_path):
        store = PersistentResourceCache(str(tmp_path / "cache.db"))
        resource = CountingResource()
        resource.attach_cache(store)
        resource.context_terms("paris")
        resource.detach_cache()
        resource.context_terms("paris")
        assert resource.queries == 1  # memory tier still answers

    def test_store_level_counters(self, tmp_path):
        store = PersistentResourceCache(str(tmp_path / "cache.db"))
        assert store.get_many("ns", ["missing"]) == {}
        store.put_many("ns", {"t": ("x",)})
        assert store.get_many("ns", ["t"]) == {"t": ("x",)}
        assert store.misses == 1
        assert store.hits == 1
        assert store.writes == 1

    def test_put_upserts_in_place(self, tmp_path):
        cache = PersistentResourceCache(str(tmp_path / "cache.db"))
        cache.put_many("ns", {"term": ("old",)})
        cache.put_many("ns", {"term": ("new",)})
        assert cache.get_many("ns", ["term"]) == {"term": ("new",)}


class TestGracefulDegradation:
    def test_corrupted_file_degrades_to_memory_mode(self, tmp_path):
        path = tmp_path / "corrupt.db"
        path.write_bytes(b"this is definitely not a sqlite database")
        store = PersistentResourceCache(str(path))
        assert store.disabled
        assert store.error is not None
        # A disabled store is inert, never raising.
        assert store.get_many("ns", ["t"]) == {}
        store.put_many("ns", {"t": ("x",)})
        store.clear()
        assert store.size() == 0

        resource = CountingResource()
        resource.attach_cache(store)
        assert resource.context_terms("paris") == ["about paris", "more paris"]
        assert resource.context_terms("paris") == ["about paris", "more paris"]
        assert resource.queries == 1  # the memory tier still works
        assert resource.cache_stats.misses == 1
        assert resource.cache_stats.memory_hits == 1

    def test_locked_database_degrades_to_memory_mode(self, tmp_path):
        path = str(tmp_path / "locked.db")
        locker = sqlite3.connect(path)
        locker.execute("CREATE TABLE t (x)")
        locker.execute("BEGIN EXCLUSIVE")
        try:
            store = PersistentResourceCache(path, timeout=0.05)
            assert store.disabled
            resource = CountingResource()
            resource.attach_cache(store)
            assert resource.context_terms("paris") == [
                "about paris",
                "more paris",
            ]
            assert resource.queries == 1
        finally:
            locker.rollback()
            locker.close()

    def test_runtime_error_degrades_instead_of_raising(self, tmp_path):
        store = PersistentResourceCache(str(tmp_path / "cache.db"))
        store.put_many("ns", {"t": ("x",)})
        # Corrupt the live connection out from under the store.
        store._connection.close()
        assert store.get_many("ns", ["t"]) == {}
        assert store.disabled
        store.put_many("ns", {"u": ("y",)})  # no-op, no exception


class TestThreadSafety:
    def test_concurrent_queries_are_consistent(self, tmp_path):
        store = PersistentResourceCache(str(tmp_path / "cache.db"))
        resource = CountingResource()
        resource.attach_cache(store)
        terms = [f"term{i % 10}" for i in range(200)]
        answers: list[list[str]] = []
        errors: list[Exception] = []

        def worker(chunk):
            try:
                for term in chunk:
                    answers.append(resource.context_terms(term))
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(terms[i::4],)) for i in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert len(answers) == 200
        for answer in answers:
            term = answer[0].removeprefix("about ")
            assert answer == [f"about {term}", f"more {term}"]
        stats = resource.cache_stats
        assert stats.queries == 200
        assert store.size(resource.cache_namespace()) == 10


class TestResourceAnswerParity:
    @staticmethod
    def _fresh(substrates, config) -> list[tuple[str, ExternalResource]]:
        resources = [
            (name.value, build_resource(name, substrates, config))
            for name in ResourceName
        ]
        resources.append(("All", build_all_resources(substrates, config)))
        return resources

    def _answer_digest(self, substrates, config, queries: list[str]) -> str:
        # Separate instances per path, so neither answers from the
        # other's memory tier.
        payload = []
        for (label, one), (_, many) in zip(
            self._fresh(substrates, config),
            self._fresh(substrates, config),
            strict=True,
        ):
            single = [one.context_terms(query) for query in queries]
            bulk = many.context_terms_many(queries)
            assert single == bulk, label
            payload.append(
                [label, [list(row) for row in zip(queries, single, bulk)]]
            )
        encoded = json.dumps(payload, ensure_ascii=True, separators=(",", ":"))
        return hashlib.sha256(encoded.encode("ascii")).hexdigest()

    def test_every_entity_and_taxonomy_answer_is_unchanged(
        self, world, substrates, config
    ):
        queries = [entity.name for entity in world.entities]
        queries += list(world.taxonomy.terms())
        assert len(queries) > 500
        assert (
            self._answer_digest(substrates, config, queries)
            == RESOURCE_ANSWER_SHA256
        )
