"""Tests for fault injection and the resilient resource wrapper."""

from __future__ import annotations

import sys
import threading

import pytest

from repro.core.annotate import annotate_database
from repro.core.contextualize import contextualize
from repro.db.resource_cache import PersistentResourceCache
from repro.errors import ResourceError
from repro.resources.base import ExternalResource, ResourceName
from repro.resources.composite import CompositeResource
from repro.resources.resilience import (
    FlakyResource,
    ResilientResource,
    SimulatedLatencyResource,
)


class EchoResource(ExternalResource):
    name = ResourceName.GOOGLE
    remote = True

    def __init__(self):
        super().__init__()
        self.queries = 0

    def _query(self, term):
        self.queries += 1
        return [f"about {term.lower()}"]


class AlwaysFailing(ExternalResource):
    name = ResourceName.GOOGLE

    def _query(self, term):
        raise ResourceError("down")


class TestFlakyResource:
    def test_passes_through_when_healthy(self):
        flaky = FlakyResource(EchoResource(), error_rate=0.0)
        assert flaky.context_terms("Paris") == ["about paris"]
        assert flaky.failures == 0

    def test_always_fails_at_rate_one(self):
        flaky = FlakyResource(EchoResource(), error_rate=1.0)
        with pytest.raises(ResourceError):
            flaky.context_terms("Paris")
        assert flaky.failures == 1

    def test_intermittent_failures(self):
        flaky = FlakyResource(EchoResource(), error_rate=0.5, seed=7)
        outcomes = []
        for i in range(40):
            try:
                flaky.context_terms(f"term{i}")
                outcomes.append(True)
            except ResourceError:
                outcomes.append(False)
        assert any(outcomes) and not all(outcomes)

    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            FlakyResource(EchoResource(), error_rate=2.0)

    def test_inherits_identity(self):
        inner = EchoResource()
        flaky = FlakyResource(inner, error_rate=0.1)
        assert flaky.name == inner.name
        assert flaky.remote == inner.remote


class TestResilientResource:
    def test_retries_until_success(self):
        inner = EchoResource()
        flaky = FlakyResource(inner, error_rate=0.6, seed=3)
        resilient = ResilientResource(flaky, max_attempts=10)
        for i in range(20):
            assert resilient.context_terms(f"t{i}") == [f"about t{i}"]
        assert resilient.retries > 0
        assert resilient.gave_up == 0

    def test_degrades_to_empty_when_exhausted(self):
        resilient = ResilientResource(AlwaysFailing(), max_attempts=2)
        assert resilient.context_terms("anything") == []
        assert resilient.gave_up == 1

    def test_invalid_attempts(self):
        with pytest.raises(ValueError):
            ResilientResource(EchoResource(), max_attempts=0)

    def test_pipeline_survives_outages(self, builder, snyt):
        """End-to-end: an unreliable Google never crashes extraction."""
        from repro.core.annotate import annotate_database
        from repro.core.contextualize import contextualize
        from repro.core.selection import select_facet_terms
        from repro.extractors.base import ExtractorName
        from repro.extractors.registry import build_extractors
        from repro.resources.base import ResourceName
        from repro.resources.registry import build_resources

        google = build_resources(
            [ResourceName.GOOGLE], builder.substrates, builder.config
        )[0]
        unreliable = ResilientResource(
            FlakyResource(google, error_rate=0.4, seed=11), max_attempts=2
        )
        docs = list(snyt)[:30]
        extractors = build_extractors(
            [ExtractorName.NAMED_ENTITIES], wikipedia=builder.substrates.wikipedia
        )
        annotated = annotate_database(docs, extractors)
        contextualized = contextualize(annotated, [unreliable])
        candidates = select_facet_terms(contextualized, top_k=None)
        # The run completes; degradation may cost recall, never a crash.
        assert isinstance(candidates, list)


def _annotate_sample(builder, snyt, count=20):
    from repro.extractors.base import ExtractorName
    from repro.extractors.registry import build_extractors

    docs = list(snyt)[:count]
    extractors = build_extractors(
        [ExtractorName.NAMED_ENTITIES], wikipedia=builder.substrates.wikipedia
    )
    return annotate_database(docs, extractors)


class TestParallelResilience:
    """Fault injection inside Step 2's batched expansion."""

    def test_worker_failure_surfaces_no_partial_results(self, builder, snyt):
        """A resource raising mid-batch aborts the whole stage loudly."""
        annotated = _annotate_sample(builder, snyt)
        always_down = FlakyResource(EchoResource(), error_rate=1.0)
        with pytest.raises(ResourceError):
            contextualize(annotated, [always_down])

    def test_intermittent_worker_failure_still_surfaces(self, builder, snyt):
        """Even one failing query among many healthy ones propagates."""
        annotated = _annotate_sample(builder, snyt)
        flaky = FlakyResource(EchoResource(), error_rate=0.2, seed=5)
        with pytest.raises(ResourceError):
            for _ in range(50):  # the injected fault fires eventually
                flaky.clear_cache()
                contextualize(annotated, [flaky])

    def test_retry_wrapper_composes_with_pool_and_shared_cache(
        self, builder, snyt, tmp_path
    ):
        """Retry/degrade inside the batch, backed by the persistent store."""
        annotated = _annotate_sample(builder, snyt)
        store = PersistentResourceCache(str(tmp_path / "cache.db"))

        def run(error_rate, seed):
            resilient = ResilientResource(
                FlakyResource(EchoResource(), error_rate, seed=seed),
                max_attempts=4,
            )
            resilient.attach_cache(store)
            return resilient, contextualize(annotated, [resilient])

        resource, contextualized = run(error_rate=0.3, seed=11)
        assert resource.cache_stats.misses > 0
        # A healthy re-run over the same store answers from SQLite.
        healthy, again = run(error_rate=0.0, seed=0)
        assert again.context_terms == contextualized.context_terms or (
            resource.gave_up > 0
        )
        assert healthy.cache_stats.persistent_hits > 0

    def test_degraded_answers_never_enter_persistent_tier(self, tmp_path):
        store = PersistentResourceCache(str(tmp_path / "cache.db"))
        resilient = ResilientResource(AlwaysFailing(), max_attempts=2)
        resilient.attach_cache(store)
        assert resilient.context_terms("paris") == []
        assert resilient.gave_up == 1
        # Degraded [] stays in the memory tier only.
        assert resilient.cache_size == 1
        assert store.size(resilient.cache_namespace()) == 0
        # A recovered resource sharing the store re-queries and persists.
        recovered = ResilientResource(EchoResource(), max_attempts=2)
        recovered.attach_cache(store)
        assert recovered.context_terms("paris") == ["about paris"]
        assert store.size(recovered.cache_namespace()) == 1

    def test_wrappers_share_the_inner_cache_namespace(self):
        inner = EchoResource()
        assert (
            FlakyResource(inner, error_rate=0.5).cache_namespace()
            == ResilientResource(inner).cache_namespace()
            == SimulatedLatencyResource(inner, 0.0).cache_namespace()
            == inner.cache_namespace()
        )


class PrefixResource(ExternalResource):
    """Healthy leaf answering ``<prefix> <term>`` under its own namespace."""

    name = ResourceName.GOOGLE

    def __init__(self, prefix: str):
        super().__init__()
        self._prefix = prefix

    def _query(self, term):
        return [f"{self._prefix} {term.lower()}"]

    def cache_namespace(self) -> str:
        return f"PrefixResource({self._prefix})"


def _lookup(resource: ExternalResource, term: str, many: bool) -> list[str]:
    if many:
        return resource.context_terms_many([term])[0]
    return resource.context_terms(term)


class TestDegradedAnswersThroughEnclosingEngines:
    """A degraded answer stays out of every persistent store, including
    the one an enclosing engine (a composite, the latency wrapper)
    writes its own answer to."""

    @staticmethod
    def _outage(leaf: ExternalResource) -> ExternalResource:
        return ResilientResource(FlakyResource(leaf, error_rate=1.0))

    @pytest.mark.parametrize("many", [False, True], ids=["single", "many"])
    def test_composite_does_not_persist_a_degraded_union(self, many):
        store = PersistentResourceCache(":memory:")
        broken = CompositeResource(
            [self._outage(PrefixResource("ctx")), PrefixResource("other")]
        )
        broken.attach_cache(store)
        assert _lookup(broken, "Paris", many) == ["other paris"]
        healthy = CompositeResource(
            [PrefixResource("ctx"), PrefixResource("other")]
        )
        assert healthy.cache_namespace() == broken.cache_namespace()
        healthy.attach_cache(store)
        assert _lookup(healthy, "Paris", many) == ["ctx paris", "other paris"]

    @pytest.mark.parametrize("many", [False, True], ids=["single", "many"])
    def test_latency_wrapper_does_not_persist_a_degraded_answer(self, many):
        store = PersistentResourceCache(":memory:")
        broken = SimulatedLatencyResource(
            self._outage(PrefixResource("ctx")), latency_seconds=0.0
        )
        broken.attach_cache(store)
        assert _lookup(broken, "Paris", many) == []
        healthy = SimulatedLatencyResource(
            PrefixResource("ctx"), latency_seconds=0.0
        )
        healthy.attach_cache(store)
        assert _lookup(healthy, "Paris", many) == ["ctx paris"]

    def test_concurrent_batches_keep_their_own_marks(self):
        """The mark is context-local: batches on other threads never
        clear an outage's mark nor suppress a healthy batch's write."""
        store = PersistentResourceCache(":memory:")
        broken = CompositeResource(
            [self._outage(PrefixResource("ctx")), PrefixResource("other")]
        )
        healthy = CompositeResource(
            [PrefixResource("ctx"), PrefixResource("other")]
        )
        broken.attach_cache(store)
        healthy.attach_cache(store)
        errors: list[BaseException] = []

        def work(resource: ExternalResource, prefix: str) -> None:
            try:
                for index in range(100):
                    resource.context_terms(f"{prefix} {index}")
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=work, args=(broken, "down")),
                threading.Thread(target=work, args=(healthy, "up")),
                threading.Thread(target=work, args=(broken, "gone")),
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(switch)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        fresh = CompositeResource([PrefixResource("ctx"), PrefixResource("other")])
        fresh.attach_cache(store)
        # Only the healthy thread's 100 answers were persisted.
        assert store.size(fresh.cache_namespace()) == 100
        assert fresh.context_terms("down 7") == ["ctx down 7", "other down 7"]
        assert fresh.context_terms("up 7") == ["ctx up 7", "other up 7"]


class TestSimulatedLatencyResource:
    def test_delegates_and_counts_round_trips(self):
        inner = EchoResource()
        slow = SimulatedLatencyResource(inner, latency_seconds=0.0)
        assert slow.context_terms("Paris") == ["about paris"]
        assert slow.context_terms("Paris") == ["about paris"]
        assert slow.simulated_calls == 1  # the cache hit skips the sleep
        assert slow.remote

    def test_invalid_latency(self):
        with pytest.raises(ValueError):
            SimulatedLatencyResource(EchoResource(), latency_seconds=-1.0)
