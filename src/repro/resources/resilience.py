"""Fault tolerance for remote resources.

The paper's deployment leans on two web services (Yahoo Term Extraction
and Google) that fail, rate-limit, and time out in practice.  This
module makes the pipeline robust to that:

* :class:`FlakyResource` — a fault-injection wrapper used by the test
  suite to simulate failures (each query raises with a configurable
  probability);
* :class:`ResilientResource` — a production wrapper that retries a
  failing resource a bounded number of times and degrades to an empty
  answer (logging nothing into the expansion) instead of aborting the
  whole extraction run;
* :class:`SimulatedLatencyResource` — a wrapper that sleeps per
  uncached query, modelling the remote round trip the paper measured
  (the ``extract-remote`` workload of ``bench/`` puts every resource
  behind one to time batching and the SQLite cache).

All wrappers compose with the shared two-tier cache: they answer under
the *inner* resource's cache namespace (their answers are the inner
resource's answers), and :class:`ResilientResource` keeps degraded empty
answers out of the persistent tier — its own and that of any composite
or wrapper answering through it — so a transient outage can never
poison later runs.
"""

from __future__ import annotations

import random
import time

from ..errors import ResourceError
from ..observability import names as obs_names
from ..observability.context import current_metrics
from ..observability.logging import get_logger
from .base import ExternalResource

log = get_logger(__name__)


class FlakyResource(ExternalResource):
    """Fault injection: delegate that fails with probability ``error_rate``."""

    def __init__(
        self,
        inner: ExternalResource,
        error_rate: float,
        seed: int = 0,
    ) -> None:
        if not 0 <= error_rate <= 1:
            raise ValueError(f"error_rate must be in [0, 1], got {error_rate}")
        super().__init__()
        self.name = inner.name
        self.remote = inner.remote
        self._inner = inner
        self._error_rate = error_rate
        self._rng = random.Random(seed)
        self.failures = 0

    def _query(self, term: str) -> list[str]:
        if self._rng.random() < self._error_rate:
            self.failures += 1
            metrics = current_metrics()
            if metrics is not None:
                metrics.increment(
                    obs_names.resource_metric(self.metric_label(), "failures")
                )
            raise ResourceError(f"simulated outage answering {term!r}")
        return self._inner.context_terms(term)

    def cache_namespace(self) -> str:
        return self._inner.cache_namespace()


class ResilientResource(ExternalResource):
    """Retry-then-degrade wrapper around an unreliable resource.

    A query that keeps failing yields an empty context (that document
    simply gains no terms from this resource) — the pipeline finishes
    with slightly lower recall instead of crashing, which is the right
    trade for a batch expansion job.
    """

    def __init__(
        self,
        inner: ExternalResource,
        max_attempts: int = 3,
    ) -> None:
        if max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
        super().__init__()
        self.name = inner.name
        self.remote = inner.remote
        self._inner = inner
        self._max_attempts = max_attempts
        self.retries = 0
        self.gave_up = 0

    def _query(self, term: str) -> list[str]:
        metrics = current_metrics()
        last_error: Exception | None = None
        for attempt in range(self._max_attempts):
            try:
                return self._inner.context_terms(term)
            except ResourceError as exc:
                last_error = exc
                if attempt + 1 < self._max_attempts:
                    self.retries += 1
                    if metrics is not None:
                        metrics.increment(
                            obs_names.resource_metric(
                                self.metric_label(), "retries"
                            )
                        )
        self.gave_up += 1
        assert last_error is not None
        if metrics is not None:
            metrics.increment(
                obs_names.resource_metric(self.metric_label(), "degraded")
            )
        log.warning(
            "resource.degraded",
            resource=self.metric_label(),
            term=term,
            attempts=self._max_attempts,
            error=str(last_error),
        )
        # The empty answer is a degradation, not the resource's real
        # answer: keep it in the in-process tier only, never in the
        # persistent store (nor in the store of an engine answering
        # through this one), so a transient outage cannot poison later
        # runs that share the cache file.
        self._mark_do_not_persist()
        return []

    def cache_namespace(self) -> str:
        return self._inner.cache_namespace()


class SimulatedLatencyResource(ExternalResource):
    """Adds a fixed per-query sleep, modelling a remote round trip.

    Cache hits (either tier) skip the sleep — exactly the behaviour that
    makes the offline/warm-cache deployment of Section V-D attractive.
    A bulk :meth:`query_many` sleeps once per batch, so the pipeline's
    one batch per engine pass costs one round trip.
    """

    def __init__(
        self,
        inner: ExternalResource,
        latency_seconds: float,
    ) -> None:
        if latency_seconds < 0:
            raise ValueError(
                f"latency_seconds must be >= 0, got {latency_seconds}"
            )
        super().__init__()
        self.name = inner.name
        self.remote = True
        self._inner = inner
        self._latency_seconds = latency_seconds
        self.simulated_calls = 0

    def _query(self, term: str) -> list[str]:
        return self.query_many([term])[0]

    def query_many(self, terms: list[str]) -> list[list[str]]:
        """Bulk lookup: a whole batch costs **one** simulated round trip.

        This models a remote API with a batch endpoint (one HTTP request
        answering many terms) — the quantitative case for the batched
        query engine: per-term latency collapses from ``n * latency`` to
        ``ceil(n / batch) * latency``.
        """
        self.simulated_calls += 1
        metrics = current_metrics()
        if metrics is not None:
            metrics.increment(
                obs_names.resource_metric(
                    self.metric_label(), "simulated_round_trips"
                )
            )
        time.sleep(self._latency_seconds)
        return self._inner.context_terms_many(terms)

    def cache_namespace(self) -> str:
        # Latency does not change answers; share the inner namespace so
        # a cache warmed through this wrapper serves the bare resource.
        return self._inner.cache_namespace()
