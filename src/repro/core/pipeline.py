"""End-to-end facet extraction: the public entry point of the library.

:class:`FacetExtractor` wires Steps 1-3 and hierarchy construction
together; :class:`FacetExtractionResult` carries every intermediate so
the evaluation harness (and curious users) can inspect each stage.

The pipeline is permanently instrumented: hand the extractor an
:class:`~repro.observability.Observability` bundle and it produces a
trace (``pipeline`` → ``stage:*`` → ``resource:*`` spans) plus a
metrics registry with per-stage timers and per-resource cache
counters.  Without a bundle the no-op tracer is used and every probe
costs one ``None`` check, so results are unaffected.

Steps 1–2 run in one thread of control.  Remote latency is amortized
by the resource engine's batching: each engine pass asks every
resource one batch of the corpus's distinct important terms.
"""

from __future__ import annotations

import time
from collections.abc import Callable
from dataclasses import dataclass, field

from ..config import ParallelConfig
from ..corpus.document import Document
from ..db.inverted_index import InvertedIndex
from ..db.resource_cache import PersistentResourceCache
from ..db.store import DocumentStore
from ..extractors.base import TermExtractor
from ..observability import DISABLED, Observability, ResourceStats, SpanTimings
from ..observability.logging import get_logger
from ..resources.base import ExternalResource
from .annotate import AnnotatedDatabase, annotate_database, reject_duplicate_ids
from .contextualize import ContextualizedDatabase, contextualize
from .hierarchy import FacetHierarchy, hierarchies_from_postings
from .selection import DEFAULT_TOP_K, FacetTermCandidate, select_facet_terms

log = get_logger(__name__)

#: The four stages, in execution order (span names are ``stage:<name>``).
STAGES = ("annotation", "contextualization", "selection", "hierarchy")


@dataclass
class FacetExtractionResult:
    """Everything the pipeline produced."""

    documents: list[Document]
    annotated: AnnotatedDatabase
    contextualized: ContextualizedDatabase
    facet_terms: list[FacetTermCandidate]
    hierarchies: list[FacetHierarchy] = field(default_factory=list)
    timings: SpanTimings = field(default_factory=SpanTimings)
    resource_stats: dict[str, ResourceStats] = field(default_factory=dict)
    """Per-resource cache counters observed during this run (the
    difference of each resource's counters across the run, so a second
    run on the same pipeline reports only its own lookups)."""
    store: DocumentStore | None = None
    """The document store the run was fed from, when one existed."""
    _built_store: DocumentStore | None = field(
        default=None, init=False, repr=False, compare=False
    )
    _built_index: InvertedIndex | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def facet_term_strings(self) -> list[str]:
        """Just the selected terms, ranked by score."""
        return [candidate.term for candidate in self.facet_terms]


class FacetExtractor:
    """The unsupervised facet-extraction pipeline of Section IV.

    Parameters
    ----------
    extractors:
        Term extractors for Step 1 (any subset of NE / Yahoo / Wikipedia).
    resources:
        External resources for Step 2 (any subset of Google / WordNet /
        Wikipedia Graph / Wikipedia Synonyms, or a composite).
    top_k:
        Facet terms to keep after the Figure 3 ranking.
    statistic:
        ``"log-likelihood"`` (paper) or ``"chi-square"`` (ablation).
    build_hierarchies:
        Skip hierarchy construction when False (recall studies only
        need the flat term set).
    parallel:
        Batch-execution settings for Steps 1-2 (persistent cache path,
        memory-tier bound).  Its ``workers`` field is ignored: a value
        other than 1 only logs ``pipeline.workers_ignored``.
    resource_cache:
        An already-open persistent cache to attach to the resources;
        overrides ``parallel.cache_path``.  Useful when several
        pipelines should share one store.
    cache_fingerprint:
        Extra namespace component for persistent-cache entries (e.g.
        :meth:`~repro.config.ReproConfig.cache_fingerprint`), keeping
        differently-configured runs from sharing answers.
    observability:
        Tracing/metrics bundle; None (default) installs the zero-cost
        no-op bundle.
    """

    def __init__(
        self,
        extractors: list[TermExtractor],
        resources: list[ExternalResource],
        top_k: int = DEFAULT_TOP_K,
        statistic: str = "log-likelihood",
        require_both_shifts: bool = True,
        subsumption_threshold: float = 0.8,
        build_hierarchies: bool = True,
        edge_validator: Callable[[str, str], bool] | None = None,
        parallel: ParallelConfig | None = None,
        resource_cache: PersistentResourceCache | None = None,
        cache_fingerprint: str = "",
        observability: Observability | None = None,
    ) -> None:
        if not extractors:
            raise ValueError("FacetExtractor needs at least one extractor")
        if not resources:
            raise ValueError("FacetExtractor needs at least one resource")
        self._extractors = list(extractors)
        self._resources = list(resources)
        self._top_k = top_k
        self._statistic = statistic
        self._require_both_shifts = require_both_shifts
        self._subsumption_threshold = subsumption_threshold
        self._build_hierarchies = build_hierarchies
        self._edge_validator = edge_validator
        self._parallel = parallel or ParallelConfig()
        if self._parallel.workers != 1:
            # Steps 1-2 run in one thread of control; tell whoever still
            # asks for a pool that the field does nothing.
            log.warning("pipeline.workers_ignored", workers=self._parallel.workers)
        self._cache_fingerprint = cache_fingerprint
        self.observability = observability or DISABLED
        cache = resource_cache
        if cache is None and self._parallel.cache_path:
            cache = PersistentResourceCache(self._parallel.cache_path)
        self.resource_cache = cache
        if cache is not None:
            for resource in self._resources:
                resource.attach_cache(cache, namespace=self.cache_namespace(resource))

    def cache_namespace(self, resource: ExternalResource) -> str:
        """The persistent-tier namespace of one of this pipeline's
        resources: its own namespace plus the cache fingerprint."""
        namespace = resource.cache_namespace()
        if self._cache_fingerprint:
            namespace = f"{namespace}|{self._cache_fingerprint}"
        return namespace

    @property
    def parallel(self) -> ParallelConfig:
        """The batch-execution settings this pipeline runs with."""
        return self._parallel

    @property
    def extractors(self) -> list[TermExtractor]:
        """The Step-1 extractors (shared list — do not mutate)."""
        return self._extractors

    @property
    def resources(self) -> list[ExternalResource]:
        """The Step-2 resources (shared list — do not mutate)."""
        return self._resources

    @property
    def top_k(self) -> int:
        """Facet terms kept after the Figure 3 ranking."""
        return self._top_k

    @property
    def statistic(self) -> str:
        """Ranking statistic (``log-likelihood`` or ``chi-square``)."""
        return self._statistic

    @property
    def require_both_shifts(self) -> bool:
        """Whether candidates need both shifts positive."""
        return self._require_both_shifts

    @property
    def subsumption_threshold(self) -> float:
        """``P(x | y)`` cut-off used for hierarchy construction."""
        return self._subsumption_threshold

    @property
    def build_hierarchies(self) -> bool:
        """Whether hierarchy construction runs after selection."""
        return self._build_hierarchies

    @property
    def edge_validator(self) -> Callable[[str, str], bool] | None:
        """Independent-evidence check for subsumption edges, if any."""
        return self._edge_validator

    def run(
        self,
        documents: list[Document],
        store: DocumentStore | None = None,
    ) -> FacetExtractionResult:
        """Extract facets from a document collection.

        ``store``, when given, is carried onto the result so
        :meth:`~repro.core.interface.FacetedInterface.from_result` reuses
        it instead of building a fresh one.

        Raises :class:`ValueError` on a repeated document id
        (:func:`~repro.core.annotate.reject_duplicate_ids`), before any
        stage runs.
        """
        reject_duplicate_ids(documents)
        obs = self.observability
        stats_before = [resource.cache_stats for resource in self._resources]
        timings = SpanTimings()
        log.info("pipeline.start", documents=len(documents))
        with obs.collect(), obs.tracer.span(
            "pipeline", documents=len(documents)
        ) as pipeline_span:
            annotated, contextualized, facet_terms, hierarchies = self._run_stages(
                documents, timings, obs
            )
            pipeline_span.add("facet_terms", len(facet_terms))
            pipeline_span.add("facets", len(hierarchies))
            if obs.metrics is not None:
                for stage in STAGES:
                    obs.metrics.record_time(
                        f"stage.{stage}.seconds", getattr(timings, stage)
                    )
        log.info(
            "pipeline.done",
            documents=len(documents),
            facet_terms=len(facet_terms),
            facets=len(hierarchies),
            seconds=round(timings.total, 3),
        )
        return FacetExtractionResult(
            documents=list(documents),
            annotated=annotated,
            contextualized=contextualized,
            facet_terms=facet_terms,
            hierarchies=hierarchies,
            timings=timings,
            resource_stats={
                resource.cache_namespace(): resource.cache_stats - before
                for resource, before in zip(self._resources, stats_before)
            },
            store=store,
        )

    def _run_stages(
        self,
        documents: list[Document],
        timings: SpanTimings,
        obs: Observability,
    ) -> tuple[
        AnnotatedDatabase,
        ContextualizedDatabase,
        list[FacetTermCandidate],
        list[FacetHierarchy],
    ]:
        with obs.tracer.span("stage:annotation") as span:
            start = time.perf_counter()
            annotated = annotate_database(documents, self._extractors)
            timings.annotation = time.perf_counter() - start
            span.add("documents", len(documents))

        with obs.tracer.span("stage:contextualization") as span:
            start = time.perf_counter()
            contextualized = contextualize(annotated, self._resources)
            timings.contextualization = time.perf_counter() - start
            span.add("documents", len(documents))

        with obs.tracer.span("stage:selection") as span:
            start = time.perf_counter()
            facet_terms = select_facet_terms(
                contextualized,
                top_k=self._top_k,
                statistic=self._statistic,
                require_both_shifts=self._require_both_shifts,
            )
            timings.selection = time.perf_counter() - start
            span.add("selected", len(facet_terms))

        hierarchies: list[FacetHierarchy] = []
        if self._build_hierarchies:
            with obs.tracer.span("stage:hierarchy") as span:
                start = time.perf_counter()
                hierarchies = hierarchies_from_postings(
                    facet_terms,
                    contextualized.columns,
                    threshold=self._subsumption_threshold,
                    edge_validator=self._edge_validator,
                )
                timings.hierarchy = time.perf_counter() - start
                span.add("facets", len(hierarchies))
        return annotated, contextualized, facet_terms, hierarchies
