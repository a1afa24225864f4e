"""Convenience builder wiring the full default pipeline.

Assembles the world, substrates, all three extractors, and all four
resources into a ready-to-run :class:`~repro.core.pipeline.FacetExtractor`
— the "All x All" configuration of the paper's tables.  Individual
extractor/resource subsets (for the per-cell table experiments) are
selected with :meth:`FacetPipelineBuilder.with_extractors` /
:meth:`FacetPipelineBuilder.with_resources`.
"""

from __future__ import annotations

import time

from .config import ParallelConfig, ReproConfig
from .core.evidence import LinkEvidence
from .core.pipeline import FacetExtractor
from .extractors.base import ExtractorName
from .extractors.registry import build_extractors
from .kb.world import World, build_world
from .observability import Observability
from .observability.logging import get_logger
from .resources.base import ResourceName
from .resources.composite import CompositeResource
from .resources.registry import ResourceSubstrates, build_resources
from .text.vocabulary import Vocabulary

log = get_logger(__name__)


class FacetPipelineBuilder:
    """Fluent construction of configured pipelines over shared substrates.

    Substrates (the simulated Wikipedia, web, and WordNet) are built once
    per builder and shared across every pipeline it produces, so sweeping
    the extractor x resource grid does not rebuild them 20 times.
    """

    def __init__(
        self,
        config: ReproConfig | None = None,
        world: World | None = None,
        background: Vocabulary | None = None,
    ) -> None:
        self.config = config or ReproConfig()
        start = time.perf_counter()
        self.world = world or build_world(self.config)
        self.substrates = ResourceSubstrates.build(self.world, self.config)
        log.debug(
            "builder.substrates_ready",
            seed=self.config.seed,
            scale=self.config.scale,
            seconds=round(time.perf_counter() - start, 3),
        )
        self.edge_evidence = LinkEvidence(
            wikipedia=self.substrates.wikipedia,
            lexicon=self.substrates.lookup,
        )
        self._background = background
        self._extractor_names: list[ExtractorName] = list(ExtractorName)
        self._resource_names: list[ResourceName] = list(ResourceName)
        self._top_k = 200
        self._statistic = "log-likelihood"
        self._require_both_shifts = True
        self._build_hierarchies = True
        self._parallel = self.config.parallel
        self._observability: Observability | None = None

    # -- fluent configuration ----------------------------------------------------

    def with_extractors(self, names: list[ExtractorName | str]) -> "FacetPipelineBuilder":
        self._extractor_names = [
            ExtractorName(n) if isinstance(n, str) else n for n in names
        ]
        return self

    def with_resources(self, names: list[ResourceName | str]) -> "FacetPipelineBuilder":
        self._resource_names = [
            ResourceName(n) if isinstance(n, str) else n for n in names
        ]
        return self

    def with_background(self, background: Vocabulary) -> "FacetPipelineBuilder":
        """Background statistics for the Yahoo-style extractor's idf."""
        self._background = background
        return self

    def with_top_k(self, top_k: int) -> "FacetPipelineBuilder":
        self._top_k = top_k
        return self

    def with_statistic(self, statistic: str) -> "FacetPipelineBuilder":
        self._statistic = statistic
        return self

    def with_shift_requirement(self, require_both: bool) -> "FacetPipelineBuilder":
        self._require_both_shifts = require_both
        return self

    def without_hierarchies(self) -> "FacetPipelineBuilder":
        self._build_hierarchies = False
        return self

    def with_parallel(self, parallel: ParallelConfig) -> "FacetPipelineBuilder":
        """Batch-execution settings (cache path, memory-tier bound)."""
        self._parallel = parallel
        return self

    def with_observability(
        self, observability: Observability | None
    ) -> "FacetPipelineBuilder":
        """Tracing/metrics bundle for built pipelines (None disables)."""
        self._observability = observability
        return self

    # -- construction -------------------------------------------------------------

    def build(self) -> FacetExtractor:
        """Materialize the configured pipeline."""
        extractors = build_extractors(
            list(self._extractor_names),
            wikipedia=self.substrates.wikipedia,
            background=self._background,
        )
        resources = build_resources(
            list(self._resource_names), self.substrates, self.config
        )
        composite = [CompositeResource(resources)] if len(resources) > 1 else []
        for resource in resources + composite:
            resource.resize_memory_cache(self._parallel.memory_cache_size)
        resource_list = composite or resources
        log.debug(
            "builder.pipeline_built",
            extractors=[name.value for name in self._extractor_names],
            resources=[name.value for name in self._resource_names],
        )
        return FacetExtractor(
            extractors=extractors,
            resources=resource_list,
            top_k=self._top_k,
            statistic=self._statistic,
            require_both_shifts=self._require_both_shifts,
            build_hierarchies=self._build_hierarchies,
            edge_validator=self.edge_evidence,
            parallel=self._parallel,
            cache_fingerprint=self.config.cache_fingerprint(),
            observability=self._observability,
        )

    def build_incremental(self, checkpoint_dir: str | None = None):
        """Materialize an incremental extractor over a fresh pipeline.

        Checkpointing follows ``config.incremental``: when a checkpoint
        directory is configured (or passed here, which wins), checkpoints
        are committed on the configured cadence and — unless
        ``config.incremental.resume`` is off — the committed one is
        restored before the first append.
        """
        from .incremental import CheckpointStore, IncrementalExtractor

        settings = self.config.incremental
        directory = (
            checkpoint_dir if checkpoint_dir is not None else settings.checkpoint_dir
        )
        pipeline = self.build()
        if directory is None:
            return IncrementalExtractor(
                pipeline, checkpoint_every=settings.checkpoint_every
            )
        store = CheckpointStore(directory)
        if settings.resume:
            return IncrementalExtractor.restore(
                pipeline, store, checkpoint_every=settings.checkpoint_every
            )
        return IncrementalExtractor(
            pipeline, checkpoint=store, checkpoint_every=settings.checkpoint_every
        )
