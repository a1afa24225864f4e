"""Configuration objects shared across the library.

All stochastic components receive seeds derived from a single
:class:`ReproConfig`, so a fixed configuration reproduces every experiment
bit-for-bit.  Dataset sizes follow the paper (SNYT = 1,000, SNB = 17,000,
MNYT = 30,000 stories) scaled by ``scale`` (or the ``REPRO_SCALE``
environment variable) for quick runs.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field

from .errors import ConfigError
from .observability.logging import get_logger

log = get_logger(__name__)

#: Dataset sizes used in the paper (Section V-A).
PAPER_SNYT_SIZE = 1_000
PAPER_SNB_SIZE = 17_000
PAPER_MNYT_SIZE = 30_000

#: Number of news sources aggregated by Newsblaster (Section V-A).
PAPER_SNB_SOURCES = 24

#: Number of stories annotated per dataset in the recall study (Section V-B).
PAPER_ANNOTATED_SAMPLE = 1_000

#: Annotators per story in the Mechanical Turk studies (Section V-B/V-C).
PAPER_ANNOTATORS_PER_STORY = 5

#: Agreement thresholds from the paper: a gold term needs >= 2 annotators;
#: a facet term is "precise" when >= 4 of 5 annotators agree.
PAPER_RECALL_AGREEMENT = 2
PAPER_PRECISION_AGREEMENT = 4

#: Top-k Wikipedia Graph neighbours returned per query (footnote 8).
PAPER_WIKI_GRAPH_TOP_K = 50


def _env_scale(default: float = 1.0) -> float:
    """Read the ``REPRO_SCALE`` environment variable, if set."""
    raw = os.environ.get("REPRO_SCALE")
    if raw is None:
        return default
    try:
        value = float(raw)
    except ValueError as exc:
        raise ConfigError(f"REPRO_SCALE must be a number, got {raw!r}") from exc
    if value <= 0:
        raise ConfigError(f"REPRO_SCALE must be positive, got {value}")
    log.debug("config.env_override", variable="REPRO_SCALE", value=value)
    return value


def _env_workers(default: int = 1) -> int:
    """Read the ``REPRO_WORKERS`` environment variable, if set."""
    raw = os.environ.get("REPRO_WORKERS")
    if raw is None:
        return default
    try:
        value = int(raw)
    except ValueError as exc:
        raise ConfigError(f"REPRO_WORKERS must be an integer, got {raw!r}") from exc
    if value < 1:
        raise ConfigError(f"REPRO_WORKERS must be >= 1, got {value}")
    log.debug("config.env_override", variable="REPRO_WORKERS", value=value)
    return value


#: Chunks handed out per worker when ``chunk_size`` is automatic; more
#: than one keeps the pool busy when chunks are unevenly expensive.
_AUTO_CHUNKS_PER_WORKER = 4


@dataclass(frozen=True, kw_only=True)
class ParallelConfig:
    """Batch-execution settings for the parallel pipeline.

    All parameters are keyword-only: positional construction silently
    reordering ``workers``/``chunk_size`` is exactly the kind of bug a
    frozen config should rule out.

    Parameters
    ----------
    workers:
        Worker pool size for Step 1 annotation and Step 2
        contextualization.  ``1`` (default, or ``REPRO_WORKERS``) runs
        the stages serially; results are bit-for-bit identical at every
        worker count.
    chunk_size:
        Documents per work chunk; None derives a size from the corpus
        and worker count.  Chunking never changes results, only
        scheduling granularity.
    backend:
        ``"thread"`` (default; right for the latency-bound remote
        resources) or ``"process"`` (sidesteps the GIL for CPU-bound
        extraction; requires picklable extractors/resources).
    cache_path:
        SQLite file for the shared persistent resource cache; None
        keeps resource caching purely in-process.
    memory_cache_size:
        Bound of each resource's in-process LRU tier.
    """

    workers: int = field(default_factory=_env_workers)
    chunk_size: int | None = None
    backend: str = "thread"
    cache_path: str | None = None
    memory_cache_size: int = 65_536

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ConfigError(f"workers must be >= 1, got {self.workers}")
        if self.chunk_size is not None and self.chunk_size < 1:
            raise ConfigError(f"chunk_size must be >= 1, got {self.chunk_size}")
        if self.backend not in ("thread", "process"):
            raise ConfigError(
                f"backend must be 'thread' or 'process', got {self.backend!r}"
            )
        if self.memory_cache_size < 1:
            raise ConfigError(
                f"memory_cache_size must be >= 1, got {self.memory_cache_size}"
            )

    @property
    def enabled(self) -> bool:
        """True when the worker pool is actually used."""
        return self.workers > 1

    def resolve_chunk_size(self, item_count: int) -> int:
        """Chunk size for ``item_count`` items (explicit or derived)."""
        if self.chunk_size is not None:
            return self.chunk_size
        divisor = max(1, self.workers * _AUTO_CHUNKS_PER_WORKER)
        return max(1, -(-item_count // divisor))


@dataclass(frozen=True, kw_only=True)
class IncrementalConfig:
    """Settings for the incremental (streaming) extraction path.

    Parameters
    ----------
    checkpoint_dir:
        Run directory of the checkpoint database; None disables
        checkpointing (the in-memory incremental state still works).
    checkpoint_every:
        Checkpoint after every N ingested batches.
    resume:
        Load the committed checkpoint from ``checkpoint_dir`` on
        start-up instead of beginning from an empty corpus.
    """

    checkpoint_dir: str | None = None
    checkpoint_every: int = 1
    resume: bool = True

    def __post_init__(self) -> None:
        if self.checkpoint_every < 1:
            raise ConfigError(
                f"checkpoint_every must be >= 1, got {self.checkpoint_every}"
            )


@dataclass(frozen=True, kw_only=True)
class ServingConfig:
    """Settings for the faceted-browsing HTTP service.

    Parameters
    ----------
    host / port:
        Bind address.  Port ``0`` asks the OS for a free port (the bound
        port is printed and available on the running server object).
    default_limit:
        Documents returned when a request does not pass ``limit``.
    max_limit:
        Hard row cap; requests asking for more are rejected with 400.
    time_budget_seconds:
        Per-request wall-clock budget; queries still running when it
        expires are answered with 503.
    cache_max_age:
        ``Cache-Control: max-age`` seconds on data responses (every data
        response also carries an ETag derived from the artifact
        checksum, so conditional requests revalidate cheaply).
    """

    host: str = "127.0.0.1"
    port: int = 8125
    default_limit: int = 10
    max_limit: int = 200
    time_budget_seconds: float = 5.0
    cache_max_age: int = 60

    def __post_init__(self) -> None:
        if not 0 <= self.port <= 65535:
            raise ConfigError(f"port must be in [0, 65535], got {self.port}")
        if self.default_limit < 1:
            raise ConfigError(
                f"default_limit must be >= 1, got {self.default_limit}"
            )
        if self.max_limit < self.default_limit:
            raise ConfigError(
                f"max_limit must be >= default_limit, got {self.max_limit}"
            )
        if self.time_budget_seconds <= 0:
            raise ConfigError(
                "time_budget_seconds must be positive, got "
                f"{self.time_budget_seconds}"
            )
        if self.cache_max_age < 0:
            raise ConfigError(
                f"cache_max_age must be >= 0, got {self.cache_max_age}"
            )


@dataclass(frozen=True, kw_only=True)
class ReproConfig:
    """Top-level configuration for experiments.

    All parameters are keyword-only (``ReproConfig(seed=7, scale=0.1)``).

    Parameters
    ----------
    seed:
        Master seed.  Component seeds are derived deterministically from it.
    scale:
        Multiplier applied to the paper's corpus sizes.  ``1.0`` builds the
        full SNYT/SNB/MNYT corpora; smaller values shrink them
        proportionally (the annotated sample shrinks too, but never below
        50 stories).
    wiki_graph_top_k:
        ``k`` for the Wikipedia Graph resource (the paper uses 50).
    annotators_per_story:
        Mechanical Turk annotators assigned to each story.
    parallel:
        Batch-execution settings (worker count, chunk size, shared
        cache path); the default is serial with no persistent cache.
    incremental:
        Streaming-extraction settings (checkpoint directory, cadence,
        resume); the default keeps everything in memory.
    """

    seed: int = 20080407
    scale: float = field(default_factory=_env_scale)
    wiki_graph_top_k: int = PAPER_WIKI_GRAPH_TOP_K
    annotators_per_story: int = PAPER_ANNOTATORS_PER_STORY
    parallel: ParallelConfig = field(default_factory=ParallelConfig)
    incremental: IncrementalConfig = field(default_factory=IncrementalConfig)

    def __post_init__(self) -> None:
        if self.scale <= 0:
            raise ConfigError(f"scale must be positive, got {self.scale}")
        if self.wiki_graph_top_k <= 0:
            raise ConfigError(
                f"wiki_graph_top_k must be positive, got {self.wiki_graph_top_k}"
            )
        if self.annotators_per_story < 1:
            raise ConfigError(
                "annotators_per_story must be at least 1, got "
                f"{self.annotators_per_story}"
            )

    def rng(self, namespace: str) -> random.Random:
        """Return a deterministic RNG for a named component."""
        return random.Random(f"{self.seed}:{namespace}")

    def cache_fingerprint(self) -> str:
        """Namespace suffix isolating persistent-cache entries per world.

        Two runs with different seeds/scales simulate different worlds
        whose resources answer differently; sharing one cache file is
        only safe when entries carry this fingerprint.
        """
        return f"seed={self.seed}|scale={self.scale}|k={self.wiki_graph_top_k}"

    def scaled(self, size: int, minimum: int = 10) -> int:
        """Scale a paper corpus size, bounded below by ``minimum``."""
        return max(minimum, int(round(size * self.scale)))

    @property
    def snyt_size(self) -> int:
        return self.scaled(PAPER_SNYT_SIZE)

    @property
    def snb_size(self) -> int:
        return self.scaled(PAPER_SNB_SIZE)

    @property
    def mnyt_size(self) -> int:
        return self.scaled(PAPER_MNYT_SIZE)

    @property
    def annotated_sample_size(self) -> int:
        return self.scaled(PAPER_ANNOTATED_SAMPLE, minimum=50)


DEFAULT_CONFIG = ReproConfig()
