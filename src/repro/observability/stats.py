"""Result-introspection types: per-stage timings and per-resource stats.

These are the structured objects carried by
:class:`~repro.core.pipeline.FacetExtractionResult`.  They live here —
not in ``core.pipeline`` — because they are observability data, produced
by the same instrumentation that feeds the tracer and the metrics
registry.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from .tracing import Span


@dataclass
class SpanTimings:
    """Wall-clock seconds per pipeline stage (the Section V-D numbers)."""

    annotation: float = 0.0
    contextualization: float = 0.0
    selection: float = 0.0
    hierarchy: float = 0.0

    @property
    def total(self) -> float:
        return self.annotation + self.contextualization + self.selection + self.hierarchy

    def as_dict(self) -> dict[str, float]:
        return {
            "annotation": self.annotation,
            "contextualization": self.contextualization,
            "selection": self.selection,
            "hierarchy": self.hierarchy,
            "total": self.total,
        }

    @classmethod
    def from_spans(cls, roots: list[Span]) -> "SpanTimings":
        """Recover stage timings from a recorded trace forest."""
        timings = cls()
        for root in roots:
            for span in root.walk():
                stage = str(span.tags.get("stage", ""))
                if span.name.startswith("stage:"):
                    stage = span.name.split(":", 1)[1]
                if hasattr(timings, stage) and stage in (
                    "annotation",
                    "contextualization",
                    "selection",
                    "hierarchy",
                ):
                    setattr(
                        timings, stage, getattr(timings, stage) + span.duration
                    )
        return timings


@dataclass(frozen=True)
class ResourceStats:
    """Exact counter snapshot for one resource's query engine.

    ``batch_queries`` counts bulk backend calls issued by the batched
    path; each one answers many misses at once.  ``coalesced_hits`` and
    ``coalesce_wait_seconds`` always read 0: the query engine no longer
    coalesces, and they stay only because the benchmark worker
    (``bench/worker.py``) still reads them.
    """

    memory_hits: int = 0
    persistent_hits: int = 0
    misses: int = 0
    coalesced_hits: int = 0
    coalesce_wait_seconds: float = 0.0
    batch_queries: int = 0

    def __sub__(self, other: ResourceStats) -> ResourceStats:
        """Field-wise difference: the counters accrued since ``other``."""
        return ResourceStats(
            **{
                f.name: getattr(self, f.name) - getattr(other, f.name)
                for f in fields(self)
            }
        )

    @property
    def hits(self) -> int:
        """Lookups that avoided a backend query (either tier)."""
        return self.memory_hits + self.persistent_hits

    @property
    def queries(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of queries answered without a backend round trip."""
        queries = self.queries
        return self.hits / queries if queries else 0.0

    @property
    def memory_hit_rate(self) -> float:
        """Fraction of queries answered by the in-process LRU tier."""
        queries = self.queries
        return self.memory_hits / queries if queries else 0.0

    def as_dict(self) -> dict[str, float]:
        return {
            "memory_hits": self.memory_hits,
            "persistent_hits": self.persistent_hits,
            "misses": self.misses,
            "batch_queries": self.batch_queries,
            "hits": self.hits,
            "queries": self.queries,
            "hit_rate": self.hit_rate,
            "memory_hit_rate": self.memory_hit_rate,
        }
