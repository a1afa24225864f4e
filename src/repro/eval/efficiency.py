"""The efficiency study (Section V-D).

The paper reports, per document:

* term extraction at 2-3 seconds when the Yahoo web service is in the
  loop, ~100 documents/second without it;
* expansion at ~1 second with Google, >100 documents/second with the
  local resources (Wikipedia, WordNet);
* facet-term selection in milliseconds; hierarchy construction in 1-2
  seconds.

We measure the local implementations directly and *model* the remote
round trips (the stand-ins carry the paper's measured latencies), then
report both, so the benchmark regenerates the same qualitative account:
web-service extraction dominates, local resources are orders of
magnitude faster, selection is nearly free.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from ..builder import FacetPipelineBuilder
from ..config import ReproConfig
from ..corpus.document import Document
from ..core.annotate import annotate_database
from ..core.contextualize import contextualize
from ..core.hierarchy import build_facet_hierarchies
from ..core.selection import select_facet_terms
from ..extractors.base import ExtractorName
from ..extractors.registry import build_extractors
from ..extractors.significant_terms import SIMULATED_LATENCY_SECONDS
from ..resources.base import ResourceName
from ..resources.registry import build_resources

#: Modeled per-document latency of Google expansion (Section V-D: ~1 s).
GOOGLE_LATENCY_SECONDS = 1.0


@dataclass
class EfficiencyReport:
    """Per-stage throughput, measured and modeled."""

    documents: int
    extraction_local_s_per_doc: float
    extraction_with_yahoo_s_per_doc: float
    expansion_local_s_per_doc: float
    expansion_with_google_s_per_doc: float
    selection_s: float
    hierarchy_s: float

    @property
    def extraction_local_docs_per_s(self) -> float:
        return 1.0 / max(self.extraction_local_s_per_doc, 1e-9)

    @property
    def expansion_local_docs_per_s(self) -> float:
        return 1.0 / max(self.expansion_local_s_per_doc, 1e-9)

    def format_summary(self) -> str:
        return "\n".join(
            [
                f"Efficiency over {self.documents} documents:",
                "  term extraction (local NE+Wikipedia): "
                f"{self.extraction_local_docs_per_s:,.0f} docs/s "
                f"({self.extraction_local_s_per_doc * 1000:.2f} ms/doc)",
                "  term extraction (with Yahoo web service, modeled): "
                f"{self.extraction_with_yahoo_s_per_doc:.2f} s/doc",
                "  expansion (local Wikipedia+WordNet): "
                f"{self.expansion_local_docs_per_s:,.0f} docs/s "
                f"({self.expansion_local_s_per_doc * 1000:.2f} ms/doc)",
                "  expansion (with Google, modeled): "
                f"{self.expansion_with_google_s_per_doc:.2f} s/doc",
                f"  facet-term selection: {self.selection_s * 1000:.1f} ms",
                f"  hierarchy construction: {self.hierarchy_s:.2f} s",
            ]
        )


class EfficiencyStudy:
    """Time every stage on a document sample."""

    def __init__(
        self,
        config: ReproConfig | None = None,
        builder: FacetPipelineBuilder | None = None,
    ) -> None:
        self.config = config or ReproConfig()
        self.builder = builder or FacetPipelineBuilder(self.config)

    def run(self, documents: list[Document]) -> EfficiencyReport:
        n = max(len(documents), 1)
        substrates = self.builder.substrates

        # Local extraction: NE + Wikipedia titles (no web service).
        local_extractors = build_extractors(
            [ExtractorName.NAMED_ENTITIES, ExtractorName.WIKIPEDIA],
            wikipedia=substrates.wikipedia,
        )
        start = time.perf_counter()
        annotated_local = annotate_database(documents, local_extractors)
        extraction_local = (time.perf_counter() - start) / n

        # With Yahoo: measure the local tf-idf cost, add the modeled
        # web-service latency the paper observed.
        yahoo = build_extractors(
            [ExtractorName.YAHOO], wikipedia=substrates.wikipedia
        )
        start = time.perf_counter()
        annotate_database(documents, yahoo)
        yahoo_local = (time.perf_counter() - start) / n
        extraction_with_yahoo = (
            extraction_local + yahoo_local + SIMULATED_LATENCY_SECONDS
        )

        # Local expansion: Wikipedia Graph + Synonyms + WordNet.
        local_resources = build_resources(
            [
                ResourceName.WIKI_GRAPH,
                ResourceName.WIKI_SYNONYMS,
                ResourceName.WORDNET,
            ],
            substrates,
            self.config,
        )
        start = time.perf_counter()
        contextualized = contextualize(annotated_local, local_resources)
        expansion_local = (time.perf_counter() - start) / n

        # With Google: measure the simulated engine, add modeled latency.
        google = build_resources([ResourceName.GOOGLE], substrates, self.config)
        start = time.perf_counter()
        contextualize(annotated_local, google)
        google_local = (time.perf_counter() - start) / n
        expansion_with_google = (
            expansion_local + google_local + GOOGLE_LATENCY_SECONDS
        )

        start = time.perf_counter()
        candidates = select_facet_terms(contextualized)
        selection_s = time.perf_counter() - start

        start = time.perf_counter()
        build_facet_hierarchies(candidates, contextualized)
        hierarchy_s = time.perf_counter() - start

        return EfficiencyReport(
            documents=len(documents),
            extraction_local_s_per_doc=extraction_local,
            extraction_with_yahoo_s_per_doc=extraction_with_yahoo,
            expansion_local_s_per_doc=expansion_local,
            expansion_with_google_s_per_doc=expansion_with_google,
            selection_s=selection_s,
            hierarchy_s=hierarchy_s,
        )
