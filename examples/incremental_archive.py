"""Incremental archive maintenance (the Section V-D deployment loop).

A news archive ingests a new day of stories at a time; term and context
extraction run only on the new batch (resources memoize per-term
answers), and the facet hierarchies refresh from the accumulated df and
co-occurrence statistics — byte-identical to a full recompute over the
union corpus.

Run:  python examples/incremental_archive.py
"""

from __future__ import annotations

from repro import FacetPipelineBuilder
from repro.config import ReproConfig
from repro.corpus import build_snyt


def main() -> None:
    config = ReproConfig(scale=0.3)
    corpus = build_snyt(config)
    days = [corpus.documents[i::3] for i in range(3)]  # three "days"

    archive = FacetPipelineBuilder(config).build_incremental()
    for day, batch in enumerate(days, start=1):
        report = archive.append(batch, batch_id=f"day-{day}")
        print(
            f"day {day}: +{report.documents} stories "
            f"({report.seconds:.2f}s, {report.dirty_documents} re-expanded); "
            f"archive={archive.document_count}"
        )
        print("  top facets:", ", ".join(c.term for c in archive.facet_terms[:8]))


if __name__ == "__main__":
    main()
