"""Offline deployment: extract once, checkpoint, facet later from the checkpoint.

Section V-D recommends performing term and context extraction offline
and computing facets over query results later.  This example runs the
offline phase as one stream append into a checkpoint store, which
persists every document with its important terms and context terms,
and compiles the serving artifact for the browsing half.  A fresh
pipeline then restores the checkpoint (no re-extraction, no resource
queries) and serves query-time dynamic faceting from it.

Run:  python examples/offline_snapshot.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro import FacetPipelineBuilder
from repro.config import ReproConfig
from repro.core.dynamic import DynamicFaceter
from repro.corpus import build_snyt
from repro.incremental import CheckpointStore, IncrementalExtractor
from repro.serving import FacetIndex


def main() -> None:
    config = ReproConfig(scale=0.1)
    corpus = build_snyt(config)

    with tempfile.TemporaryDirectory() as tmp:
        run_dir = Path(tmp) / "run"
        index_path = str(Path(tmp) / "facets.idx")

        # --- the offline phase ---
        offline = IncrementalExtractor(
            FacetPipelineBuilder(config).build(),
            checkpoint=CheckpointStore(run_dir),
        )
        offline.append(corpus.documents, batch_id="archive")
        print(f"checkpointed {offline.document_count} documents -> {run_dir}")
        with FacetIndex.build(offline.snapshot_result(), path=index_path) as index:
            print(f"built a {index.facet_count}-facet serving index -> {index_path}")

        # --- a fresh process would start here ---
        restored = IncrementalExtractor.restore(
            FacetPipelineBuilder(config).build(), CheckpointStore(run_dir)
        )
        snapshot = restored.snapshot_result()
        print(
            f"reloaded {restored.document_count} documents and their "
            f"expansions from the checkpoint"
        )

        doc = snapshot.documents[0]
        print(f"\n[{doc.doc_id}] {doc.title}")
        print("important terms:", snapshot.annotated.important(doc.doc_id))

        faceter = DynamicFaceter(snapshot.contextualized)
        subset = [d.doc_id for d in snapshot.documents[:30]]
        terms = faceter.facet_terms(subset)
        print(
            "dynamic facets over 30 reloaded docs:",
            [c.term for c in terms[:8]],
        )


if __name__ == "__main__":
    main()
