"""Differential pin of the subsumption forest.

The facet forest — every node's parent, its sorted children and its
document count — over the selected facet terms of a small mixed corpus
(the pinned ``DOC`` story plus the first stories of SNYT, SNB and
MNYT), with and without the :class:`~repro.core.evidence.LinkEvidence`
edge validator.  The digests were recorded while the hierarchy stage
still had three inputs — a scan of every document's expanded term set,
the batch columns' postings and the stream's string postings — and all
three produced them.  Every later input (positional postings, bitmaps)
must reproduce them, through the batch pipeline and through the stream.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.core.hierarchy import FacetHierarchy, build_facet_hierarchies
from repro.corpus import build_mnyt, build_snb, build_snyt
from repro.incremental import IncrementalExtractor, canonical_json

from .test_columnar import DOC

#: sha256 of :func:`forest_bytes` without an edge validator.
PLAIN_FOREST_SHA256 = (
    "df3f2980e619f9e67e158ae5c6e865201245de7646dfd599033727f867c98941"
)

#: sha256 of :func:`forest_bytes` with the builder's ``LinkEvidence``.
EVIDENCE_FOREST_SHA256 = (
    "dea741532c44f096d1e3a0055f8315e64309de264487ce8382f12ae6fc23e1c0"
)


def forest_bytes(hierarchies: list[FacetHierarchy]) -> bytes:
    """Canonical bytes of ``[term, parent, sorted children, count]`` rows."""
    rows: list[list] = []
    for facet in hierarchies:
        stack = [(facet.root, None)]
        while stack:
            node, parent = stack.pop()
            rows.append(
                [
                    node.term,
                    parent,
                    sorted(child.term for child in node.children),
                    node.count,
                ]
            )
            stack.extend((child, node.term) for child in node.children)
    rows.sort(key=lambda row: (row[0], row[1] or ""))
    return canonical_json(rows).encode("utf-8")


def digest(hierarchies: list[FacetHierarchy]) -> str:
    return hashlib.sha256(forest_bytes(hierarchies)).hexdigest()


@pytest.fixture(scope="module")
def mixed_documents(config):
    return [
        DOC,
        *(
            document
            for build in (build_snyt, build_snb, build_mnyt)
            for document in build(config).documents[:20]
        ),
    ]


@pytest.fixture(scope="module")
def mixed_result(builder, mixed_documents):
    return builder.build().run(mixed_documents)


class TestForestPin:
    def test_forest_without_validator(self, mixed_result):
        hierarchies = build_facet_hierarchies(
            mixed_result.facet_terms, mixed_result.contextualized
        )
        assert len(hierarchies) > 1
        assert any(facet.root.children for facet in hierarchies)
        assert digest(hierarchies) == PLAIN_FOREST_SHA256

    def test_forest_with_link_evidence(self, mixed_result, builder):
        hierarchies = build_facet_hierarchies(
            mixed_result.facet_terms,
            mixed_result.contextualized,
            edge_validator=builder.edge_evidence,
        )
        assert digest(hierarchies) == EVIDENCE_FOREST_SHA256
        # The pipeline builds its own hierarchies with the same validator.
        assert digest(mixed_result.hierarchies) == EVIDENCE_FOREST_SHA256

    def test_stream_builds_the_same_forest(self, builder, mixed_documents):
        extractor = IncrementalExtractor(builder.build())
        extractor.append(mixed_documents[:25])
        extractor.append(mixed_documents[25:])
        assert digest(extractor.hierarchies) == EVIDENCE_FOREST_SHA256
