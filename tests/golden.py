"""Golden outputs of the pipeline at ``ReproConfig(scale=0.05)``.

The digests below were recorded from the dict-of-strings reference
implementation (serial, one resource round trip per term) before the
columnar data plane became the only one; the same bytes came out of
every execution mode it was compared against.  Every surviving mode
must keep reproducing them.

Scores are serialized as IEEE-754 hex so not even a ULP of drift
passes; hierarchies carry their full document populations.
"""

from __future__ import annotations

import hashlib

from repro.core.export import to_dict
from repro.incremental import canonical_json

#: Corpus scale the golden digests were recorded at.
GOLDEN_SCALE = 0.05

#: sha256 of :func:`result_bytes` for the SNYT corpus at ``GOLDEN_SCALE``.
GOLDEN_RESULT_SHA256 = (
    "34f655edbea0c8cef3433c1bb19d220adaa14e208ecec47b33b8ef952b6cc61a"
)

#: :attr:`repro.serving.FacetIndex.checksum` of the same run's artifact.
GOLDEN_INDEX_CHECKSUM = (
    "3aba12131da3d066f514a6f232578ede74f02c1f3e8fd5fb5d015bd5640ec353"
)


def result_bytes(result) -> bytes:
    """Canonical bytes of every certified output surface."""
    payload = {
        "facet_terms": [
            [
                c.term,
                c.df_original,
                c.df_contextualized,
                c.shift_f,
                c.shift_r,
                c.score.hex(),
            ]
            for c in result.facet_terms
        ],
        "hierarchies": to_dict(result.hierarchies, include_docs=True),
        "important": result.annotated.important_terms,
        "term_sets": {
            doc_id: sorted(terms)
            for doc_id, terms in result.annotated.term_sets.items()
        },
        "context": result.contextualized.context_terms,
        "expanded": {
            doc_id: sorted(terms)
            for doc_id, terms in result.contextualized.expanded_sets.items()
        },
    }
    return canonical_json(payload).encode("utf-8")


def result_digest(result) -> str:
    """sha256 hex digest of :func:`result_bytes`."""
    return hashlib.sha256(result_bytes(result)).hexdigest()
