"""The checkpoint's state section, pinned byte for byte.

A fixed SNB append schedule (60 stories in three batches, the later ones re-expanding
dirty documents) must serialize to pinned bytes; the in-memory
representation of the state may change, its snapshot format may not.
The pin was first recorded when the stream state still kept
string-keyed sets.  It was re-recorded once, when documents stopped
carrying the Yahoo stand-in's cached candidate counts (the stand-in now
re-scores the stored original terms): the new pin is the sha256 of the
old payload for this schedule with every ``docs[*]["candidates"]``
entry deleted, and nothing else moved.  A state restored from those
bytes must serialize back to exactly the bytes it was loaded from.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.builder import FacetPipelineBuilder
from repro.config import ReproConfig
from repro.corpus import build_snb
from repro.incremental import IncrementalState, canonical_json

#: sha256 of the canonical state payload after the schedule below.
SNB_STATE_SHA256 = (
    "aa676dd052c017b42accccae0ab5cc3a302d10d9141c828c9d49d1afc17ea736"
)


@pytest.fixture(scope="module")
def snb_stream():
    config = ReproConfig(scale=0.05)
    documents = build_snb(config).documents[:60]
    extractor = FacetPipelineBuilder(config).build_incremental()
    reports = [
        extractor.append(batch)
        for batch in (documents[:12], documents[12:30], documents[30:])
    ]
    return extractor, reports


def test_schedule_re_expands_dirty_documents(snb_stream):
    _extractor, reports = snb_stream
    assert sum(report.dirty_documents for report in reports) > 0


def test_snapshot_bytes_are_pinned(snb_stream):
    extractor, _reports = snb_stream
    data = canonical_json(extractor.state.to_payload()).encode("utf-8")
    assert hashlib.sha256(data).hexdigest() == SNB_STATE_SHA256


def test_restored_pretest_is_the_definition(snb_stream):
    """The pre-test ids a restore derives from the two df columns are
    those of ``{t : df_C(t) > df(t)}``, the set the appends maintained
    (each state numbers its terms through its own interner)."""
    extractor, _reports = snb_stream
    restored = IncrementalState.from_payload(extractor.state.to_payload())
    original = restored.original_vocabulary
    contextualized = restored.contextualized_vocabulary
    definition = {
        term
        for term in restored.interner.terms()
        if contextualized.df(term) > original.df(term)
    }

    def pretest_terms(state: IncrementalState) -> set[str]:
        return {state.interner.term(term_id) for term_id in state.pretest}

    assert definition
    assert pretest_terms(restored) == definition == pretest_terms(extractor.state)


def test_restored_state_reserializes_to_the_loaded_bytes(snb_stream):
    extractor, _reports = snb_stream
    text = canonical_json(extractor.state.to_payload())
    restored = IncrementalState.from_payload(json.loads(text))
    assert canonical_json(restored.to_payload()) == text
