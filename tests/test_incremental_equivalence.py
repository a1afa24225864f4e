"""Differential harness: incremental extraction == full recompute.

The incremental pipeline's output contract is *byte-for-byte* equality
with a from-scratch :meth:`FacetExtractor.run` on the union corpus,
after any sequence of appends.  This module certifies it across:

* batch schedules with k ∈ {1, 2, 5} appends, including an empty batch
  and single-document batches, plus a seeded randomized split;
* worker counts {1, 4} — the execution modes of the batch pipeline;
* the selection ablations (chi-square scoring, frequency shift only)
  and a pipeline of glossary extractor + domain ontology resource;
* serialization round trips — the state that continues appending after
  a snapshot/restore must land on the same bytes, and a restore from
  the checkpoint's id plane holds what the payload's string rebuild
  holds.

"Byte-for-byte" is enforced literally: facet terms (scores as IEEE-754
hex, so not even a ULP of drift passes) and fully-populated hierarchies
are serialized through the canonical-JSON writer and compared as bytes.
"""

from __future__ import annotations

import random
import sys

import pytest

from repro.builder import FacetPipelineBuilder
from repro.config import ParallelConfig, ReproConfig
from repro.corpus import build_snyt
from repro.core.export import to_dict
from repro.core.hierarchy import build_facet_hierarchies
from repro.core.pipeline import FacetExtractor
from repro.extractors import SignificantTermsExtractor, TermExtractor
from repro.incremental import (
    CheckpointStore,
    IncrementalExtractor,
    IncrementalState,
    canonical_json,
)
from repro.observability import Observability
from repro.resources.domain import (
    DomainTermExtractor,
    DomainVocabularyResource,
    financial_glossary,
)
from repro.text import interning, tokenizer
from repro.text.vocabulary import TermInterner

SCALE = 0.05


@pytest.fixture(scope="module")
def inc_config() -> ReproConfig:
    return ReproConfig(scale=SCALE)


@pytest.fixture(scope="module")
def inc_builder(inc_config: ReproConfig) -> FacetPipelineBuilder:
    return FacetPipelineBuilder(inc_config)


@pytest.fixture(scope="module")
def docs(inc_config: ReproConfig):
    return build_snyt(inc_config).documents


def result_bytes(result) -> bytes:
    """Canonical bytes of (facet terms, hierarchies) — the output contract."""
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
    }
    return canonical_json(payload).encode("utf-8")


def full_state(result) -> dict:
    """Every intermediate database, for equality beyond the contract."""
    return {
        "important": result.annotated.important_terms,
        "term_sets": result.annotated.term_sets,
        "context": result.contextualized.context_terms,
        "expanded": result.contextualized.expanded_sets,
    }


@pytest.fixture(scope="module")
def baseline(inc_builder: FacetPipelineBuilder, docs):
    result = inc_builder.build().run(docs)
    return result_bytes(result), full_state(result)


def schedule(key: int, docs: list) -> list[list]:
    """Deterministic batch splits; k=5 exercises empty + single-doc."""
    if key == 1:
        return [docs]
    if key == 2:
        return [docs[:1], docs[1:]]  # single-doc first batch
    if key == 5:
        return [docs[:7], [], docs[7:8], docs[8:30], docs[30:]]
    raise AssertionError(key)


class TestDifferentialEquivalence:
    @pytest.mark.parametrize("batches", [1, 2, 5])
    def test_every_schedule_and_mode_matches_full_recompute(
        self, inc_builder, docs, baseline, batches
    ):
        inc_builder.with_parallel(ParallelConfig())
        extractor = inc_builder.build_incremental()
        for batch in schedule(batches, docs):
            extractor.append(batch)
        snapshot = extractor.snapshot_result()
        expected_bytes, expected_state = baseline
        assert result_bytes(snapshot) == expected_bytes
        assert full_state(snapshot) == expected_state

    def test_snapshot_database_rebuilds_the_stream_hierarchies(
        self, inc_builder, docs
    ):
        """The snapshot's columns feed the batch hierarchy stage the
        same document sets the stream's maintained postings do."""
        inc_builder.with_parallel(ParallelConfig())
        extractor = inc_builder.build_incremental()
        for batch in schedule(5, docs):
            extractor.append(batch)
        snap = extractor.snapshot_result()
        rebuilt = build_facet_hierarchies(
            snap.facet_terms,
            snap.contextualized,
            edge_validator=inc_builder.edge_evidence,
        )
        assert canonical_json(to_dict(rebuilt, include_docs=True)) == (
            canonical_json(to_dict(extractor.hierarchies, include_docs=True))
        )

    def test_randomized_seeded_split_matches_full_recompute(
        self, inc_builder, docs, baseline
    ):
        rng = random.Random(20080407)
        cuts = sorted(rng.sample(range(1, len(docs)), 3))
        bounds = [0, *cuts, len(docs)]
        batches = [docs[a:b] for a, b in zip(bounds, bounds[1:])]
        inc_builder.with_parallel(ParallelConfig())
        extractor = inc_builder.build_incremental()
        for batch in batches:
            extractor.append(batch)
        assert result_bytes(extractor.snapshot_result()) == baseline[0]

    def test_state_payload_roundtrip_then_append_matches(
        self, inc_builder, docs, baseline
    ):
        """Serialize mid-stream, rebuild, keep appending — same bytes."""
        inc_builder.with_parallel(ParallelConfig())
        extractor = inc_builder.build_incremental()
        extractor.append(docs[:20])
        restored_state = IncrementalState.from_payload(
            extractor.state.to_payload()
        )
        resumed = IncrementalExtractor(
            inc_builder.build(), state=restored_state
        )
        resumed.append(docs[20:])
        assert result_bytes(resumed.snapshot_result()) == baseline[0]


def state_by_term(state: IncrementalState) -> dict:
    """Everything a state holds, keyed by term string and document id
    instead of term id, so two states that number their terms
    differently compare equal when they hold the same data."""
    terms = state.interner.terms()
    doc_ids = state.doc_ids

    def vocabulary(columns) -> dict:
        return {
            "documents": columns.document_count,
            "counts": {t: (columns.df(t), columns.tf(t)) for t in columns.terms()},
        }

    return {
        "original": vocabulary(state.original_vocabulary),
        "contextualized": vocabulary(state.contextualized_vocabulary),
        "postings": {
            terms[term_id]: [doc_ids[p] for p in positions]
            for term_id, positions in state.term_positions.items()
        },
        "original_rows": [[terms[i] for i in row] for row in state.original_rows],
        "expanded_rows": [sorted(terms[i] for i in row) for row in state.expanded_rows],
        "pretest": {terms[term_id] for term_id in state.pretest},
        "doc_states": [state.doc_states[doc_id] for doc_id in doc_ids],
        "batches_done": state.batches_done,
    }


class TestRestoreDifferential:
    """A restore reads the checkpoint's id plane; it must hold exactly
    what the string rebuild of the state payload holds."""

    @pytest.mark.parametrize("every", [1, 2])
    def test_restore_after_every_append_matches_the_payload_rebuild(
        self, inc_builder, docs, tmp_path, every
    ):
        inc_builder.with_parallel(ParallelConfig())
        extractor = IncrementalExtractor(
            inc_builder.build(),
            checkpoint=CheckpointStore(tmp_path),
            checkpoint_every=every,
        )
        for batch in schedule(5, docs):
            if not extractor.append(batch).checkpointed:
                continue
            payload = canonical_json(extractor.state.to_payload())
            rebuilt = IncrementalState.from_payload(extractor.state.to_payload())
            restored = IncrementalExtractor.restore(
                inc_builder.build(), CheckpointStore(tmp_path)
            )
            state = restored.state
            assert state_by_term(state) == state_by_term(rebuilt)
            assert state_by_term(state) == state_by_term(extractor.state)
            # The term table is the live one, id for id.
            assert state.interner.terms() == extractor.state.interner.terms()
            assert canonical_json(state.to_payload()) == payload
            assert result_bytes(restored.snapshot_result()) == result_bytes(
                extractor.snapshot_result()
            )

    def test_restore_neither_normalizes_nor_interns(
        self, inc_builder, docs, tmp_path, monkeypatch
    ):
        """Outside the selection and hierarchy rebuild (the exact output
        path, whose edge validator normalizes), a restore works on ids."""
        inc_builder.with_parallel(ParallelConfig())
        IncrementalExtractor(
            inc_builder.build(), checkpoint=CheckpointStore(tmp_path)
        ).append(docs[:30])
        pipeline = inc_builder.build()
        calls: list[str] = []
        rebuilding = [False]

        def counting(name, real):
            def wrapper(*args, **kwargs):
                if not rebuilding[0]:
                    calls.append(name)
                return real(*args, **kwargs)

            return wrapper

        real_normalize = tokenizer.normalize_term
        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").startswith("repro"):
                for attribute in ("normalize_term", "_raw_normalize_term"):
                    if getattr(module, attribute, None) is real_normalize:
                        monkeypatch.setattr(
                            module, attribute, counting("normalize_term", real_normalize)
                        )
        monkeypatch.setattr(
            TermInterner,
            "intern_many",
            counting("intern_many", TermInterner.intern_many),
        )
        real_select_and_build = IncrementalExtractor._select_and_build

        def select_and_build(self, obs):
            rebuilding[0] = True
            try:
                real_select_and_build(self, obs)
            finally:
                rebuilding[0] = False

        monkeypatch.setattr(IncrementalExtractor, "_select_and_build", select_and_build)
        restored = IncrementalExtractor.restore(pipeline, CheckpointStore(tmp_path))
        assert restored.document_count == 30
        assert calls == []
        # The probes count: a payload rebuild normalizes and interns.
        IncrementalState.from_payload(restored.state.to_payload())
        assert "normalize_term" in calls and "intern_many" in calls

    def test_restore_is_one_span_over_its_rebuild(self, inc_builder, docs, tmp_path):
        inc_builder.with_parallel(ParallelConfig())
        extractor = IncrementalExtractor(
            inc_builder.build(), checkpoint=CheckpointStore(tmp_path)
        )
        extractor.append(docs[:20])
        state = extractor.state
        obs = Observability.enabled()
        inc_builder.with_observability(obs)
        try:
            IncrementalExtractor.restore(inc_builder.build(), CheckpointStore(tmp_path))
        finally:
            inc_builder.with_observability(None)
        (span,) = [root for root in obs.tracer.roots if root.name == "incremental:restore"]
        ids = sum(map(len, state.original_rows)) + sum(map(len, state.expanded_rows))
        ids += sum(map(len, state.term_positions.values()))
        assert span.counters == {
            "documents": 20,
            "terms": len(state.interner),
            "blob_bytes": 4 * ids,
        }
        assert [child.name for child in span.children] == [
            "incremental:selection",
            "incremental:hierarchy",
        ]


class TestConfigurationEquivalence:
    """Pipeline settings the schedule/worker grid above leaves at default."""

    @pytest.fixture(params=["chi-square", "frequency-shift-only"])
    def ablated_builder(self, request, inc_builder):
        inc_builder.with_parallel(ParallelConfig())
        if request.param == "chi-square":
            inc_builder.with_statistic("chi-square")
        else:
            inc_builder.with_shift_requirement(False)
        yield inc_builder
        inc_builder.with_statistic("log-likelihood")
        inc_builder.with_shift_requirement(True)

    def test_selection_ablations_match_full_recompute(
        self, ablated_builder, docs, baseline
    ):
        expected = ablated_builder.build().run(docs)
        # The ablation must actually change the output under test.
        assert result_bytes(expected) != baseline[0]
        extractor = ablated_builder.build_incremental()
        for batch in schedule(5, docs):
            extractor.append(batch)
        snapshot = extractor.snapshot_result()
        assert result_bytes(snapshot) == result_bytes(expected)
        assert full_state(snapshot) == full_state(expected)

    def test_domain_glossary_stream_matches_full_recompute(self, docs):
        glossary = financial_glossary()

        def build() -> FacetExtractor:
            return FacetExtractor(
                extractors=[
                    DomainTermExtractor(glossary),
                    SignificantTermsExtractor(),
                ],
                resources=[DomainVocabularyResource(glossary)],
            )

        expected = build().run(docs)
        assert expected.facet_terms  # the glossary matches this corpus
        extractor = IncrementalExtractor(build())
        for batch in schedule(5, docs):
            extractor.append(batch)
        snapshot = extractor.snapshot_result()
        assert result_bytes(snapshot) == result_bytes(expected)
        assert full_state(snapshot) == full_state(expected)

    def test_extractor_overriding_use_background_is_rejected(self):
        class BackgroundReader(TermExtractor):
            name = None

            def use_background(self, vocabulary):
                self.vocabulary = vocabulary

            def extract(self, document):
                return []

        glossary = financial_glossary()
        pipeline = FacetExtractor(
            extractors=[DomainTermExtractor(glossary), BackgroundReader()],
            resources=[DomainVocabularyResource(glossary)],
        )
        with pytest.raises(ValueError, match="overrides use_background"):
            IncrementalExtractor(pipeline)


class TestAppendSemantics:
    def test_duplicate_doc_id_rejected_across_and_within_batches(
        self, inc_builder, docs
    ):
        inc_builder.with_parallel(ParallelConfig())
        extractor = inc_builder.build_incremental()
        extractor.append(docs[:2])
        with pytest.raises(ValueError, match="duplicate document id"):
            extractor.append([docs[1]])
        with pytest.raises(ValueError, match="duplicate document id"):
            extractor.append([docs[5], docs[5]])
        # The failed appends must not have half-ingested anything.
        assert extractor.document_count == 2

    def test_batch_report_accounts_for_the_batch(self, inc_builder, docs):
        inc_builder.with_parallel(ParallelConfig())
        extractor = inc_builder.build_incremental()
        first = extractor.append(docs[:10], batch_id="first")
        assert first.batch_id == "first"
        assert first.documents == 10
        assert first.dirty_documents == 0  # nothing older to invalidate
        assert first.facet_terms == len(extractor.facet_terms)
        second = extractor.append(docs[10:20])
        assert second.batch_id == "batch-000001"
        assert second.documents == 10
        assert extractor.batches_done == ["first", "batch-000001"]

    def test_append_tokenizes_each_new_document_once(
        self, inc_config, docs, monkeypatch
    ):
        """Step 1's statistics and extraction passes share one memo, as
        in the batch pipeline: 25 new stories, 25 sentence splits."""
        builder = FacetPipelineBuilder(inc_config)
        builder.with_parallel(ParallelConfig())
        extractor = IncrementalExtractor(builder.build())
        extractor.append(docs[:10])
        split: list[str] = []
        real_sentences = interning._raw_sentences

        def counted(text: str) -> list[str]:
            split.append(text)
            return real_sentences(text)

        monkeypatch.setattr(interning, "_raw_sentences", counted)
        extractor.append(docs[10:35])
        assert len(split) == 25

    def test_empty_batch_is_a_no_op_for_results(self, inc_builder, docs):
        inc_builder.with_parallel(ParallelConfig())
        extractor = inc_builder.build_incremental()
        extractor.append(docs[:15])
        before = result_bytes(extractor.snapshot_result())
        report = extractor.append([])
        assert report.documents == 0
        assert report.touched_terms == 0
        assert result_bytes(extractor.snapshot_result()) == before

    def test_snapshot_result_is_isolated_from_live_state(
        self, inc_builder, docs
    ):
        inc_builder.with_parallel(ParallelConfig())
        extractor = inc_builder.build_incremental()
        extractor.append(docs[:10])
        snapshot = extractor.snapshot_result()
        # Vandalize every mutable surface of the snapshot ...
        snapshot.annotated.vocabulary.add_document(["vandal", "terms"])
        snapshot.contextualized.vocabulary.add_document(["vandal"])
        for expanded in snapshot.contextualized.expanded_sets.values():
            expanded.add("vandal")
        # ... and the live extractor must be unaffected.
        extractor.append(docs[10:12])
        fresh = inc_builder.build_incremental()
        fresh.append(docs[:10])
        fresh.append(docs[10:12])
        assert result_bytes(extractor.snapshot_result()) == result_bytes(
            fresh.snapshot_result()
        )
