"""Integration tests: the full pipeline end-to-end on a small corpus."""

from __future__ import annotations

import pytest

from repro.core.hierarchy import build_facet_hierarchies
from repro.core.pipeline import FacetExtractor
from repro.eval.metrics import term_set_recall
from repro.core.interface import FacetedInterface
from repro.observability import MetricsRegistry
from repro.observability.context import use_metrics


class TestFullPipeline:
    def test_all_stages_populated(self, pipeline_result):
        result = pipeline_result
        assert result.facet_terms
        assert result.hierarchies
        assert result.annotated.vocabulary.document_count == len(result.documents)
        assert result.timings.total > 0

    def test_facet_terms_include_taxonomy_concepts(self, world, pipeline_result):
        taxonomy = world.taxonomy
        extracted = [c.term for c in pipeline_result.facet_terms[:60]]
        facet_like = [t for t in extracted if t in taxonomy]
        assert len(facet_like) >= 10

    def test_expansion_surfaces_missing_terms(self, pipeline_result):
        """The paper's core claim: facet terms absent from documents
        emerge after expansion (positive frequency shift from ~0)."""
        emerged = [
            c for c in pipeline_result.facet_terms if c.df_original == 0
        ]
        assert emerged

    def test_every_candidate_has_positive_shifts(self, pipeline_result):
        for candidate in pipeline_result.facet_terms:
            assert candidate.shift_f > 0
            assert candidate.shift_r > 0

    def test_recall_against_gold(self, builder, snyt, config, pipeline_result):
        from repro.eval.goldset import build_gold_set

        gold = build_gold_set(snyt, config, builder.world)
        recall = term_set_recall(
            gold.terms, [c.term for c in pipeline_result.facet_terms]
        )
        assert recall > 0.25

    def test_interface_built_from_result(self, pipeline_result):
        interface = FacetedInterface.from_result(pipeline_result)
        assert interface.facet_names()
        top = interface.top_level_counts()
        assert top[0].count > 0

    def test_deterministic_across_runs(self, builder, snyt):
        result_a = builder.build().run(snyt.documents[:30])
        result_b = builder.build().run(snyt.documents[:30])
        assert [c.term for c in result_a.facet_terms] == [
            c.term for c in result_b.facet_terms
        ]

    def test_pipeline_validates_inputs(self):
        with pytest.raises(ValueError):
            FacetExtractor(extractors=[], resources=[object()])
        with pytest.raises(ValueError):
            FacetExtractor(extractors=[object()], resources=[])

    def test_duplicate_document_ids_rejected(self, builder, snyt):
        """A repeated story would be counted once per position by the
        statistics but once per id by the facet nodes."""
        documents = snyt.documents[:40] + snyt.documents[:15]
        with pytest.raises(ValueError, match="duplicate document id"):
            builder.build().run(documents)

    def test_hierarchy_counters_show_the_validator_calls(
        self, builder, pipeline_result
    ):
        calls = []

        def counting(child, parent):
            calls.append((child, parent))
            return builder.edge_evidence(child, parent)

        registry = MetricsRegistry()
        with use_metrics(registry):
            hierarchies = build_facet_hierarchies(
                pipeline_result.facet_terms,
                pipeline_result.contextualized,
                edge_validator=counting,
            )
        assert [f.terms() for f in hierarchies] == [
            f.terms() for f in pipeline_result.hierarchies
        ]
        usable = registry.counter_value("hierarchy.usable_terms")
        pair_tests = registry.counter_value("hierarchy.pair_tests")
        assert registry.counter_value("hierarchy.validator_calls") == len(calls)
        assert 0 < pair_tests <= usable * (usable - 1)
        # LinkEvidence is asked only about the pairs that would win.
        assert 0 < len(calls) < pair_tests / 10

    def test_without_hierarchies(self, builder, snyt):
        pipeline = builder.without_hierarchies().build()
        result = pipeline.run(snyt.documents[:20])
        assert result.hierarchies == []
        assert result.facet_terms is not None
        # Restore builder state for other tests.
        builder._build_hierarchies = True


class TestBuilderConfiguration:
    def test_extractor_subset(self, builder, snyt):
        pipeline = builder.with_extractors(["NE"]).build()
        result = pipeline.run(snyt.documents[:20])
        assert result is not None
        builder.with_extractors(["NE", "Yahoo", "Wikipedia"])

    def test_resource_subset(self, builder, snyt):
        pipeline = builder.with_resources(["Wikipedia Graph"]).build()
        result = pipeline.run(snyt.documents[:20])
        assert result is not None
        builder.with_resources(
            ["Google", "WordNet Hypernyms", "Wikipedia Synonyms", "Wikipedia Graph"]
        )

    def test_statistic_option(self, builder, snyt):
        pipeline = builder.with_statistic("chi-square").build()
        assert pipeline.run(snyt.documents[:20]).facet_terms is not None
        builder.with_statistic("log-likelihood")
