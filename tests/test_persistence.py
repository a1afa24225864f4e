"""Tests for offline-expansion persistence."""

from __future__ import annotations

import pytest

from repro.core.dynamic import DynamicFaceter
from repro.core.persistence import load_expansions, save_expansions
from repro.core.selection import select_facet_terms
from repro.errors import StorageError
from repro.eval.metrics import to_key_set


class TestExpansionPersistence:
    def test_round_trip_preserves_artifacts(self, pipeline_result, tmp_path):
        path = str(tmp_path / "expansions.sqlite")
        save_expansions(pipeline_result.contextualized, path)
        restored = load_expansions(pipeline_result.documents, path)

        original = pipeline_result.contextualized
        for doc in pipeline_result.documents[:20]:
            doc_id = doc.doc_id
            assert restored.annotated.important(doc_id) == (
                original.annotated.important(doc_id)
            )
            assert restored.annotated.term_sets[doc_id] == (
                original.annotated.term_sets[doc_id]
            )
            assert restored.context(doc_id) == original.context(doc_id)
            assert restored.expanded_sets[doc_id] == original.expanded_sets[doc_id]

    def test_selection_identical_after_reload(self, pipeline_result, tmp_path):
        path = str(tmp_path / "expansions.sqlite")
        save_expansions(pipeline_result.contextualized, path)
        restored = load_expansions(pipeline_result.documents, path)
        before = {c.term for c in select_facet_terms(
            pipeline_result.contextualized, top_k=None
        )}
        after = {c.term for c in select_facet_terms(restored, top_k=None)}
        assert to_key_set(before) == to_key_set(after)

    def test_dynamic_faceting_from_reload(self, pipeline_result, tmp_path):
        path = str(tmp_path / "expansions.sqlite")
        save_expansions(pipeline_result.contextualized, path)
        restored = load_expansions(pipeline_result.documents, path)
        faceter = DynamicFaceter(restored)
        ids = [doc.doc_id for doc in pipeline_result.documents[:30]]
        assert faceter.facet_terms(ids)

    def test_unknown_doc_ids_ignored(self, pipeline_result, tmp_path):
        path = str(tmp_path / "expansions.sqlite")
        save_expansions(pipeline_result.contextualized, path)
        subset = pipeline_result.documents[:5]
        restored = load_expansions(subset, path)
        assert restored.annotated.vocabulary.document_count == 5

    def test_documents_without_artifacts_get_empty_sets(
        self, pipeline_result, tmp_path
    ):
        from repro.corpus.document import Document

        path = str(tmp_path / "expansions.sqlite")
        save_expansions(pipeline_result.contextualized, path)
        stranger = Document(doc_id="stranger", title="t", body="b")
        restored = load_expansions([stranger], path)
        assert restored.annotated.important("stranger") == []
        assert restored.expanded_sets["stranger"] == set()

    def test_bad_file_raises(self, pipeline_result, tmp_path):
        path = tmp_path / "junk.sqlite"
        path.write_text("not a database")
        with pytest.raises(StorageError):
            load_expansions(pipeline_result.documents[:2], str(path))


class TestByteDeterminism:
    """DET002 extended to SQLite artifacts: equal state, equal bytes.

    ``term_sets`` holds Python sets, whose iteration order depends on
    how the set was built (table size, insertion history) — not just on
    its contents.  ``save_expansions`` must therefore sort before
    inserting, or logically identical databases serialize differently.
    """

    @staticmethod
    def _database_with(terms: set[str]):
        from repro.core.contextualize import assemble_databases
        from repro.corpus.document import Document
        from repro.text.vocabulary import TermInterner

        doc = Document(doc_id="d1", title="t", body="b")
        # Interned in the set's own iteration order, so the column (and
        # the term_sets view derived from it) keeps that history.
        interner = TermInterner()
        ids = interner.intern_many(terms)
        return assemble_databases(
            [doc],
            {"d1": sorted(terms)},
            {"d1": []},
            interner,
            [ids],
            [sorted(ids)],
        )

    def test_equal_sets_built_differently_save_identical_bytes(self, tmp_path):
        import filecmp

        terms = {"alpha", "kiwi", "mango", "zebra"}
        # Same contents, different hash-table history: grow the set past
        # a resize, then shrink it back.  Iterating the two sets can
        # yield different orders even though they compare equal.
        grown = set()
        for filler in [f"filler-{i:03d}" for i in range(64)]:
            grown.add(filler)
        grown.update(terms)
        for filler in [f"filler-{i:03d}" for i in range(64)]:
            grown.discard(filler)
        assert grown == terms

        first = tmp_path / "first.sqlite"
        second = tmp_path / "second.sqlite"
        save_expansions(self._database_with(terms), str(first))
        save_expansions(self._database_with(grown), str(second))
        assert filecmp.cmp(first, second, shallow=False)

    def test_round_trip_twice_is_byte_stable(self, pipeline_result, tmp_path):
        import filecmp

        first = tmp_path / "first.sqlite"
        second = tmp_path / "second.sqlite"
        save_expansions(pipeline_result.contextualized, str(first))
        restored = load_expansions(pipeline_result.documents, str(first))
        save_expansions(restored, str(second))
        assert filecmp.cmp(first, second, shallow=False)
