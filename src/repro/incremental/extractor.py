"""The incremental (append-only) facet extraction engine.

:class:`IncrementalExtractor` wraps a configured
:class:`~repro.core.pipeline.FacetExtractor` and maintains its result
across batches of appended documents.  The output contract is strict:
after any sequence of :meth:`~IncrementalExtractor.append` calls, the
selected facet terms and hierarchies are **byte-for-byte identical** to
a from-scratch :meth:`FacetExtractor.run` on the union corpus.  The
differential harness in ``tests/test_incremental_equivalence.py``
enforces this across batch schedules.

The contract is met by construction, not by luck — every stage calls
the code the batch pipeline runs, never a copy of it:

* Step 1 statistics count the batch statistics pass's terms
  (:func:`repro.text.phrases.document_terms`) and update the
  state's original :class:`~repro.core.columnar.ColumnarVocabulary` in
  place, which keeps the background the Yahoo extractor adopted
  permanently current.
* Because that background changes with every batch, *every* stored
  document's tf·idf scores can shift.  The Yahoo stand-in scores a
  document's Step 1 term list, which the state already holds as the
  document's original id row, so the extractor re-counts that row and
  re-runs only
  :meth:`~repro.extractors.significant_terms.SignificantTermsExtractor.score_candidates`,
  with df read by id from the live vocabulary's column and an idf
  memoized per distinct df; nothing is re-tokenized or cached for it.
  Documents whose merged ``I(d)`` actually changed become *dirty*.  No
  other extractor may depend on the corpus: one that overrides
  ``use_background`` is rejected at construction.
* Step 2 re-expands only new + dirty documents through the batch
  expansion, :func:`~repro.core.contextualize.expand_documents`
  (resource answers are corpus-independent and memoized), interning
  straight into the state's term table; the contextualized vocabulary
  and the postings are repaired per changed expanded row
  (:meth:`~repro.incremental.state.IncrementalState.set_expansion`).
* Step 3 keeps a *pre-test set* — the terms with ``df_C > df``, the
  only possible shift candidates — maintained from per-batch df deltas,
  and ranks those terms only through the batch selection's own
  :func:`~repro.core.selection.rank_facet_terms`.  Its sort key
  ``(-score, term)`` is total, so the pre-test set yields exactly the
  batch pipeline's ranking.
* Hierarchy construction hands the state's maintained positional
  postings (no corpus scan) to the batch pipeline's one hierarchy
  entry, :func:`~repro.core.hierarchy.hierarchies_from_postings`.

Checkpointing is delegated to a
:class:`~repro.incremental.checkpoint.CheckpointStore`; a checkpoint is
committed after every ``checkpoint_every`` batches and
:meth:`IncrementalExtractor.restore` resumes from it.  The extractor
records which stored documents changed since the last commit
(:meth:`_rescore` marks changed outputs, :meth:`_expand` re-expansions)
and which term ids' postings :meth:`_expand` changed, so a commit writes
only the new terms and documents, the marked documents' mutable columns
and the marked postings.  An extractor that did not restore from its
store writes its first checkpoint in full, which replaces whatever the
store held.  A restore reads the state as ids and rebuilds only the
selection and the hierarchies.

The store's answers (the buffered
:class:`~repro.db.resource_cache.PersistentResourceCache` of
:attr:`~repro.incremental.checkpoint.CheckpointStore.answers`) are attached
to every pipeline resource that has no persistent tier yet, under the
namespace the pipeline gives the persistent cache
(:meth:`~repro.core.pipeline.FacetExtractor.cache_namespace`): each
commit keeps the healthy answers resolved since the last one, and a
restored stream reads them back lazily instead of asking again.
"""

from __future__ import annotations

import time
from collections import Counter
from collections.abc import Iterable
from dataclasses import dataclass
from pathlib import Path

from ..core.annotate import merge_important
from ..core.contextualize import assemble_databases, expand_documents
from ..core.hierarchy import FacetHierarchy, hierarchies_from_postings
from ..core.pipeline import FacetExtractionResult, FacetExtractor
from ..core.selection import FacetTermCandidate, rank_facet_terms
from ..corpus.document import Document
from ..extractors.base import TermExtractor
from ..extractors.significant_terms import SignificantTermsExtractor
from ..observability import Observability
from ..observability import names as obs_names
from ..observability.logging import get_logger
from ..text.interning import TextMemo, use_text_memo
from ..text.phrases import document_terms
from .checkpoint import CheckpointStore, StateMark
from .state import DocumentState, IncrementalState

log = get_logger(__name__)


@dataclass(frozen=True)
class IncrementalBatchReport:
    """What one :meth:`IncrementalExtractor.append` call did."""

    batch_id: str
    documents: int
    dirty_documents: int
    touched_terms: int
    pretest_changes: int
    facet_terms: int
    facets: int
    checkpointed: bool
    seconds: float


class IncrementalExtractor:
    """Append-only facet extraction with the batch pipeline's results.

    Parameters
    ----------
    pipeline:
        A configured (ideally freshly built) batch pipeline; its
        extractors, resources, selection settings and observability
        configuration are all honoured.  Its only
        corpus-dependent extractor may be a
        :class:`~repro.extractors.significant_terms.SignificantTermsExtractor`;
        any other extractor that overrides ``use_background`` raises
        :class:`ValueError`.
    checkpoint:
        Optional checkpoint store; when given, a checkpoint is committed
        after every ``checkpoint_every``-th batch, and the store's answer
        tier backs every pipeline resource without a persistent tier.
    checkpoint_every:
        Checkpoint cadence in batches.
    state:
        A restored :class:`IncrementalState` (used by :meth:`restore`);
        None starts from an empty corpus.
    """

    def __init__(
        self,
        pipeline: FacetExtractor,
        checkpoint: CheckpointStore | None = None,
        checkpoint_every: int = 1,
        state: IncrementalState | None = None,
    ) -> None:
        if checkpoint_every < 1:
            raise ValueError(
                f"checkpoint_every must be >= 1, got {checkpoint_every}"
            )
        if pipeline.statistic not in ("log-likelihood", "chi-square"):
            raise ValueError(f"unknown statistic: {pipeline.statistic!r}")
        self._pipeline = pipeline
        self._checkpoint = checkpoint
        self._checkpoint_every = checkpoint_every
        self._state = state if state is not None else IncrementalState()
        # What the store holds of this state, None until the first
        # commit, and the positions and posting term ids changed since.
        self._committed: StateMark | None = None
        self._changed: set[int] = set()
        self._changed_terms: set[int] = set()
        self._facet_terms: list[FacetTermCandidate] = []
        self._hierarchies: list[FacetHierarchy] = []
        self._rescore_indices = self._bind_extractors()
        if checkpoint is not None:
            for resource in pipeline.resources:
                if resource.persistent_cache is None:
                    resource.attach_cache(
                        checkpoint.answers, namespace=pipeline.cache_namespace(resource)
                    )
        if self._state.document_count:
            obs = self._pipeline.observability
            with obs.collect():
                self._select_and_build(obs)

    # -- wiring --------------------------------------------------------------

    def _bind_extractors(self) -> tuple[int, ...]:
        """Attach the live vocabulary as background.

        Returns the indices of the extractors whose outputs depend on
        it — the ones :meth:`_rescore` refreshes after every batch.
        """
        vocabulary = self._state.original_vocabulary
        indices: list[int] = []
        for index, extractor in enumerate(self._pipeline.extractors):
            if not isinstance(extractor, SignificantTermsExtractor):
                if type(extractor).use_background is not TermExtractor.use_background:
                    raise ValueError(
                        f"{type(extractor).__name__} overrides use_background: "
                        "only SignificantTermsExtractor may score against the "
                        "corpus in incremental use"
                    )
                continue
            extractor.use_background(vocabulary)
            if not extractor.background_adopted:
                continue  # explicit fixed background: corpus-independent
            if extractor.background is not vocabulary:
                raise ValueError(
                    "pipeline extractor already adopted a different "
                    "background corpus; build a fresh pipeline for "
                    "incremental use"
                )
            indices.append(index)
        return tuple(indices)

    # -- public surface ------------------------------------------------------

    @property
    def state(self) -> IncrementalState:
        return self._state

    @property
    def document_count(self) -> int:
        return self._state.document_count

    @property
    def batches_done(self) -> list[str]:
        return list(self._state.batches_done)

    @property
    def facet_terms(self) -> list[FacetTermCandidate]:
        """Current selection, ranked exactly as the batch pipeline ranks."""
        return list(self._facet_terms)

    @property
    def hierarchies(self) -> list[FacetHierarchy]:
        return list(self._hierarchies)

    def facet_term_strings(self) -> list[str]:
        return [candidate.term for candidate in self._facet_terms]

    @classmethod
    def restore(
        cls,
        pipeline: FacetExtractor,
        checkpoint: CheckpointStore,
        checkpoint_every: int = 1,
    ) -> "IncrementalExtractor":
        """Resume from the store's checkpoint (empty state when none).

        The state is read as ids (:meth:`CheckpointStore.load_state`);
        the selection and hierarchies are then rebuilt from it, under
        the same ``incremental:restore`` span.
        """
        obs = pipeline.observability
        with obs.collect(), obs.tracer.span(obs_names.SPAN_INCREMENTAL_RESTORE) as span:
            loaded = checkpoint.load_state()
            state: IncrementalState | None = None
            if loaded is not None:
                sequence, state = loaded
                span.add("documents", state.document_count)
                span.add("terms", len(state.interner))
                span.add("blob_bytes", _id_plane_bytes(state))
                log.info(
                    "incremental.restored",
                    sequence=sequence,
                    documents=state.document_count,
                    batches=len(state.batches_done),
                )
            extractor = cls(
                pipeline,
                checkpoint=checkpoint,
                checkpoint_every=checkpoint_every,
                state=state,
            )
        if state is not None:
            extractor._committed = StateMark.of(state)
        return extractor

    def append(
        self,
        documents: Iterable[Document],
        batch_id: str | None = None,
    ) -> IncrementalBatchReport:
        """Ingest one batch and bring the extraction result up to date.

        Raises :class:`ValueError` on a document id already ingested (or
        repeated within the batch) — silently re-counting a document
        would corrupt every downstream statistic.
        """
        docs = list(documents)
        state = self._state
        new_ids: set[str] = set()
        for document in docs:
            if state.has_document(document.doc_id) or document.doc_id in new_ids:
                raise ValueError(f"duplicate document id: {document.doc_id!r}")
            new_ids.add(document.doc_id)
        obs = self._pipeline.observability
        batch_index = len(state.batches_done)
        label = batch_id if batch_id is not None else f"batch-{batch_index:06d}"
        start = time.perf_counter()
        with obs.collect(), obs.tracer.span(
            obs_names.SPAN_INCREMENTAL_BATCH, batch=label, documents=len(docs)
        ) as batch_span:
            dirty: list[int] = []
            flips = 0
            touched: set[int] = set()
            if docs:
                old_count = state.document_count
                touched = self._ingest(docs, obs)
                dirty = self._rescore(old_count, obs)
                new = range(old_count, state.document_count)
                touched |= self._expand([*dirty, *new], obs)
                flips = state.update_pretest(touched)
                self._select_and_build(obs)
            # An empty batch changes no statistic: the current result is
            # already the union result, only the ledger advances.
            state.batches_done.append(label)
            checkpointed = self._maybe_checkpoint(obs)
            batch_span.add("dirty_documents", len(dirty))
            batch_span.add("touched_terms", len(touched))
            if obs.metrics is not None:
                metrics = obs.metrics
                metrics.increment(obs_names.INCREMENTAL_BATCHES)
                metrics.increment(obs_names.INCREMENTAL_DOCUMENTS, len(docs))
                metrics.increment(obs_names.INCREMENTAL_DIRTY_DOCUMENTS, len(dirty))
                metrics.increment(obs_names.INCREMENTAL_TOUCHED_TERMS, len(touched))
                metrics.increment(obs_names.INCREMENTAL_PRETEST_CHANGES, flips)
                metrics.gauge(obs_names.INCREMENTAL_CORPUS_SIZE, state.document_count)
                metrics.gauge(obs_names.INCREMENTAL_PRETEST_SIZE, len(state.pretest))
        seconds = time.perf_counter() - start
        log.info(
            "incremental.batch_done",
            batch=label,
            documents=len(docs),
            corpus=state.document_count,
            dirty=len(dirty),
            facet_terms=len(self._facet_terms),
            seconds=round(seconds, 3),
        )
        return IncrementalBatchReport(
            batch_id=label,
            documents=len(docs),
            dirty_documents=len(dirty),
            touched_terms=len(touched),
            pretest_changes=flips,
            facet_terms=len(self._facet_terms),
            facets=len(self._hierarchies),
            checkpointed=checkpointed,
            seconds=seconds,
        )

    def checkpoint_now(self) -> bool:
        """Commit a checkpoint regardless of cadence (False without a store)."""
        if self._checkpoint is None:
            return False
        self._save(self._checkpoint)
        return True

    def snapshot_result(self) -> FacetExtractionResult:
        """Materialize the current state as a batch-pipeline result.

        Databases are assembled in ingestion order from copies of the
        state's id rows, so the snapshot compares equal — byte for byte
        under canonical serialization — to ``FacetExtractor.run`` on the
        union corpus, and mutating it never corrupts the live state (it
        shares only the append-only term table, whose ids never change).
        """
        state = self._state
        documents = list(state.documents)
        cached = [state.doc_states[document.doc_id] for document in documents]
        contextualized = assemble_databases(
            documents,
            {d.doc_id: list(c.important) for d, c in zip(documents, cached)},
            {d.doc_id: list(c.context_terms) for d, c in zip(documents, cached)},
            state.interner,
            state.original_rows,
            state.expanded_rows,
        )
        return FacetExtractionResult(
            documents=documents,
            annotated=contextualized.annotated,
            contextualized=contextualized,
            facet_terms=list(self._facet_terms),
            hierarchies=list(self._hierarchies),
            resource_stats={
                resource.cache_namespace(): resource.cache_stats
                for resource in self._pipeline.resources
            },
        )

    # -- stages --------------------------------------------------------------

    def _ingest(self, docs: list[Document], obs: Observability) -> set[int]:
        """Step 1 for the new documents: statistics, then extraction.

        Statistics land first so the shared background vocabulary is the
        full union *before* any extractor scores a document — the exact
        two-pass order of :func:`repro.core.annotate.annotate_database`,
        under one memo around both passes: each new document is
        tokenized once.  The per-extractor outputs are kept apart, to
        re-score and re-merge them later.
        """
        state = self._state
        extractors = self._pipeline.extractors
        touched: set[int] = set()
        with use_text_memo(TextMemo()), obs.tracer.span(
            obs_names.SPAN_INCREMENTAL_ANNOTATION, documents=len(docs)
        ):
            # The batch statistics pass's terms, so the byte-identity
            # contract holds.
            for document in docs:
                touched.update(
                    state.add_document(
                        document,
                        DocumentState(outputs=[]),
                        document_terms(document.text),
                    )
                )
            for document in docs:
                doc_state = state.doc_states[document.doc_id]
                doc_state.outputs = [
                    extractor.extract(document) for extractor in extractors
                ]
                doc_state.important = merge_important(doc_state.outputs)
        return touched

    def _rescore(self, old_count: int, obs: Observability) -> list[int]:
        """Refresh corpus-dependent outputs of the first ``old_count``
        (previously ingested) documents.

        Returns the ascending positions of the *dirty* documents — those
        whose merged ``I(d)`` changed and therefore need re-expansion.
        Documents whose re-scored outputs merge to the same ``I(d)`` keep
        their cached context untouched.
        """
        state = self._state
        extractors = self._pipeline.extractors
        dirty: list[int] = []
        if not self._rescore_indices or old_count == 0:
            return dirty
        with obs.tracer.span(obs_names.SPAN_INCREMENTAL_RESCORE) as span:
            # Every document in the state holds terms of the live
            # vocabulary, so its df column covers each id of every row.
            terms = state.interner.terms()
            df = state.original_vocabulary.df_column()
            rescored = 0
            for position in range(old_count):
                doc_state = state.doc_states[state.documents[position].doc_id]
                counts = Counter(state.original_rows[position])
                changed = False
                for index in self._rescore_indices:
                    extractor = extractors[index]
                    assert isinstance(extractor, SignificantTermsExtractor)
                    rescored += len(counts)
                    output = extractor.score_candidates(
                        (terms[i], tf, df[i]) for i, tf in counts.items()
                    )
                    if output != doc_state.outputs[index]:
                        doc_state.outputs[index] = output
                        changed = True
                if changed:
                    self._changed.add(position)
                    important = merge_important(doc_state.outputs)
                    if important != doc_state.important:
                        doc_state.important = important
                        dirty.append(position)
            span.add("dirty_documents", len(dirty))
            if obs.metrics is not None:
                obs.metrics.increment(
                    obs_names.INCREMENTAL_RESCORED_CANDIDATES, rescored
                )
        return dirty

    def _expand(self, positions: list[int], obs: Observability) -> set[int]:
        """Step 2 for the documents at ``positions`` (dirty, then new;
        ascending); repairs df statistics and postings.

        Returns the term ids whose contextualized df changed, i.e. the
        candidates for pre-test membership flips.
        """
        state = self._state
        touched: set[int] = set()
        if not positions:
            return touched
        self._changed.update(positions)
        doc_states = [
            state.doc_states[state.documents[position].doc_id]
            for position in positions
        ]
        with obs.tracer.span(
            obs_names.SPAN_INCREMENTAL_CONTEXTUALIZATION, documents=len(positions)
        ):
            expansions = expand_documents(
                [doc_state.important for doc_state in doc_states],
                self._pipeline.resources,
                state.interner,
            )
            for position, doc_state, (merged, context_ids) in zip(
                positions, doc_states, expansions, strict=True
            ):
                doc_state.context_terms = merged
                touched |= state.set_expansion(position, context_ids)
        self._changed_terms |= touched
        return touched

    def _select_and_build(self, obs: Observability) -> None:
        """Step 3 + hierarchy over the pre-test set only."""
        state = self._state
        pipeline = self._pipeline
        with obs.tracer.span(obs_names.SPAN_INCREMENTAL_SELECTION) as span:
            candidates = rank_facet_terms(
                state.pretest,
                state.original_vocabulary,
                state.contextualized_vocabulary,
                state.document_count,
                statistic=pipeline.statistic,
                require_both_shifts=pipeline.require_both_shifts,
            )
            top_k = pipeline.top_k
            self._facet_terms = candidates if top_k is None else candidates[:top_k]
            span.add("pretest_terms", len(state.pretest))
            span.add("selected", len(self._facet_terms))
        self._hierarchies = []
        if pipeline.build_hierarchies:
            with obs.tracer.span(obs_names.SPAN_INCREMENTAL_HIERARCHY) as span:
                self._hierarchies = hierarchies_from_postings(
                    self._facet_terms,
                    state,
                    threshold=pipeline.subsumption_threshold,
                    edge_validator=pipeline.edge_validator,
                )
                span.add("facets", len(self._hierarchies))

    # -- checkpointing -------------------------------------------------------

    def _maybe_checkpoint(self, obs: Observability) -> bool:
        if self._checkpoint is None:
            return False
        if len(self._state.batches_done) % self._checkpoint_every != 0:
            return False
        with obs.tracer.span(obs_names.SPAN_INCREMENTAL_CHECKPOINT) as span:
            path = self._save(self._checkpoint)
            span.add("sequence", len(self._state.batches_done))
            # A path is a tag, not a counter: Span.add sums floats and
            # raises on strings once tracing is actually enabled.
            span.set(path=str(path))
        return True

    def _save(self, store: CheckpointStore) -> Path:
        """Commit what changed since the last commit (everything the
        first time), then start marking afresh."""
        state = self._state
        path = store.save_state(
            state,
            len(state.batches_done),
            base=self._committed,
            changed=self._changed,
            changed_terms=self._changed_terms,
        )
        self._committed = StateMark.of(state)
        self._changed = set()
        self._changed_terms = set()
        return path


def _id_plane_bytes(state: IncrementalState) -> int:
    """Bytes of the id rows and postings: the blobs a restore reads."""
    ids = sum(map(len, state.original_rows)) + sum(map(len, state.expanded_rows))
    ids += sum(map(len, state.term_positions.values()))
    return 4 * ids  # int32 blobs
