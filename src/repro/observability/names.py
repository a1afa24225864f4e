"""Canonical registry of metric, span, and log-event names.

Every telemetry name the reproduction emits is declared here once —
either as a string constant (for fixed names) or as a tiny helper (for
the handful of families parameterized by a label or status code).  Emit
sites import from this module instead of repeating free-string
literals, which buys two things:

* a single place to read the whole observable surface of the program
  (dashboards and tests grep one file, not the tree), and
* typo safety — a misspelled constant fails at import time, where a
  misspelled free string would silently split one series in two.

Naming convention: metric names are dot-separated
(``subsystem.event``), span names are colon-separated
(``subsystem:stage``), mirroring the split between counters (additive,
aggregated) and spans (hierarchical, traced).
"""

from __future__ import annotations

from typing import Final

# -- serving -----------------------------------------------------------------

#: Root span wrapped around every HTTP request.
SPAN_SERVING_REQUEST: Final = "serving.request"

#: Counter: total HTTP requests handled.
SERVING_REQUESTS: Final = "serving.requests"

#: Timer: wall-clock seconds per request (from the request span).
SERVING_REQUEST_SECONDS: Final = "serving.request_seconds"


def serving_status(status: int) -> str:
    """Per-HTTP-status counter (``serving.status.<code>``)."""
    return f"serving.status.{status}"


# -- incremental pipeline ----------------------------------------------------

#: Span: one append_batch call end to end.
SPAN_INCREMENTAL_BATCH: Final = "incremental:batch"

#: Span: annotation stage (extractor sweep over new documents).
SPAN_INCREMENTAL_ANNOTATION: Final = "incremental:annotation"

#: Span: statistical rescoring of touched terms.
SPAN_INCREMENTAL_RESCORE: Final = "incremental:rescore"

#: Span: contextualization (resource queries for new candidates).
SPAN_INCREMENTAL_CONTEXTUALIZATION: Final = "incremental:contextualization"

#: Span: facet-term selection over the updated statistics.
SPAN_INCREMENTAL_SELECTION: Final = "incremental:selection"

#: Span: hierarchy rebuild for the selected terms.
SPAN_INCREMENTAL_HIERARCHY: Final = "incremental:hierarchy"

#: Span: checkpoint snapshot write.
SPAN_INCREMENTAL_CHECKPOINT: Final = "incremental:checkpoint"

#: Span: restore from the checkpoint (state read, selection, hierarchies).
SPAN_INCREMENTAL_RESTORE: Final = "incremental:restore"

#: Counter: batches appended.
INCREMENTAL_BATCHES: Final = "incremental.batches"

#: Counter: documents ingested across all batches.
INCREMENTAL_DOCUMENTS: Final = "incremental.documents"

#: Counter: documents whose stored annotations were invalidated.
INCREMENTAL_DIRTY_DOCUMENTS: Final = "incremental.dirty_documents"

#: Counter: distinct terms whose statistics were touched.
INCREMENTAL_TOUCHED_TERMS: Final = "incremental.touched_terms"

#: Counter: pretest membership flips caused by a batch.
INCREMENTAL_PRETEST_CHANGES: Final = "incremental.pretest_changes"

#: Gauge: corpus size after the batch.
INCREMENTAL_CORPUS_SIZE: Final = "incremental.corpus_size"

#: Gauge: pretest set size after the batch.
INCREMENTAL_PRETEST_SIZE: Final = "incremental.pretest_size"

#: Counter: candidates rescored during the rescore stage.
INCREMENTAL_RESCORED_CANDIDATES: Final = "incremental.rescored_candidates"


# -- columnar data plane -----------------------------------------------------

#: Gauge: distinct terms interned by the columnar plane in one run.
COLUMNAR_INTERNED_TERMS: Final = "columnar.interned_terms"


# -- external resources ------------------------------------------------------


def resource_metric(label: str, event: str) -> str:
    """Per-resource counter/timer/histogram (``resource.<label>.<event>``).

    ``label`` is :meth:`ExternalResource.metric_label`; ``event`` is one
    of the fixed event suffixes the engine emits (``memory_hits``,
    ``persistent_hits``, ``misses``, ``errors``, ``coalesced_hits``,
    ``coalesce_retries``, ``coalesce_wait_seconds``, ``batch_queries``,
    ``batch_query_seconds``, ``batch_size``) or the resilience wrappers
    emit (``failures``, ``retries``, ``degraded``,
    ``simulated_round_trips``).
    """
    return f"resource.{label}.{event}"


def resource_batch_span(label: str) -> str:
    """Span name for one batched resource call."""
    return f"resource:{label}:batch"
