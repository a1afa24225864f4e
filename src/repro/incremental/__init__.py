"""Incremental (streaming) facet extraction with checkpoint/resume.

The news-firehose deployment of the paper's pipeline: documents arrive
in batches, and :class:`IncrementalExtractor` keeps the selected facet
terms and hierarchies **byte-for-byte identical** to a from-scratch run
on the union corpus while doing only incremental work — cached
candidate re-scoring, dirty-document re-expansion, pre-test-set
selection, and postings-backed hierarchy repair (see
:mod:`repro.incremental.extractor` for how each stage shares the batch
pipeline's code).

:class:`CheckpointStore` keeps the state, ids included, in one SQLite
database per run directory, with the resource answers the stream paid
for, and commits each checkpoint as one transaction holding only the
rows that changed; :class:`StreamSupervisor` (the
``repro stream`` CLI) ingests batch files from a directory, checkpoints
between batches, and resumes from the committed checkpoint after a
crash.
"""

from .checkpoint import (
    CHECKPOINT_SCHEMA,
    CheckpointAnswers,
    CheckpointError,
    CheckpointStore,
    StateMark,
    canonical_json,
)
from .extractor import IncrementalBatchReport, IncrementalExtractor
from .state import DocumentState, IncrementalState
from .supervisor import (
    CrashInjected,
    FaultInjector,
    StreamReport,
    StreamSupervisor,
    atomic_write_text,
    make_batch_files,
    read_batch_file,
    split_into_batches,
    write_batch_file,
)

__all__ = [
    "CHECKPOINT_SCHEMA",
    "CheckpointAnswers",
    "CheckpointError",
    "CheckpointStore",
    "CrashInjected",
    "DocumentState",
    "FaultInjector",
    "IncrementalBatchReport",
    "IncrementalExtractor",
    "IncrementalState",
    "StateMark",
    "StreamReport",
    "StreamSupervisor",
    "atomic_write_text",
    "canonical_json",
    "make_batch_files",
    "read_batch_file",
    "split_into_batches",
    "write_batch_file",
]
