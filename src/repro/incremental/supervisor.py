"""The streaming supervisor: ingest batch files, checkpoint, resume.

This is the process-level loop behind ``repro stream``.  A *batch
directory* holds JSONL files (one document payload per line, canonical
JSON); lexicographic file order is ingestion order, so producers name
files ``batch-000.jsonl``, ``batch-001.jsonl``, ...  The supervisor
feeds each not-yet-ingested file to an
:class:`~repro.incremental.extractor.IncrementalExtractor`, letting the
extractor checkpoint between batches.

Crash recovery is entirely data-driven: a snapshot records the batch
ids it covers (``batches_done``), so after a restart the supervisor
restores the newest valid snapshot and simply skips those files.
Batches ingested after the last checkpoint are replayed — by the
incremental/batch equivalence contract, replaying them reproduces the
exact pre-crash state, so a crash at *any* point loses no information
and changes no output.

:class:`FaultInjector` is the test harness's crash trigger: wired into
the :class:`~repro.incremental.checkpoint.CheckpointStore` fault hook,
it raises :class:`CrashInjected` the n-th time a chosen checkpoint
stage (``pre-checkpoint`` / ``mid-write`` / ``post-write``) is reached,
simulating a kill at that precise moment.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from ..core.pipeline import FacetExtractor
from ..corpus.document import Document
from ..errors import StorageError
from ..observability.logging import get_logger
from .checkpoint import CheckpointStore, atomic_write_text, canonical_json
from .extractor import IncrementalBatchReport, IncrementalExtractor
from .state import document_from_payload, document_payload

log = get_logger(__name__)

#: Batch files recognised inside an input directory.
BATCH_PATTERN = "*.jsonl"


class CrashInjected(RuntimeError):
    """Raised by :class:`FaultInjector` to simulate a crash."""


class FaultInjector:
    """Raise :class:`CrashInjected` at a chosen checkpoint stage.

    Parameters
    ----------
    stage:
        One of ``"pre-checkpoint"``, ``"mid-write"``, ``"post-write"``.
    occurrence:
        Fire on the n-th (1-based) time the stage is reached; the
        injector disarms after firing, so a resumed run completes.
    """

    STAGES = ("pre-checkpoint", "mid-write", "post-write")

    def __init__(self, stage: str, occurrence: int = 1) -> None:
        if stage not in self.STAGES:
            raise ValueError(f"unknown fault stage: {stage!r}")
        if occurrence < 1:
            raise ValueError(f"occurrence must be >= 1, got {occurrence}")
        self.stage = stage
        self.occurrence = occurrence
        self.fired = False
        self._seen = 0

    def __call__(self, stage: str) -> None:
        if self.fired or stage != self.stage:
            return
        self._seen += 1
        if self._seen >= self.occurrence:
            self.fired = True
            raise CrashInjected(f"injected crash at {stage} #{self._seen}")


def write_batch_file(path: str | Path, documents: list[Document]) -> Path:
    """Write one batch file: one canonical-JSON document per line.

    Written atomically: a producer crash must never leave a
    half-written batch for the supervisor to ingest.
    """
    path = Path(path)
    lines = [canonical_json(document_payload(doc)) for doc in documents]
    atomic_write_text(path, "".join(lines))
    return path


def read_batch_file(path: str | Path) -> list[Document]:
    """Parse a batch file written by :func:`write_batch_file`."""
    path = Path(path)
    documents: list[Document] = []
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise StorageError(f"unreadable batch file {path}: {exc}") from exc
    for number, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            documents.append(document_from_payload(json.loads(line)))
        except (ValueError, KeyError) as exc:
            raise StorageError(f"{path}:{number}: bad document: {exc}") from exc
    return documents


def split_into_batches(
    documents: list[Document], batches: int
) -> list[list[Document]]:
    """Split a corpus into ``batches`` contiguous, near-even slices.

    Every slice is returned even when empty — an empty batch file is a
    valid (if pointless) unit of ingestion and the harness exercises it.
    """
    if batches < 1:
        raise ValueError(f"batches must be >= 1, got {batches}")
    base, extra = divmod(len(documents), batches)
    out: list[list[Document]] = []
    cursor = 0
    for index in range(batches):
        size = base + (1 if index < extra else 0)
        out.append(documents[cursor : cursor + size])
        cursor += size
    return out


def make_batch_files(
    directory: str | Path, documents: list[Document], batches: int
) -> list[Path]:
    """Materialize a corpus as numbered batch files in ``directory``."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths: list[Path] = []
    for index, slice_ in enumerate(split_into_batches(documents, batches)):
        paths.append(
            write_batch_file(directory / f"batch-{index:06d}.jsonl", slice_)
        )
    return paths


@dataclass
class StreamReport:
    """What one supervisor run ingested (and what it could skip)."""

    ingested: list[str] = field(default_factory=list)
    skipped: list[str] = field(default_factory=list)
    documents: int = 0
    resumed_at: int | None = None
    """Document count restored from a checkpoint, None for a cold start."""
    batch_reports: list[IncrementalBatchReport] = field(default_factory=list)

    def format_summary(self) -> str:
        resumed = (
            f"resumed with {self.resumed_at} documents"
            if self.resumed_at is not None
            else "cold start"
        )
        return (
            f"{resumed}; ingested {len(self.ingested)} batches "
            f"({self.documents} documents), skipped {len(self.skipped)} "
            "already-checkpointed"
        )


class StreamSupervisor:
    """One supervised ingestion pass over a batch directory.

    The supervisor is single-use: it owns a freshly built pipeline,
    restores state from ``run_dir`` (unless ``resume=False``), ingests
    every pending batch file, and leaves the extractor available via
    :attr:`extractor` for inspection.  After a crash, construct a new
    supervisor over the same ``run_dir`` — recovery is automatic.
    """

    def __init__(
        self,
        pipeline: FacetExtractor,
        run_dir: str | Path,
        checkpoint_every: int = 1,
        keep_snapshots: int = 3,
        resume: bool = True,
        fault_hook: FaultInjector | None = None,
    ) -> None:
        self._store = CheckpointStore(
            run_dir, keep_snapshots=keep_snapshots, fault_hook=fault_hook
        )
        if resume:
            self._extractor = IncrementalExtractor.restore(
                pipeline, self._store, checkpoint_every=checkpoint_every
            )
        else:
            self._extractor = IncrementalExtractor(
                pipeline, checkpoint=self._store, checkpoint_every=checkpoint_every
            )

    @property
    def extractor(self) -> IncrementalExtractor:
        return self._extractor

    @property
    def store(self) -> CheckpointStore:
        return self._store

    def run(self, input_dir: str | Path) -> StreamReport:
        """Ingest every pending batch file of ``input_dir``, in order.

        A crash (any exception, including an injected one) propagates
        after the extractor's last completed checkpoint — exactly the
        situation :meth:`IncrementalExtractor.restore` recovers from.
        """
        input_dir = Path(input_dir)
        extractor = self._extractor
        report = StreamReport(
            resumed_at=extractor.document_count
            if extractor.batches_done
            else None
        )
        done = set(extractor.batches_done)
        batch_files = sorted(input_dir.glob(BATCH_PATTERN))
        log.info(
            "stream.start",
            input=str(input_dir),
            batches=len(batch_files),
            already_done=len(done),
        )
        for path in batch_files:
            batch_id = path.name
            if batch_id in done:
                report.skipped.append(batch_id)
                continue
            documents = read_batch_file(path)
            batch_report = extractor.append(documents, batch_id=batch_id)
            report.ingested.append(batch_id)
            report.documents += len(documents)
            report.batch_reports.append(batch_report)
        log.info(
            "stream.done",
            ingested=len(report.ingested),
            skipped=len(report.skipped),
            documents=report.documents,
            corpus=extractor.document_count,
            facet_terms=len(extractor.facet_terms),
        )
        return report
