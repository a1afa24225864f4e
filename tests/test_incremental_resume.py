"""Crash/resume certification for the streaming supervisor.

Faults are injected at the three checkpoint stages ("pre-checkpoint",
"mid-write", "post-write"); after each simulated kill a fresh
:class:`StreamSupervisor` over the same run directory must recover and
land on output byte-identical to a from-scratch run of the full corpus.
A child process killed inside the checkpoint transaction shows SQLite's
rollback of the torn file.  The checkpoint database's contract is
pinned individually: after every commit it loads back as the live
state's payload, a commit writes rows only for new and changed
documents, a delta on the wrong base is refused, a damaged file means
a cold start, a run that starts over replaces the old run, and a
directory of retired JSON snapshots is refused.  The checkpoint's
resource answers are pinned too: a restored stream starts warm and
still lands on the batch run's bytes, and no degraded, uncommitted,
damaged or other-world answer is ever served.
"""

from __future__ import annotations

import io
import os
import shutil
import sqlite3
import subprocess
import sys
import threading
from array import array
from pathlib import Path

import pytest

from repro.builder import FacetPipelineBuilder
from repro.config import ReproConfig
from repro.corpus import build_snyt
from repro.core.export import to_dict
from repro.core.pipeline import FacetExtractor
from repro.errors import StorageError
from repro.incremental import (
    CheckpointAnswers,
    CheckpointError,
    CheckpointStore,
    CrashInjected,
    FaultInjector,
    IncrementalExtractor,
    StateMark,
    StreamSupervisor,
    atomic_write_text,
    canonical_json,
    make_batch_files,
    read_batch_file,
    split_into_batches,
)
from repro.incremental.state import STATE_SCHEMA
from repro.observability.logging import configure_logging
from repro.resources.base import ResourceName
from repro.resources.composite import CompositeResource
from repro.resources.resilience import FlakyResource, ResilientResource
from repro.text.interning import normalize_term

SCALE = 0.05
BATCHES = 5
#: Healthy answers a stream resolves for the first three of the batches.
ARCHIVE_ANSWERS = 381


@pytest.fixture(scope="module")
def inc_config() -> ReproConfig:
    return ReproConfig(scale=SCALE)


@pytest.fixture(scope="module")
def docs(inc_config: ReproConfig):
    return build_snyt(inc_config).documents


def build_pipeline(inc_config: ReproConfig):
    """A fresh pipeline per extractor — backgrounds bind on first use."""
    return FacetPipelineBuilder(inc_config).build()


def result_bytes(result) -> bytes:
    payload = {
        "facet_terms": [
            [c.term, c.df_original, c.df_contextualized, c.score.hex()]
            for c in result.facet_terms
        ],
        "hierarchies": to_dict(result.hierarchies, include_docs=True),
    }
    return canonical_json(payload).encode("utf-8")


@pytest.fixture(scope="module")
def baseline_bytes(inc_config: ReproConfig, docs) -> bytes:
    return result_bytes(build_pipeline(inc_config).run(docs))


@pytest.fixture()
def input_dir(tmp_path, docs):
    directory = tmp_path / "input"
    make_batch_files(directory, docs, BATCHES)
    return directory


class TestCrashAndResume:
    @pytest.mark.parametrize("stage", FaultInjector.STAGES)
    def test_resume_after_injected_crash_is_byte_identical(
        self, inc_config, docs, baseline_bytes, input_dir, tmp_path, stage
    ):
        run_dir = tmp_path / "run"
        injector = FaultInjector(stage, occurrence=3)
        crashed = StreamSupervisor(
            build_pipeline(inc_config), run_dir, fault_hook=injector
        )
        with pytest.raises(CrashInjected):
            crashed.run(input_dir)
        assert injector.fired
        # The kill must leave no torn file and no stray temp file.
        assert not list(run_dir.glob("*.tmp"))

        resumed = StreamSupervisor(build_pipeline(inc_config), run_dir)
        # post-write crashes after the snapshot landed, so batch 3 is
        # already durable; the earlier stages lose it and replay it.
        surviving = 3 if stage == "post-write" else 2
        assert len(resumed.extractor.batches_done) == surviving
        report = resumed.run(input_dir)
        assert report.resumed_at is not None
        assert sorted(report.skipped) == [
            f"batch-{i:06d}.jsonl" for i in range(surviving)
        ]
        assert len(report.ingested) == BATCHES - surviving
        assert result_bytes(resumed.extractor.snapshot_result()) == (
            baseline_bytes
        )
        assert "resumed with" in report.format_summary()

    def test_post_write_crash_outruns_the_manifest(
        self, inc_config, input_dir, tmp_path
    ):
        """The directory scan finds the snapshot written just before a
        crash; no pointer file exists for it to disagree with."""
        run_dir = tmp_path / "run"
        supervisor = StreamSupervisor(
            build_pipeline(inc_config),
            run_dir,
            fault_hook=FaultInjector("post-write", occurrence=3),
        )
        with pytest.raises(CrashInjected):
            supervisor.run(input_dir)
        assert not (run_dir / "MANIFEST.json").exists()
        latest = supervisor.store.load_latest()
        assert latest is not None and latest[0] == 3

    def test_fresh_run_dir_is_a_cold_start(
        self, inc_config, baseline_bytes, input_dir, tmp_path
    ):
        supervisor = StreamSupervisor(
            build_pipeline(inc_config), tmp_path / "run"
        )
        report = supervisor.run(input_dir)
        assert report.resumed_at is None
        assert len(report.ingested) == BATCHES
        assert not report.skipped
        assert result_bytes(supervisor.extractor.snapshot_result()) == (
            baseline_bytes
        )
        assert "cold start" in report.format_summary()


#: A stream run killed (``os._exit``) inside its third checkpoint
#: transaction; argv is the input directory, the run directory and the
#: corpus scale.  A one-page cache makes SQLite spill the transaction's
#: pages into the database file before the commit, so the kill leaves a
#: torn file and a hot journal; the file as the second commit left it
#: is copied to ``committed.bak`` first.
KILLED_CHILD = """
import os
import shutil
import sys

from repro.builder import FacetPipelineBuilder
from repro.config import ReproConfig
from repro.incremental import CheckpointStore, StreamSupervisor

connect = CheckpointStore._connect


def one_page_cache(store):
    connection = connect(store)
    connection.execute("PRAGMA cache_size = 1")
    return connection


CheckpointStore._connect = one_page_cache
run_dir = sys.argv[2]
stages = []


def kill_in_third_write(stage):
    stages.append(stage)
    if stages.count("pre-checkpoint") == 3 and stage == "pre-checkpoint":
        shutil.copy(os.path.join(run_dir, "checkpoint.sqlite"),
                    os.path.join(run_dir, "committed.bak"))
    if stages.count("mid-write") == 3:
        os._exit(1)


builder = FacetPipelineBuilder(ReproConfig(scale=float(sys.argv[3])))
supervisor = StreamSupervisor(builder.build(), run_dir, fault_hook=kill_in_third_write)
supervisor.run(sys.argv[1])
"""


class TestKilledMidWrite:
    def test_process_killed_inside_the_transaction_resumes_identically(
        self, inc_config, baseline_bytes, input_dir, tmp_path
    ):
        """A real kill leaves SQLite's hot journal behind; the next open
        rolls the torn file back to the second commit."""
        import repro

        run_dir = tmp_path / "run"
        src = Path(repro.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(src)}
        child = subprocess.run(
            [sys.executable, "-c", KILLED_CHILD, str(input_dir), str(run_dir), str(SCALE)],
            env=env,
            capture_output=True,
            text=True,
            timeout=600,
        )
        assert child.returncode == 1, child.stderr
        database = run_dir / "checkpoint.sqlite"
        journal = run_dir / "checkpoint.sqlite-journal"
        committed = (run_dir / "committed.bak").read_bytes()
        assert journal.exists()
        assert database.read_bytes() != committed

        resumed = StreamSupervisor(build_pipeline(inc_config), run_dir)
        assert not journal.exists()
        assert database.read_bytes() == committed
        assert len(resumed.extractor.batches_done) == 2
        report = resumed.run(input_dir)
        assert len(report.ingested) == BATCHES - 2
        assert result_bytes(resumed.extractor.snapshot_result()) == baseline_bytes


class TestSnapshotFormat:
    def test_snapshot_with_stored_context_keys_restores(
        self, inc_config, docs, baseline_bytes, tmp_path
    ):
        """Snapshots of the older format also stored each document's
        normalized context keys (``seen_keys``); a restore ignores them
        and derives the keys, landing on the full recompute's bytes."""
        batches = split_into_batches(docs, BATCHES)
        store = CheckpointStore(tmp_path / "run")
        extractor = IncrementalExtractor(build_pipeline(inc_config), checkpoint=store)
        for batch in batches[:3]:
            extractor.append(batch)
        sequence, payload = store.load_latest()
        for cached in payload["docs"].values():
            assert "seen_keys" not in cached
            cached["seen_keys"] = [normalize_term(t) for t in cached["context_terms"]]
        store.save(payload, sequence + 1)
        restored = IncrementalExtractor.restore(build_pipeline(inc_config), store)
        assert restored.document_count == sum(len(b) for b in batches[:3])
        for batch in batches[3:]:
            restored.append(batch)
        assert result_bytes(restored.snapshot_result()) == baseline_bytes
        _, newest = store.load_latest()
        assert all("seen_keys" not in cached for cached in newest["docs"].values())


class TestAtomicWrite:
    def test_failed_replace_leaves_target_untouched(self, tmp_path, monkeypatch):
        import repro.incremental.supervisor as supervisor_module

        target = tmp_path / "file.json"
        atomic_write_text(target, "original\n")
        real_replace = supervisor_module.os.replace

        def failing_replace(src, dst, *args, **kwargs):
            if str(dst) == str(target):
                raise OSError("injected replace failure")
            return real_replace(src, dst, *args, **kwargs)

        monkeypatch.setattr(supervisor_module.os, "replace", failing_replace)
        with pytest.raises(OSError, match="injected replace failure"):
            atomic_write_text(target, "new contents\n")
        assert target.read_text() == "original\n"
        assert not list(tmp_path.glob("*.tmp"))

    def test_same_state_saves_identical_bytes(self, inc_config, docs, tmp_path):
        """Equal states load back as equal bytes, whether the store was
        built from per-batch deltas or one full save."""
        batches = split_into_batches(docs, BATCHES)
        streamed = CheckpointStore(tmp_path / "streamed")
        extractor = IncrementalExtractor(
            build_pipeline(inc_config), checkpoint=streamed
        )
        for batch in batches:
            extractor.append(batch)
        whole = CheckpointStore(tmp_path / "whole")
        whole.save(extractor.state.to_payload(), sequence=BATCHES)
        assert streamed.load_latest() is not None
        assert canonical_json(streamed.load_latest()[1]) == canonical_json(
            whole.load_latest()[1]
        )


def _checkpoint_text(store: CheckpointStore) -> str:
    latest = store.load_latest()
    assert latest is not None
    return canonical_json(latest[1])


class TestCheckpointDatabase:
    @pytest.mark.parametrize("every", [1, 3])
    def test_store_holds_the_state_of_the_last_commit(
        self, inc_config, docs, tmp_path, every
    ):
        store = CheckpointStore(tmp_path / "run")
        extractor = IncrementalExtractor(
            build_pipeline(inc_config), checkpoint=store, checkpoint_every=every
        )
        committed = None
        for batch in [*split_into_batches(docs, BATCHES), []]:
            report = extractor.append(batch)
            if report.checkpointed:
                committed = canonical_json(extractor.state.to_payload())
            if committed is not None:
                assert _checkpoint_text(store) == committed
        # Marks made since the last commit reach the next one.
        assert extractor.checkpoint_now()
        assert _checkpoint_text(store) == canonical_json(
            extractor.state.to_payload()
        )
        restored = IncrementalExtractor.restore(build_pipeline(inc_config), store)
        restored.append(docs[:0])
        assert _checkpoint_text(store) == canonical_json(
            restored.state.to_payload()
        )

    def test_commit_writes_only_new_and_changed_rows(
        self, inc_config, docs, tmp_path, monkeypatch
    ):
        store = CheckpointStore(tmp_path / "run")
        extractor = IncrementalExtractor(build_pipeline(inc_config), checkpoint=store)
        archive, batch = docs[:40], docs[40:45]
        extractor.append(archive)
        before = extractor.state.to_payload()["docs"]
        postings_before = {
            term_id: posting.tobytes()
            for term_id, posting in extractor.state.term_positions.items()
        }
        terms_before = len(extractor.state.interner)
        statements: list[str] = []
        real_connect = CheckpointStore._connect

        def traced_connect(self):
            connection = real_connect(self)
            connection.set_trace_callback(statements.append)
            return connection

        monkeypatch.setattr(CheckpointStore, "_connect", traced_connect)
        report = extractor.append(batch)
        after = extractor.state.to_payload()["docs"]
        changed = [doc_id for doc_id in before if after[doc_id] != before[doc_id]]
        assert report.dirty_documents and len(changed) < len(archive)
        postings_after = {
            term_id: posting.tobytes()
            for term_id, posting in extractor.state.term_positions.items()
        }
        changed_postings = {
            term_id
            for term_id in postings_before.keys() | postings_after.keys()
            if postings_before.get(term_id) != postings_after.get(term_id)
        }
        assert 0 < len(changed_postings) < len(postings_after)

        def count(prefix: str) -> int:
            return sum(s.startswith(prefix) for s in statements)

        assert count("INSERT INTO documents") == len(batch)
        assert count("INSERT INTO doc_state") == len(batch)
        assert count("UPDATE doc_state") == len(changed)
        assert count("INSERT INTO batches") == 1
        assert count("INSERT INTO terms") == (
            len(extractor.state.interner) - terms_before
        )
        # Only the changed postings are rewritten (an emptied one deleted).
        assert count("INSERT OR REPLACE INTO postings") + count(
            "DELETE FROM postings"
        ) == len(changed_postings)
        assert not count("DELETE FROM documents") and not count(
            "DELETE FROM doc_state"
        )
        assert _checkpoint_text(store) == canonical_json(
            extractor.state.to_payload()
        )

    def test_base_mismatch_is_rejected_and_leaves_store_unchanged(
        self, inc_config, docs, tmp_path
    ):
        store = CheckpointStore(tmp_path / "run")
        extractor = IncrementalExtractor(build_pipeline(inc_config), checkpoint=store)
        extractor.append(docs[:10])
        stored = _checkpoint_text(store)
        state = extractor.state
        terms = len(state.interner)
        state.batches_done.append("unsaved")
        for base in ((9, 1, terms), (10, 0, terms), (11, 1, terms), (10, 1, terms - 1)):
            with pytest.raises(CheckpointError, match="the delta extends"):
                store.save_state(state, 2, base=StateMark(*base), changed=[0, 1])
            assert _checkpoint_text(store) == stored
            assert store.load_latest()[0] == 1
        assert not list(store.directory.glob("*-journal"))

    def test_unknown_changed_document_is_rejected(self, inc_config, docs, tmp_path):
        """A delta that rewrites a document row the store lacks is
        refused, and the file keeps its last commit."""
        store = CheckpointStore(tmp_path / "run")
        extractor = IncrementalExtractor(build_pipeline(inc_config), checkpoint=store)
        extractor.append(docs[:10])
        connection = sqlite3.connect(store.path)
        with connection:
            connection.execute("DELETE FROM doc_state WHERE position = 0")
        connection.close()
        stored = store.path.read_bytes()
        state = extractor.state
        with pytest.raises(CheckpointError, match="lacks"):
            store.save_state(state, 2, base=StateMark.of(state), changed=[0])
        assert store.path.read_bytes() == stored

    def test_retired_json_directory_raises(self, inc_config, tmp_path):
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        (run_dir / "checkpoint-000004.json").write_text('{"schema": "x"}')
        with pytest.raises(CheckpointError) as raised:
            StreamSupervisor(build_pipeline(inc_config), run_dir)
        message = str(raised.value)
        assert "checkpoint-000004.json" in message
        assert "repro.checkpoint/1" in message


def _payload(label: str) -> dict:
    return {
        "schema": STATE_SCHEMA,
        "documents": [],
        "docs": {},
        "batches_done": [label],
    }


class TestRecoveryPolicy:
    def test_every_snapshot_damaged_means_cold_start(
        self, inc_config, docs, tmp_path
    ):
        """A truncated, garbage, empty or foreign-schema database reads
        as no checkpoint; the next checkpoint writes a fresh file.  A
        ``repro.checkpoint/4`` file (original terms as text, no id
        plane), a ``/3`` file (no answers tables) and a ``/2`` file
        (whose documents also carried the Yahoo candidate counts) are
        foreign schemas too."""
        source = CheckpointStore(tmp_path / "source")
        IncrementalExtractor(build_pipeline(inc_config), checkpoint=source).append(
            docs[:20]
        )
        good = source.path.read_bytes()

        def foreign(path):
            connection = sqlite3.connect(path)
            with connection:
                connection.execute(
                    "UPDATE meta SET value = 'repro.checkpoint/9' WHERE key = 'schema'"
                )
            connection.close()

        def previous_layout(path):
            # The /2 layout: a trailing candidates column on documents.
            connection = sqlite3.connect(path)
            with connection:
                connection.execute(
                    "ALTER TABLE documents "
                    "ADD COLUMN candidates TEXT NOT NULL DEFAULT ''"
                )
                connection.execute(
                    "UPDATE meta SET value = 'repro.checkpoint/2' WHERE key = 'schema'"
                )
            connection.close()

        def layout_4(path):
            # The /4 layout: original terms as text, no term table, no
            # expanded rows and no postings.
            connection = sqlite3.connect(path)
            with connection:
                connection.execute("DROP TABLE terms")
                connection.execute("DROP TABLE postings")
                connection.execute(
                    "ALTER TABLE documents RENAME COLUMN original TO stats_terms"
                )
                connection.execute("UPDATE documents SET stats_terms = ''")
                connection.execute("ALTER TABLE doc_state DROP COLUMN expanded")
                connection.execute(
                    "UPDATE meta SET value = 'repro.checkpoint/4' WHERE key = 'schema'"
                )
            connection.close()

        def layout_3(path):
            # The /3 layout: the state tables without the answers.
            connection = sqlite3.connect(path)
            with connection:
                connection.execute("DROP TABLE answers")
                connection.execute("DROP TABLE answer_namespaces")
                connection.execute(
                    "UPDATE meta SET value = 'repro.checkpoint/3' WHERE key = 'schema'"
                )
            connection.close()

        damages = {
            "truncated": lambda path: path.write_bytes(good[: len(good) // 2]),
            "garbage": lambda path: path.write_bytes(b"not a database" * 100),
            "empty": lambda path: path.write_bytes(b""),
            "foreign schema": foreign,
            "schema /4": layout_4,
            "schema /3": layout_3,
            "schema /2": previous_layout,
        }
        for name, damage in damages.items():
            store = CheckpointStore(tmp_path / name)
            store.path.write_bytes(good)
            damage(store.path)
            logged = io.StringIO()
            configure_logging(stream=logged)
            try:
                assert store.load_latest() is None, name
            finally:
                configure_logging()
            assert "checkpoint.skipping_damaged" in logged.getvalue(), name
            supervisor = StreamSupervisor(build_pipeline(inc_config), store.directory)
            assert supervisor.extractor.document_count == 0
            supervisor.extractor.append(docs[:3])
            assert _checkpoint_text(store) == canonical_json(
                supervisor.extractor.state.to_payload()
            ), name

    @staticmethod
    def _id_past_the_terms(connection: sqlite3.Connection) -> None:
        """Document 0's first original id becomes the term count."""
        (count,) = connection.execute("SELECT COUNT(*) FROM terms").fetchone()
        (row,) = connection.execute(
            "SELECT original FROM documents WHERE position = 0"
        ).fetchone()
        connection.execute(
            "UPDATE documents SET original = ? WHERE position = 0",
            (array("i", [count]).tobytes() + row[4:],),
        )

    #: Damage -> (how to do it, what the logged error says).
    CONTRADICTIONS = {
        "partial int32": (
            lambda connection: connection.execute(
                "UPDATE documents SET original = original || x'00' "
                "WHERE position = 1"
            ),
            "multiple of item size",
        ),
        "id past the terms": (_id_past_the_terms, "outside the term table"),
        "term id gap": (
            lambda connection: connection.execute("DELETE FROM terms WHERE id = 5"),
            "the term ids have a gap",
        ),
        "short posting": (
            lambda connection: connection.execute(
                "UPDATE postings SET positions = substr(positions, 1, "
                "length(positions) - 4) WHERE term_id = (SELECT term_id FROM "
                "postings WHERE length(positions) > 4 ORDER BY term_id LIMIT 1)"
            ),
            "the posting lengths do not sum to the expanded rows",
        ),
    }

    @pytest.mark.parametrize("damage", CONTRADICTIONS)
    def test_self_contradicting_checkpoint_means_cold_start(
        self, inc_config, baseline_bytes, input_dir, tmp_path, damage
    ):
        """The id plane is derived data: a file whose ids disagree with
        themselves reads as damaged, and the replay of every batch file
        lands on the batch run's bytes."""
        run_dir = tmp_path / "run"
        StreamSupervisor(build_pipeline(inc_config), run_dir).run(input_dir)
        store = CheckpointStore(run_dir)
        assert store.load_state() is not None
        connection = sqlite3.connect(store.path)
        damage_file, reason = self.CONTRADICTIONS[damage]
        with connection:
            damage_file(connection)
        connection.close()
        logged = io.StringIO()
        configure_logging(stream=logged)
        try:
            assert store.load_state() is None
        finally:
            configure_logging()
        assert "checkpoint.skipping_damaged" in logged.getvalue()
        assert reason in logged.getvalue()
        supervisor = StreamSupervisor(build_pipeline(inc_config), run_dir)
        assert supervisor.extractor.document_count == 0
        report = supervisor.run(input_dir)
        assert report.resumed_at is None and len(report.ingested) == BATCHES
        assert result_bytes(supervisor.extractor.snapshot_result()) == baseline_bytes

    def test_fresh_run_replaces_an_old_runs_newer_snapshots(self, tmp_path):
        """A full save replaces the history an older run left."""
        old = CheckpointStore(tmp_path / "run")
        old.save(_payload("old"), sequence=5)
        fresh = CheckpointStore(tmp_path / "run")
        fresh.save(_payload("new"), sequence=1)
        assert fresh.load_latest() == (1, _payload("new"))

    def test_no_resume_stream_checkpoints_over_an_old_run(
        self, inc_config, docs, tmp_path
    ):
        run_dir = tmp_path / "run"
        old_input = tmp_path / "old-input"
        make_batch_files(old_input, docs[:9], 3)
        StreamSupervisor(build_pipeline(inc_config), run_dir).run(old_input)
        input_dir = tmp_path / "input"
        make_batch_files(input_dir, docs[:6], 2)
        supervisor = StreamSupervisor(
            build_pipeline(inc_config), run_dir, resume=False
        )
        supervisor.run(input_dir)
        assert supervisor.store.load_latest()[0] == 2
        resumed = StreamSupervisor(build_pipeline(inc_config), run_dir)
        assert resumed.extractor.batches_done == [
            "batch-000000.jsonl",
            "batch-000001.jsonl",
        ]
        assert resumed.extractor.document_count == 6


def stored_answers(path: Path) -> dict[tuple[str, str], str]:
    """Every committed answer of a checkpoint: (namespace, term) -> terms."""
    connection = sqlite3.connect(path)
    try:
        rows = connection.execute(
            "SELECT answer_namespaces.namespace, answers.term, answers.terms "
            "FROM answers JOIN answer_namespaces "
            "ON answer_namespaces.id = answers.namespace"
        ).fetchall()
    finally:
        connection.close()
    return {(namespace, term): terms for namespace, term, terms in rows}


class TestCheckpointAnswers:
    """The checkpoint keeps the healthy resource answers the stream paid
    for and serves them to a restored stream."""

    @pytest.fixture()
    def archive(self, inc_config, docs, tmp_path):
        """A run directory holding the first three batches, committed by
        one full save, and the batches still to come."""
        batches = split_into_batches(docs, BATCHES)
        store = CheckpointStore(tmp_path / "archive")
        pipeline = build_pipeline(inc_config)
        extractor = IncrementalExtractor(
            pipeline, checkpoint=store, checkpoint_every=3
        )
        for batch in batches[:3]:
            extractor.append(batch)
        (resource,) = pipeline.resources
        return store.directory, batches[3:], resource.cache_stats.misses

    @staticmethod
    def _resume(config, directory, feed):
        pipeline = build_pipeline(config)
        extractor = IncrementalExtractor.restore(pipeline, CheckpointStore(directory))
        for batch in feed:
            extractor.append(batch)
        (resource,) = pipeline.resources
        return extractor, resource.cache_stats

    def test_restored_stream_starts_warm(
        self, inc_config, baseline_bytes, archive, tmp_path, monkeypatch
    ):
        directory, feed, resolved = archive
        # The one full save wrote every answer the archive resolved.
        stored = stored_answers(directory / "checkpoint.sqlite")
        assert len(stored) == resolved == ARCHIVE_ANSWERS
        cold = tmp_path / "cold"
        shutil.copytree(directory, cold)
        connection = sqlite3.connect(cold / "checkpoint.sqlite")
        with connection:
            connection.execute("DELETE FROM answers")
        connection.close()
        reads: list[str] = []
        real_get_many = CheckpointAnswers.get_many

        def counted(self, namespace, terms):
            reads.append(namespace)
            return real_get_many(self, namespace, terms)

        monkeypatch.setattr(CheckpointAnswers, "get_many", counted)
        IncrementalExtractor.restore(
            build_pipeline(inc_config), CheckpointStore(directory)
        )
        assert not reads  # restore never reads the answers
        warm, warm_stats = self._resume(inc_config, directory, feed)
        cold_extractor, cold_stats = self._resume(inc_config, cold, feed)
        assert warm_stats.persistent_hits > 0
        assert cold_stats.persistent_hits == 0
        assert warm_stats.misses < cold_stats.misses
        for extractor in (warm, cold_extractor):
            assert result_bytes(extractor.snapshot_result()) == baseline_bytes

    def test_outage_leaves_no_degraded_answer(self, inc_config, docs, tmp_path):
        healthy = build_pipeline(inc_config)
        (composite,) = healthy.resources
        members = [
            ResilientResource(FlakyResource(member, error_rate=1.0))
            if member.name is ResourceName.GOOGLE
            else member
            for member in composite.members
        ]
        pipeline = FacetExtractor(
            extractors=healthy.extractors,
            resources=[CompositeResource(members)],
            parallel=healthy.parallel,
            cache_fingerprint=inc_config.cache_fingerprint(),
        )
        store = CheckpointStore(tmp_path / "run")
        extractor = IncrementalExtractor(pipeline, checkpoint=store)
        extractor.append(docs[:20], batch_id="archive")
        (google,) = [m for m in members if isinstance(m, ResilientResource)]
        assert google.gave_up > 0
        assert len(store.load_latest()[1]["documents"]) == 20
        # Every union lacks its Google part, so none may be stored.
        assert stored_answers(store.path) == {}

    def test_mid_write_crash_keeps_no_uncommitted_answer(
        self, inc_config, baseline_bytes, input_dir, tmp_path
    ):
        run_dir = tmp_path / "run"
        database = run_dir / "checkpoint.sqlite"
        committed: dict = {}
        crash = FaultInjector("mid-write", occurrence=3)

        def hook(stage):
            if stage == "post-write":
                committed.clear()
                committed.update(stored_answers(database))
            crash(stage)

        crashed = StreamSupervisor(build_pipeline(inc_config), run_dir, fault_hook=hook)
        with pytest.raises(CrashInjected):
            crashed.run(input_dir)
        uncommitted = {
            (namespace, term)
            for namespace, entries in crashed.store.answers._take().items()
            for term in entries
        }
        assert uncommitted and committed
        stored = stored_answers(database)
        assert stored == committed
        assert not uncommitted & stored.keys()
        resumed = StreamSupervisor(build_pipeline(inc_config), run_dir)
        resumed.run(input_dir)
        assert result_bytes(resumed.extractor.snapshot_result()) == baseline_bytes
        assert committed.keys() < stored_answers(database).keys()

    @pytest.mark.parametrize("case", ["damaged file", "other seed"])
    def test_damaged_file_or_other_world_serves_nothing(
        self, inc_config, archive, case
    ):
        directory, feed, _resolved = archive
        config = inc_config
        if case == "damaged file":
            path = directory / "checkpoint.sqlite"
            path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        else:
            config = ReproConfig(scale=SCALE, seed=inc_config.seed + 1)
        pipeline = build_pipeline(config)
        extractor = IncrementalExtractor.restore(pipeline, CheckpointStore(directory))
        assert (extractor.document_count > 0) == (case == "other seed")
        extractor.append(feed[0])
        (resource,) = pipeline.resources
        assert resource.cache_stats.persistent_hits == 0

    def test_concurrent_puts_all_reach_the_next_save(self, tmp_path):
        """Pool threads buffer answers at once; the save writes them all."""
        store = CheckpointStore(tmp_path / "run")

        def put(worker: int) -> None:
            for i in range(200):
                store.answers.put_many("ns", {f"w{worker}-{i}": [f"ctx {i}"]})

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=put, args=(w,)) for w in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        store.save(_payload("a"), sequence=1)
        assert len(stored_answers(store.path)) == 8 * 200
        assert store.answers.get_many("ns", ["w3-7", "absent"]) == {"w3-7": ("ctx 7",)}


class TestFaultInjector:
    def test_rejects_unknown_stage_and_bad_occurrence(self):
        with pytest.raises(ValueError, match="unknown fault stage"):
            FaultInjector("between-writes")
        with pytest.raises(ValueError, match="occurrence must be >= 1"):
            FaultInjector("mid-write", occurrence=0)

    def test_fires_on_nth_occurrence_then_disarms(self):
        injector = FaultInjector("mid-write", occurrence=2)
        injector("mid-write")  # first: armed, no fire
        injector("post-write")  # other stages never count
        with pytest.raises(CrashInjected):
            injector("mid-write")
        assert injector.fired
        injector("mid-write")  # disarmed: a resumed run completes


class TestBatchFiles:
    def test_round_trip_and_split_shapes(self, tmp_path, docs):
        paths = make_batch_files(tmp_path, docs, BATCHES)
        assert [p.name for p in paths] == [
            f"batch-{i:06d}.jsonl" for i in range(BATCHES)
        ]
        recovered = [doc for path in paths for doc in read_batch_file(path)]
        assert [d.doc_id for d in recovered] == [d.doc_id for d in docs]
        sizes = [len(part) for part in split_into_batches(docs, BATCHES)]
        assert sum(sizes) == len(docs)
        assert max(sizes) - min(sizes) <= 1

    def test_bad_batch_lines_raise_storage_error(self, tmp_path):
        bad = tmp_path / "batch-000000.jsonl"
        bad.write_text('{"doc_id": "x"}\nnot json\n')
        with pytest.raises(StorageError, match="bad document"):
            read_batch_file(bad)
        # Valid JSON of the wrong shape must not escape as a TypeError
        # or AttributeError either.
        doc = '"doc_id": "x", "title": "t", "body": "b"'
        for line in (
            "[1, 2]",
            '"x"',
            '{%s, "published": 20051114}' % doc,
            '{%s, "published": "2005-11-14", "gold": ["markets"]}' % doc,
            '{%s, "published": "2005-11-14", '
            '"gold": {"topic": "markets", "entity_names": 5}}' % doc,
        ):
            bad.write_text(line + "\n")
            with pytest.raises(StorageError, match="bad document"):
                read_batch_file(bad)
        with pytest.raises(StorageError, match="unreadable batch file"):
            read_batch_file(tmp_path / "missing.jsonl")

    def test_split_rejects_nonpositive_batch_count(self, docs):
        with pytest.raises(ValueError, match="batches must be >= 1"):
            split_into_batches(docs, 0)
