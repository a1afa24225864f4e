"""Tests for the command-line interface."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.__main__ import main


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "EXP-T1" in out
        assert "EXP-US" in out

    def test_run_unknown_experiment(self, capsys):
        assert main(["run", "EXP-NOPE"]) == 1
        assert "unknown experiment" in capsys.readouterr().err

    def test_run_figure(self, capsys):
        assert main(["--scale", "0.05", "run", "EXP-F5"]) == 0
        assert capsys.readouterr().out

    def test_extract(self, capsys):
        assert main(["--scale", "0.05", "extract", "--top", "5"]) == 0
        out = capsys.readouterr().out
        assert "score" in out

    def test_browse(self, capsys):
        assert main(["--scale", "0.05", "browse"]) == 0
        assert "top-level facets" in capsys.readouterr().out

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_seed_flag(self, capsys):
        assert main(["--scale", "0.05", "--seed", "42", "run", "EXP-F5"]) == 0

    def test_extract_with_trace_and_metrics(self, capsys, tmp_path):
        trace_path = tmp_path / "trace.jsonl"
        assert (
            main(
                [
                    "--scale",
                    "0.05",
                    "extract",
                    "--top",
                    "3",
                    "--trace-out",
                    str(trace_path),
                    "--metrics",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "score" in out
        assert "stage.annotation.seconds" in out  # the metrics table
        records = [
            json.loads(line)
            for line in trace_path.read_text().splitlines()
            if line.strip()
        ]
        names = {record["name"] for record in records}
        assert "pipeline" in names
        assert {
            "stage:annotation",
            "stage:contextualization",
            "stage:selection",
            "stage:hierarchy",
        } <= names

    def test_trace_subcommand(self, capsys, tmp_path):
        trace_path = tmp_path / "trace.jsonl"
        assert (
            main(
                ["--scale", "0.05", "extract", "--top", "1",
                 "--trace-out", str(trace_path)]
            )
            == 0
        )
        capsys.readouterr()
        assert main(["trace", str(trace_path), "--max-children", "3"]) == 0
        out = capsys.readouterr().out
        assert "pipeline" in out
        assert "stage:annotation" in out

    def test_trace_missing_file(self, capsys, tmp_path):
        assert main(["trace", str(tmp_path / "absent.jsonl")]) == 1
        assert "cannot read trace" in capsys.readouterr().err

    def test_trace_empty_file(self, capsys, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert main(["trace", str(empty)]) == 1
        assert "empty trace" in capsys.readouterr().err

    def test_stream_ingests_then_skips_on_rerun(self, capsys, tmp_path):
        batches = str(tmp_path / "batches")
        run_dir = str(tmp_path / "run")
        args = [
            "--scale",
            "0.05",
            "stream",
            "--input",
            batches,
            "--run-dir",
            run_dir,
            "--dataset",
            "SNYT",
            "--top",
            "5",
        ]
        assert main([*args, "--make-batches", "2"]) == 0
        out = capsys.readouterr().out
        assert "cold start" in out
        assert "ingested 2 batches" in out
        assert "score" in out
        # Same command again: everything is checkpointed, nothing re-runs.
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "resumed with" in out
        assert "ingested 0 batches" in out
        assert "skipped 2" in out


@pytest.mark.parametrize(
    ("argv", "env_scale", "code", "message"),
    [
        (["serve", "--limit", "0", "{tmp}/x.idx"], None, 2, "default_limit"),
        (["extract"], "abc", 2, "REPRO_SCALE must be a number"),
        (["serve", "{tmp}/missing.idx"], None, 1, "no index artifact"),
    ],
    ids=["serve-limit-0", "bad-scale", "missing-index"],
)
def test_project_errors_exit_cleanly(
    argv, env_scale, code, message, capsys, monkeypatch, tmp_path
):
    """Config and storage errors print one line on stderr, no traceback."""
    if env_scale is None:
        monkeypatch.delenv("REPRO_SCALE", raising=False)
    else:
        monkeypatch.setenv("REPRO_SCALE", env_scale)
    argv = [arg.replace("{tmp}", str(tmp_path)) for arg in argv]
    assert main(argv) == code
    err = capsys.readouterr().err
    assert err.startswith(f"repro {argv[0]}: error: ")
    assert message in err
    assert "Traceback" not in err


def _run_cli(*args: str, cwd: str | None = None) -> subprocess.CompletedProcess:
    """Invoke ``python -m repro`` the way a user would."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src + (os.pathsep + existing if existing else "")
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=cwd,
        timeout=300,
    )


class TestCliSubprocess:
    """End-to-end smoke tests through a real interpreter boundary."""

    def test_list(self):
        proc = _run_cli("list")
        assert proc.returncode == 0, proc.stderr
        assert "EXP-T1" in proc.stdout

    def test_extract_with_trace_and_metrics(self, tmp_path):
        trace_path = tmp_path / "trace.jsonl"
        proc = _run_cli(
            "--scale",
            "0.05",
            "extract",
            "--top",
            "5",
            "--trace-out",
            str(trace_path),
            "--metrics",
        )
        assert proc.returncode == 0, proc.stderr
        assert "score" in proc.stdout
        assert "resource." in proc.stdout  # per-resource cache counters
        records = [
            json.loads(line)
            for line in trace_path.read_text().splitlines()
            if line.strip()
        ]
        assert records[0]["name"] == "pipeline"
        assert records[0]["parent"] is None
        names = {record["name"] for record in records}
        # Resource batches nest straight under their stage.
        assert any(name.startswith("resource:") for name in names)

        trace_proc = _run_cli("trace", str(trace_path))
        assert trace_proc.returncode == 0, trace_proc.stderr
        assert "pipeline" in trace_proc.stdout
        assert "└─" in trace_proc.stdout

    def test_json_logs_on_stderr(self):
        proc = _run_cli(
            "--log-format",
            "json",
            "--log-level",
            "INFO",
            "--scale",
            "0.05",
            "extract",
            "--top",
            "1",
        )
        assert proc.returncode == 0, proc.stderr
        events = [
            json.loads(line)
            for line in proc.stderr.splitlines()
            if line.startswith("{")
        ]
        assert any(e.get("event") == "pipeline.done" for e in events)
        # stdout stays clean program output
        assert not proc.stdout.startswith("{")
