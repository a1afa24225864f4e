"""Smoke test of the system benchmark: every workload at ``--size smoke``.

Run from the repository root (outside the tier-1 ``testpaths``)::

    PYTHONPATH=src python -m pytest -q bench/tests
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_benchmark_json_respects_limits():
    spec = _spec()
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    names = [
        entry["name"] for key in ("workloads", "end_to_end", "per_layer") for entry in spec[key]
    ]
    assert all(NAME.match(name) for name in names), names
    assert len(set(names)) == len(names)
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")


def test_smoke_run_reports_every_metric(tmp_path):
    out = tmp_path / "smoke.json"
    traces = tmp_path / "traces"
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--size", "smoke",
         "--out", str(out), "--trace-out", str(traces)],
        cwd=ROOT, capture_output=True, text=True, timeout=90,
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert last["correct"] is True
    assert last["failed"] == 0 and last["attempted"] >= 1

    spec = _spec()
    report = json.loads(out.read_text(encoding="utf-8"))
    by_mode = {(run["workload"], run["trace"]): run for run in report["runs"]}
    for workload in (w["name"] for w in spec["workloads"]):
        for mode, catalog in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            run = by_mode[(workload, mode)]
            assert run["failed"] == 0, run["problems"]
            assert set(run["metrics"]) == {m["name"] for m in catalog}
            for metric in catalog:
                printed = re.search(
                    rf"^  {re.escape(metric['name'])}\s+\S+ {re.escape(metric['unit'])}$",
                    proc.stdout, re.MULTILINE,
                )
                assert printed, f"{workload}: {metric['name']} not printed with its unit"
                assert run["metrics"][metric["name"]]["unit"] == metric["unit"]
            if mode == 0:
                assert all(run["metrics"][m["name"]]["value"] > 0 for m in catalog)

        rendered = subprocess.run(
            [sys.executable, "-m", "repro", "trace", str(traces / f"{workload}.jsonl")],
            cwd=ROOT, capture_output=True, text=True, timeout=30,
            env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        )
        assert rendered.returncode == 0, rendered.stderr
        assert (traces / f"{workload}.selftime.txt").read_text(encoding="utf-8").strip()
