#!/usr/bin/env python3
"""The repository's system benchmark: four workloads, end-to-end and per-layer.

Run from the repository root (no install; the workers put ``src`` on the
import path themselves)::

    python3 bench/run.py [--workload NAME]... [--size reference|smoke]
        [--seed N] [--seconds S] [--trace 0|1] [--trace-out DIR] [--out FILE]

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json`` with
tracing off; ``--trace 1`` makes the separate traced run that yields the
per-layer metrics; without ``--trace`` both run.  Every metric is printed by
name with its unit, and the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  The exit status is
non-zero when any output check fails.  ``bench/README.md`` describes the
workloads, the metrics and how to read a trace.

The process running this file is only the controller and the HTTP load
generator: every trial, preparation step and server is a fresh child
process, and all temporary files live under ``.bench_work/`` in the checkout
and are removed at exit.
"""

from __future__ import annotations

import argparse
import http.client
import json
import math
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER = BENCH / "worker.py"

# A checkout without the product has nothing to measure: fail before any
# result is printed (and before an installed copy could be imported instead).
if not (ROOT / "src" / "repro" / "__init__.py").is_file():
    sys.exit(f"bench/run.py: {ROOT / 'src' / 'repro'} not found; run from a full checkout")

# Traces are read and written with the product's own functions (``spans``).
sys.path.insert(0, str(ROOT / "src"))

import loadgen  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402

#: The ``ReproConfig`` default seed; golden digests exist only for it.
DEFAULT_SEED = 20080407

#: Set-up is sampled at least this many times per run (extra set-up-only
#: processes are started when fewer trials fit in the window).
SETUP_SAMPLES = 3

#: Every child of one workload run must have ended this long after the run
#: started; a hung child fails the run instead of stalling it.
RUN_TIMEOUT_S = 170.0

#: Default measuring window of a smoke run.
SMOKE_SECONDS = 2.0

#: Workload sizes.  ``smoke`` shrinks each about 10x for the test.
#: ``trials`` is the least number of untraced trials in a run; more start
#: while the window has room for them.
SIZES = {
    "reference": {
        "extract-snyt": {
            "dataset": "SNYT", "scale": 1.0, "documents": 500,
            "workers": 1, "latency_s": 0.0, "trials": 3,
        },
        "extract-remote": {
            "dataset": "SNYT", "scale": 1.0, "documents": 300,
            "workers": 2, "latency_s": 0.1, "trials": 3,
        },
        "stream-snb": {
            "dataset": "SNB", "scale": 0.05, "base": 500, "batch": 25, "batches": 4,
            "trials": 2,
        },
        "serve-mixed": {
            "dataset": "SNYT", "scale": 1.0, "documents": 500,
            "rate": 30.0, "requests": 5000, "replay": 300,
        },
    },
    "smoke": {
        "extract-snyt": {
            "dataset": "SNYT", "scale": 0.1, "documents": 100,
            "workers": 1, "latency_s": 0.0, "trials": 1,
        },
        "extract-remote": {
            "dataset": "SNYT", "scale": 0.1, "documents": 30,
            "workers": 2, "latency_s": 0.1, "trials": 1,
        },
        "stream-snb": {
            "dataset": "SNB", "scale": 0.005, "base": 55, "batch": 10, "batches": 2,
            "trials": 1,
        },
        "serve-mixed": {
            "dataset": "SNYT", "scale": 0.1, "documents": 100,
            "rate": 30.0, "requests": 1000, "replay": 30,
        },
    },
}

#: Routes of the serve-mixed request mix.
ROUTES = tuple(route for route, _size in worker.ROUTE_BLOCK)

#: Requests in one browse session: one block of the request mix, which
#: covers every route.  Each fresh server first gets one untimed session
#: (the last of the sequence) to fill its lazy caches.
SESSION = sum(size for _route, size in worker.ROUTE_BLOCK)


class WorkerError(RuntimeError):
    """A child process failed, timed out or wrote no result."""


def child_env() -> dict[str, str]:
    """The environment of every child: ``src`` importable, no REPRO_* overrides."""
    env = {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (with fewer than 1/(1-q) samples: the max)."""
    if not values:
        raise ValueError("no samples")
    ordered = sorted(values)
    rank = min(len(ordered), max(1, math.ceil(round(q * len(ordered), 9))))
    return ordered[rank - 1]


@dataclass
class Pending:
    role: str
    process: subprocess.Popen
    spawned_at: float
    spec: dict
    log: object


@dataclass
class Run:
    """One workload measured in one mode (untraced or traced)."""

    workload: str
    size: str
    params: dict
    seed: int
    seconds: float
    traced: bool
    workdir: Path
    golden: dict
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    values: dict[str, float] = field(default_factory=dict)
    digests: dict[str, str] = field(default_factory=dict)
    traces: list[Path] = field(default_factory=list)
    trials: int = 0
    deadline: float = field(default_factory=lambda: time.monotonic() + RUN_TIMEOUT_S)
    _files: int = 0

    def fail(self, message: str) -> None:
        self.failed += 1
        self.problems.append(message)

    def path(self, stem: str, suffix: str = "") -> Path:
        self._files += 1
        return self.workdir / f"{self._files:03d}-{stem}{suffix}"

    # -- child processes -----------------------------------------------------------

    def spawn(self, role: str, **spec) -> Pending:
        spec_path = self.path(role, ".json")
        spec.update(role=role, seed=self.seed, result=str(spec_path.with_suffix(".out")))
        if spec.get("traced"):
            spec["trace"] = str(spec_path.with_suffix(".jsonl"))
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        log = open(spec_path.with_suffix(".log"), "w", encoding="utf-8")
        spawned_at = time.time()
        process = subprocess.Popen(
            [sys.executable, str(WORKER), str(spec_path)],
            cwd=ROOT, env=child_env(), stdout=log, stderr=subprocess.STDOUT,
        )
        return Pending(role, process, spawned_at, spec, log)

    def finish(self, pending: Pending) -> dict:
        try:
            code = pending.process.wait(timeout=max(0.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            code = None
        finally:  # timed out or interrupted: never leave the child running
            if pending.process.poll() is None:
                pending.process.kill()
                pending.process.wait()
            pending.log.close()
        if code != 0:
            tail = Path(pending.log.name).read_text(encoding="utf-8")[-1500:]
            status = "timed out" if code is None else f"exited {code}"
            raise WorkerError(f"{pending.role} worker {status}:\n{tail}")
        result = json.loads(Path(pending.spec["result"]).read_text(encoding="utf-8"))
        result["spawned_at"] = pending.spawned_at
        result["traced"] = bool(pending.spec.get("traced"))
        if result["traced"]:
            result["trace"] = pending.spec["trace"]
            self.traces.append(Path(pending.spec["trace"]))
        return result

    def worker(self, role: str, **spec) -> dict:
        return self.finish(self.spawn(role, **spec))

    def finish_all(self, pending: list[Pending]) -> list[dict]:
        """Wait for every process, then raise the first failure, if any."""
        results, errors = [], []
        try:
            for item in pending:
                try:
                    results.append(self.finish(item))
                except WorkerError as exc:
                    errors.append(exc)
        finally:
            for item in pending:
                if item.process.poll() is None:
                    item.process.kill()
                    item.process.wait()
        if errors:
            raise errors[0]
        return results

    # -- checks ----------------------------------------------------------------------

    def check(self, what: str, key: str, actual: str, reference: str | None = None) -> None:
        """Compare an output digest with the in-run reference and, for the
        default seed, the golden value; one failure per mismatching output."""
        self.digests.setdefault(key, actual)
        expected = [("reference", reference)]
        if self.seed == DEFAULT_SEED:
            golden = self.golden.get(self.size, {}).get(self.workload, {})
            expected.append(("golden", golden.get(key)))
        wrong = [
            f"{source} {want[:16]}" for source, want in expected
            if want is not None and want != actual
        ]
        if wrong:
            self.fail(f"{what}: {key} {actual[:16]} != " + ", ".join(wrong))


def trial_loop(run: Run, trial, min_trials: int, operations: int = 1) -> list[dict]:
    """Run trials until the measuring window is used up.

    A trial starts only while at least half of the last trial's duration is
    left in the window, so a run measures for about ``--seconds``.  In a
    traced run odd-numbered trials are traced and even ones are not, which
    gives the tracing overhead from the same window.
    """
    results: list[dict] = []
    start = time.perf_counter()
    last = 0.0
    while len(results) < min_trials or time.perf_counter() - start + last / 2 <= run.seconds:
        began = time.perf_counter()
        run.attempted += operations
        try:
            results.append(trial(len(results), run.traced and len(results) % 2 == 1))
        except WorkerError as exc:
            run.fail(f"trial {len(results)}: {exc}")
            break
        last = time.perf_counter() - began
    run.trials = len(results)
    return results


def setup_seconds(run: Run, trials: list[dict], probe) -> list[float]:
    """Set-up samples of the trials, topped up by set-up-only probes."""
    samples = [t["ready_at"] - t["spawned_at"] for t in trials]
    while len(samples) < SETUP_SAMPLES:
        try:
            result = probe()
        except WorkerError as exc:
            run.fail(f"set-up probe: {exc}")
            break
        samples.append(result["ready_at"] - result["spawned_at"])
    return samples


def layer_values(run: Run, operation: str, traced: list[dict]) -> None:
    """Per-operation self time of every layer, from the traced trials."""
    trace = spans.load([Path(t["trace"]) for t in traced])
    count, _total, layers = spans.self_times(trace, operation)
    if not count:
        raise ValueError(f"no {operation} spans in the trace")
    for layer in ("pipeline", "annotate", "contextualize", "selection", "hierarchy",
                  "rescore", "checkpoint"):
        run.values[f"{layer}.self_s"] = layers.get(layer, 0.0) / count
    run.values["resources.busy_s"] = spans.busy_seconds(trace, operation) / count


def resource_values(run: Run, traced: list[dict], operations: int) -> None:
    """Resource-engine counters per operation (``operations`` per trial)."""
    total = {key: sum(t["resources"][key] for t in traced) for key in traced[0]["resources"]}
    ops = operations * len(traced)
    run.values["resources.queries"] = total["queries"] / ops
    run.values["resources.hit_rate"] = total["hits"] / total["queries"] if total["queries"] else 0.0
    run.values["resources.coalesced_hits"] = total["coalesced_hits"] / ops
    run.values["resources.coalesce_wait_s"] = total["coalesce_wait_s"] / ops
    run.values["resources.round_trips"] = total["round_trips"] / ops
    run.values["resources.wait_s"] = total["wait_s"] / ops


def overhead_pct(traced_s: list[float], untraced_s: list[float]) -> float:
    return (median(traced_s) / median(untraced_s) - 1.0) * 100.0


# -- workloads ------------------------------------------------------------------------


def extract_workload(run: Run) -> None:
    p = run.params
    spec = {key: p[key] for key in ("dataset", "scale", "documents", "workers", "latency_s")}
    reference = None
    if p["latency_s"]:
        # The same documents through the local serial pipeline: latency,
        # worker threads and the SQLite cache must not change the output.
        run.attempted += 1
        local = run.worker("extract", **{**spec, "workers": 1, "latency_s": 0.0})
        reference = local["digest"]

    def trial(index: int, traced: bool) -> dict:
        cache = str(run.path("cache", ".sqlite")) if p["latency_s"] else None
        return run.worker("extract", **spec, cache_path=cache, traced=traced)

    trials = trial_loop(run, trial, 2 if run.traced else p["trials"])
    for number, result in enumerate(trials):
        run.check(f"trial {number}", "digest", result["digest"], reference or trials[0]["digest"])
    plain = [t for t in trials if not t["traced"]]
    if not run.traced:
        run_s = [t["run_s"] for t in plain]
        setups = setup_seconds(
            run, trials, lambda: run.worker("extract", **spec, cache_path=None, setup_only=True)
        )
        run.values.update({
            "setup_s": median(setups),
            "throughput_per_s": median([p["documents"] / s for s in run_s]),
            "p50_ms": median(run_s) * 1000.0,
            "peak_rss_mb": median([t["peak_rss_mb"] for t in plain]),
        })
        return
    traced = [t for t in trials if t["traced"]]
    layer_values(run, "bench:run", traced)
    resource_values(run, traced, 1)
    for key in ("batch_reads", "batch_writes"):
        run.values[f"resource_cache.{key}"] = median([t["resource_cache"][key] for t in traced])
    run.values["observability.overhead_pct"] = overhead_pct(
        [t["run_s"] for t in traced], [t["run_s"] for t in plain]
    )


def stream_workload(run: Run) -> None:
    p = run.params
    spec = {key: p[key] for key in ("dataset", "scale", "base", "batch", "batches")}
    archive = run.path("archive")
    # The archive ingest and the batch-pipeline reference over the final
    # documents are independent, so they share the two CPUs before timing.
    run.attempted += 2
    prep, reference = run.finish_all([
        run.spawn("stream-prep", **spec, checkpoint_dir=str(archive)),
        run.spawn(
            "extract", dataset=p["dataset"], scale=p["scale"], workers=1, latency_s=0.0,
            documents=p["base"] + p["batch"] * p["batches"],
        ),
    ])

    def restore_from_archive(traced: bool, setup_only: bool = False) -> dict:
        directory = run.path("trial")
        shutil.copytree(archive, directory)
        return run.worker(
            "stream", **spec, checkpoint_dir=str(directory), side_dir=str(run.path("side")),
            traced=traced, setup_only=setup_only,
        )

    trials = trial_loop(
        run, lambda index, traced: restore_from_archive(traced),
        2 if run.traced else p["trials"], operations=1 + p["batches"],
    )
    for number, result in enumerate(trials):
        run.check(
            f"trial {number} restore", "archive_digest", result["restored_digest"], prep["digest"]
        )
        run.check(f"trial {number} feed", "digest", result["digest"], reference["digest"])
    plain = [t for t in trials if not t["traced"]]
    if not run.traced:
        setups = setup_seconds(run, trials, lambda: restore_from_archive(False, setup_only=True))
        run.values.update({
            "setup_s": median(setups),
            "throughput_per_s": median([t["documents"] / sum(t["commit_s"]) for t in plain]),
            "p50_ms": median([s for t in plain for s in t["commit_s"]]) * 1000.0,
            "peak_rss_mb": median([t["peak_rss_mb"] for t in plain]),
        })
        return
    traced = [t for t in trials if t["traced"]]
    layer_values(run, "bench:append", traced)
    resource_values(run, traced, p["batches"])
    hits = sum(t["resources"]["pair_cache_hits"] for t in traced)
    misses = sum(t["resources"]["pair_cache_misses"] for t in traced)
    run.values.update({
        "incremental.dirty_documents": statistics.fmean(
            n for t in traced for n in t["dirty_documents"]
        ),
        "incremental.touched_terms": statistics.fmean(
            n for t in traced for n in t["touched_terms"]
        ),
        "incremental.pair_cache_hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        "incremental.restore_s": median([t["restore_s"] for t in traced]),
        "state.to_payload_s": median([t["state"]["to_payload"] for t in traced]),
        "state.from_payload_s": median([t["state"]["from_payload"] for t in traced]),
        "checkpoint.save_s": median([t["state"]["save"] for t in traced]),
        "checkpoint.load_s": median([t["state"]["load_latest"] for t in traced]),
        "checkpoint.bytes": median([t["state"]["bytes"] for t in traced]),
        "observability.overhead_pct": overhead_pct(
            [sum(t["commit_s"]) for t in traced], [sum(t["commit_s"]) for t in plain]
        ),
    })


class Server:
    """``python -m repro serve ARTIFACT --port 0`` in its own process.

    ``setup_s`` runs from spawning the process to the first ``/healthz``
    answered with 200.
    """

    def __init__(self, run: Run, artifact: Path) -> None:
        self.run = run
        self.artifact = artifact
        self.process: subprocess.Popen | None = None

    def __enter__(self) -> "Server":
        self.log = open(self.run.path("server", ".log"), "w", encoding="utf-8")
        spawned = time.perf_counter()
        try:
            self.process = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", str(self.artifact), "--port", "0"],
                cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, stderr=self.log,
            )
            ready, _, _ = select.select([self.process.stdout], [], [], 60.0)
            line = self.process.stdout.readline().decode("utf-8") if ready else ""
            if not line.startswith("serving on http://"):
                raise WorkerError(f"server did not start: {line!r}")
            self.host, port = line.split("//", 1)[1].strip().rsplit(":", 1)
            self.port = int(port)
            connection = http.client.HTTPConnection(self.host, self.port, timeout=30)
            try:
                connection.request("GET", "/healthz")
                response = connection.getresponse()
                response.read()
            finally:
                connection.close()
            if response.status != 200:
                raise WorkerError(f"/healthz answered {response.status}")
        except BaseException:
            self.__exit__(None, None, None)
            raise
        self.setup_s = time.perf_counter() - spawned
        return self

    def peak_rss_mb(self) -> float:
        """The server's high-water RSS (Linux ``VmHWM``)."""
        with open(f"/proc/{self.process.pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise WorkerError("no VmHWM in /proc status")

    def __exit__(self, *exc_info: object) -> None:
        process = self.process
        if process is not None and process.poll() is None:
            process.send_signal(signal.SIGINT)
            try:
                process.wait(timeout=15)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
        if process is not None:
            process.stdout.close()
        self.log.close()


def _http_trace(run: Run, samples: list, routes: list[str]) -> Path:
    """The load generator's requests as ``bench:http`` spans under one
    ``bench:load`` span, written as a JSONL trace."""
    offset = time.time() - time.perf_counter()
    root = spans.Span(
        name="bench:load",
        start=samples[0].sent + offset,
        end=max(sample.done for sample in samples) + offset,
        tags={"connections": loadgen.CONNECTIONS},
        counters={"requests": len(samples)},
    )
    for sample in samples:
        root.children.append(spans.Span(
            name="bench:http",
            start=sample.sent + offset,
            end=sample.done + offset,
            tags={
                "route": routes[sample.index % len(routes)],
                "status": sample.status,
                "latency_ms": round(sample.latency * 1000.0, 3),
            },
            status="ok" if sample.status == 200 else "error",
        ))
    path = run.path("http", ".jsonl")
    spans.write([root], path)
    return path


def serve_workload(run: Run) -> None:
    p = run.params
    artifact = run.path("facets", ".idx")
    requests_file = run.path("requests", ".json")
    run.attempted += 1
    # In the traced run the preparation is traced too: its extraction gives
    # the stage and resource numbers of serve-mixed's set-up.
    prep = run.worker(
        "serve-prep", dataset=p["dataset"], scale=p["scale"], documents=p["documents"],
        requests=p["requests"], artifact=str(artifact), requests_file=str(requests_file),
        traced=run.traced,
    )
    run.check("extraction", "digest", prep["digest"])
    run.check("artifact", "checksum", prep["checksum"])
    requests = json.loads(requests_file.read_text(encoding="utf-8"))
    paths = [request["path"] for request in requests]
    routes = [request["route"] for request in requests]
    expected = prep["expected"]

    # Three windows, each against a fresh server (one set-up sample each)
    # after one untimed session that lets its lazy caches fill.  The
    # untraced run sends with a closed loop: two clients, each sending whole
    # browse sessions, one request after another.  Its request rate is the
    # capacity and its median session time the end-to-end latency.  The
    # traced run sends with an open loop at a fixed rate far below capacity,
    # for the per-route medians and the overall tail (about 600 requests, so
    # the p98 has 12 beyond it; a route has too few for a tail of its own).
    # A single cheap request is mostly fixed per-request cost,
    # which a busy host inflates far more than the server's work: between
    # runs, the median request varied 2.3-7.5 ms at 30 req/s and 3.7-7.6 ms
    # in the closed loop, while capacity moved by a sixth.
    window_s = run.seconds / 3.0
    rate, session = (p["rate"], 1) if run.traced else (None, SESSION)
    samples: list = []
    busy_s = 0.0
    setups: list[float] = []
    rss: list[float] = []
    for _ in range(3):
        with Server(run, artifact) as server:
            setups.append(server.setup_s)
            statuses = loadgen.warm(server.host, server.port, paths[-SESSION:])
            run.attempted += len(statuses)
            if any(status != 200 for status in statuses):
                run.fail(f"warm-up: HTTP statuses {sorted(set(statuses))}")
            first = samples[-1].index + 1 if samples else 0
            window = loadgen.drive(
                server.host, server.port, paths, first, window_s, rate, session
            )
            busy_s += max(s.done for s in window) - min(s.due for s in window)
            samples += window
            rss.append(server.peak_rss_mb())
            run.trials += 1
    run.attempted += len(samples)
    for sample in samples:
        position = sample.index % len(paths)
        want = expected.get(str(position))
        if sample.status != 200:
            run.fail(f"request {sample.index} {paths[position]}: HTTP {sample.status}")
        elif sample.body is not None and want is not None and sample.body != want.encode("utf-8"):
            run.fail(f"request {sample.index} {paths[position]}: body differs")
    ok = [s for s in samples if s.status == 200]
    latencies = [s.latency for s in ok]
    if not run.traced:
        sessions = [samples[i : i + SESSION] for i in range(0, len(samples), SESSION)]
        run.values.update({
            "setup_s": median(setups),
            "throughput_per_s": len(ok) / busy_s,
            "p50_ms": median([group[-1].done - group[0].due for group in sessions]) * 1000.0,
            "peak_rss_mb": median(rss),
        })
        return

    run.values["http.p50_ms"] = median(latencies) * 1000.0
    run.values["http.p98_ms"] = percentile(latencies, 0.98) * 1000.0
    for route in ROUTES:
        latencies = [s.latency for s in ok if routes[s.index % len(routes)] == route]
        run.values[f"http.{route}.p50_ms"] = median(latencies) * 1000.0
    run.values["loadgen.late_p98_ms"] = percentile([s.lateness for s in samples], 0.98) * 1000.0
    http_trace = _http_trace(run, samples, routes)

    run.attempted += 1
    layers = run.worker(
        "serve-layers", artifact=str(artifact), requests_file=str(requests_file),
        replay=p["replay"], traced=True,
    )
    run.attempted += layers["attempted"]
    if layers["failed"]:
        run.fail(f"in-process replay: {layers['failed']} of {layers['attempted']} not 200")
    run.traces.append(http_trace)
    trace = spans.load([Path(layers["trace"])])
    for route in ROUTES:
        payload_ms = spans.durations_ms(trace, "bench:payload", route)
        run.values[f"artifact.{route}.p50_ms"] = median(payload_ms)
    run.values["render.p50_ms"] = median(spans.durations_ms(trace, "bench:render"))
    app = spans.durations_ms(trace, "bench:asgi")
    run.values["app.p50_ms"] = median(app)
    run.values["app.p95_ms"] = percentile(app, 0.95)
    run.values["transport.p50_ms"] = median([s.service for s in ok]) * 1000.0 - median(app)
    layer_values(run, "bench:run", [prep])
    resource_values(run, [prep], 1)
    run.values["artifact.build_s"] = prep["build_s"]
    run.values["artifact.bytes"] = prep["artifact_bytes"]
    run.values["observability.overhead_pct"] = overhead_pct(
        [layers["traced_s"]], [layers["untraced_s"]]
    )


WORKLOADS = {
    "extract-snyt": (extract_workload, ["bench:run"]),
    "extract-remote": (extract_workload, ["bench:run"]),
    "stream-snb": (stream_workload, ["bench:append", "bench:restore"]),
    "serve-mixed": (serve_workload, ["bench:asgi", "bench:run"]),
}


# -- command line ---------------------------------------------------------------------


def measure(run: Run, catalog: list[dict], trace_out: Path | None) -> dict:
    """Run one workload in one mode; returns its report."""
    function, operations = WORKLOADS[run.workload]
    try:
        function(run)
    except Exception as exc:  # one broken workload must not hide the others
        detail = "".join(traceback.format_exception_only(exc)).strip()
        run.fail(f"{run.workload} aborted: {detail}")
    metrics = {}
    for entry in catalog:
        value = run.values.get(entry["name"], 0.0)
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
    if trace_out is not None and run.traces:
        trace_out.mkdir(parents=True, exist_ok=True)
        trace = spans.load(run.traces)
        spans.write(trace, trace_out / f"{run.workload}.jsonl")
        (trace_out / f"{run.workload}.selftime.txt").write_text(
            spans.format_self_times(run.workload, trace, operations), encoding="utf-8"
        )
    return {
        "workload": run.workload,
        "trace": int(run.traced),
        "trials": run.trials,
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "problems": run.problems,
        "metrics": metrics,
        "digests": run.digests,
    }


def print_report(report: dict) -> None:
    mode = "traced, per-layer" if report["trace"] else "untraced, end-to-end"
    print(f"\n{report['workload']} ({mode}): {report['trials']} trials, "
          f"{report['attempted']} operations, {report['failed']} failed")
    for name, metric in report["metrics"].items():
        print(f"  {name:<34} {metric['value']:>16.6g} {metric['unit']}")
    for problem in report["problems"]:
        print(f"  FAILED: {problem}")


def parse_args(argv: list[str], spec: dict) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    names = [w["name"] for w in spec["workloads"]]
    parser.add_argument("--workload", action="append", choices=names,
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--size", choices=sorted(SIZES), default="reference")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    # Part of the benchmark's command line (`COMMAND --workload W --seed N
    # --seconds S --trace 0|1`), so every caller can pass it; compare.py
    # refuses reports measured with different windows.
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring window per workload (default: run_seconds "
                             f"of BENCHMARK.json, or {SMOKE_SECONDS:g} for smoke)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end metrics only; 1: per-layer only (default: both)")
    parser.add_argument("--trace-out", type=Path, default=None,
                        help="write <workload>.jsonl and <workload>.selftime.txt here")
    parser.add_argument("--out", type=Path, default=None, help="write the full report as JSON")
    return parser.parse_args(argv)


def main(argv: list[str]) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    args = parse_args(argv, spec)
    # A terminated benchmark still stops its children and removes its files.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.seconds is None:
        args.seconds = SMOKE_SECONDS if args.size == "smoke" else float(spec["run_seconds"])
    golden = json.loads((BENCH / "golden.json").read_text(encoding="utf-8"))
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    modes = [args.trace] if args.trace is not None else [0, 1]

    workroot = ROOT / ".bench_work"
    workroot.mkdir(exist_ok=True)
    # A fresh name even when a killed run left its directory behind.
    workdir = Path(tempfile.mkdtemp(dir=workroot))
    # Temporary files of this process and its children stay in the checkout.
    (workdir / "tmp").mkdir()
    os.environ["TMPDIR"] = str(workdir / "tmp")
    reports = []
    try:
        for workload in workloads:
            for mode in modes:
                directory = workdir / f"{workload}-{mode}"
                directory.mkdir(parents=True)
                run = Run(
                    workload=workload, size=args.size, params=SIZES[args.size][workload],
                    seed=args.seed, seconds=args.seconds, traced=bool(mode),
                    workdir=directory, golden=golden,
                )
                catalog = spec["per_layer"] if mode else spec["end_to_end"]
                report = measure(run, catalog, args.trace_out)
                print_report(report)
                reports.append(report)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workroot.rmdir()
        except OSError:
            pass

    if args.out is not None:
        args.out.write_text(json.dumps({
            "seed": args.seed, "size": args.size, "seconds": args.seconds, "runs": reports,
        }, indent=1), encoding="utf-8")
    if len(reports) == 1:
        metrics = reports[0]["metrics"]
    else:
        metrics = {
            f"{r['workload']}.{name}": metric
            for r in reports for name, metric in r["metrics"].items()
        }
    correct = all(r["correct"] for r in reports)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
