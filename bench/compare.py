#!/usr/bin/env python3
"""Compare two sets of benchmark runs, metric by metric and workload by workload.

    python3 bench/compare.py [--json OUT] BASE.json... -- HEAD.json...

Each file is the report of one ``python3 bench/run.py --out FILE`` run (any
subset of the workloads; only untraced runs are read).  For every workload
and every end-to-end metric of ``BENCHMARK.json`` the table shows each
side's median and quartiles and one verdict:

``worse``       the head's median is worse than the base's by more than the
                metric's bound: a regression;
``better``      the head wins at least nine tenths of the pairs (base run i
                against head run i, ties counting for neither) and the
                medians differ by more than the base's interquartile range;
``unresolved``  the base's own spread (interquartile range over median) is
                wider than the bound, and not every head run beats every
                base run;
``unchanged``   anything else.

A rise in a workload's failure rate (failed over attempted operations) is a
regression as well.  The exit status is 1 when any row is a regression, and
2 when the reports were made with different sizes or measuring windows.
``--json OUT`` also writes the medians, quartiles and verdicts as JSON.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(paths: list[str], settings: set) -> dict[str, list[dict]]:
    """Untraced runs by workload, in the order the files were given; adds
    each report's ``(size, seconds)`` to ``settings``."""
    runs: dict[str, list[dict]] = defaultdict(list)
    for path in paths:
        report = json.loads(Path(path).read_text(encoding="utf-8"))
        settings.add((report["size"], report["seconds"]))
        for run in report["runs"]:
            if run["trace"] == 0:
                runs[run["workload"]].append(run)
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(metric: dict, base: list[float], head: list[float]) -> str:
    lower = metric["better"] == "lower"

    def gain(before: float, after: float) -> float:
        """Positive when ``after`` reads better than ``before``."""
        return before - after if lower else after - before

    b1, b2, b3 = quartiles(base)
    _h1, h2, _h3 = quartiles(head)
    if -gain(b2, h2) > metric["bound"] * abs(b2):
        return "worse"
    pairs = list(zip(base, head))
    wins = sum(1 for before, after in pairs if gain(before, after) > 0)
    if wins >= 0.9 * len(pairs) and gain(b2, h2) > b3 - b1:
        return "better"
    every_run_better = (max(head) < min(base)) if lower else (min(head) > max(base))
    if b3 - b1 > metric["bound"] * abs(b2) and not every_run_better:
        return "unresolved"
    return "unchanged"


def failure_rate(runs: list[dict]) -> float:
    attempted = sum(run["attempted"] for run in runs)
    return sum(run["failed"] for run in runs) / attempted if attempted else 0.0


def compare(base: dict[str, list[dict]], head: dict[str, list[dict]], catalog: list[dict]):
    rows = []
    summary: dict[str, dict] = {"base": {}, "head": {}, "verdicts": {}}
    for workload in sorted(set(base) & set(head)):
        for metric in catalog:
            name = metric["name"]
            sides = {}
            for side, runs in (("base", base[workload]), ("head", head[workload])):
                values = [run["metrics"][name]["value"] for run in runs]
                q1, q2, q3 = quartiles(values)
                sides[side] = values
                summary[side].setdefault(workload, {})[name] = {
                    "median": q2, "q1": q1, "q3": q3, "runs": len(values),
                }
            result = verdict(metric, sides["base"], sides["head"])
            summary["verdicts"].setdefault(workload, {})[name] = result
            rows.append((workload, name, metric["unit"], summary["base"][workload][name],
                         summary["head"][workload][name], result))
        before, after = failure_rate(base[workload]), failure_rate(head[workload])
        result = "worse" if after > before else "unchanged"
        summary["verdicts"][workload]["error_rate"] = result
        rates = [{"median": rate, "q1": rate, "q3": rate} for rate in (before, after)]
        rows.append((workload, "error_rate", "fraction", *rates, result))
    return rows, summary


def main(argv: list[str]) -> int:
    json_out = None
    if "--json" in argv:
        at = argv.index("--json")
        json_out = Path(argv[at + 1])
        argv = argv[:at] + argv[at + 2:]
    if "--" not in argv:
        print(__doc__, file=sys.stderr)
        return 2
    split = argv.index("--")
    settings: set = set()
    base, head = load(argv[:split], settings), load(argv[split + 1:], settings)
    if not base or not head:
        print("compare: each side needs at least one untraced run", file=sys.stderr)
        return 2
    if len(settings) > 1:
        print(f"compare: reports differ in (size, seconds): {sorted(settings)}", file=sys.stderr)
        return 2
    catalog = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]
    rows, summary = compare(base, head, catalog)

    def cell(stats: dict) -> str:
        return f"{stats['median']:.4g} [{stats['q1']:.4g}, {stats['q3']:.4g}]"

    print(f"{'workload':<16} {'metric':<18} {'base median [q1, q3]':<34} "
          f"{'head median [q1, q3]':<34} {'change':>8}  verdict")
    for workload, name, unit, before, after, result in rows:
        change = (after["median"] / before["median"] - 1.0) if before["median"] else 0.0
        print(f"{workload:<16} {name:<18} {cell(before) + ' ' + unit:<34} "
              f"{cell(after) + ' ' + unit:<34} {change:>+8.1%}  {result}")
    if json_out is not None:
        json_out.write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 1 if any(row[-1] == "worse" for row in rows) else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
