"""Merge JSONL traces and split their time into layers.

Trace files are what ``repro.observability.Tracer.write_jsonl`` writes and
``python -m repro trace`` renders; they are read and written here with the
same ``load_trace`` / ``trace_jsonl_lines`` functions, so the benchmark and
the product share one trace format and one reader.

Each span belongs to a layer named after the module that emits it.  Work
units nested inside a stage (``chunk`` spans, the ``resource:*`` lookups a
stage makes, and any span this table does not name) belong to the layer of
their parent.  A layer's self time is the wall time covered by its spans
minus the part of it covered by nested spans of other layers; intervals are
merged first, so spans that overlap in time (chunks on parallel workers) are
not counted twice.  The self times of all layers under an operation span
therefore add up to that span's duration.

Resource lookups are counted in the stage that makes them, so the stages
account for the whole operation.  How much of that time the ``resources``
layer was busy is reported on its own (``busy_seconds``): the wall time
covered by ``resource:*`` spans, which lies inside the stages' self times.
"""

from __future__ import annotations

from collections import defaultdict
from pathlib import Path

from repro.observability import Span, load_trace, trace_jsonl_lines

#: Span name -> layer.  The benchmark's own ``bench:*`` spans form the
#: ``bench`` layer.
LAYER_OF_SPAN = {
    "pipeline": "pipeline",
    "incremental:batch": "pipeline",
    "stage:annotation": "annotate",
    "incremental:annotation": "annotate",
    "stage:contextualization": "contextualize",
    "incremental:contextualization": "contextualize",
    "stage:selection": "selection",
    "incremental:selection": "selection",
    "stage:hierarchy": "hierarchy",
    "incremental:hierarchy": "hierarchy",
    "incremental:rescore": "rescore",
    "incremental:checkpoint": "checkpoint",
    "serving.request": "app",
}

#: Report order of the layers.
LAYERS = (
    "bench",
    "pipeline",
    "annotate",
    "contextualize",
    "rescore",
    "selection",
    "hierarchy",
    "checkpoint",
    "app",
)


def layer_of(name: str, parent_layer: str | None) -> str | None:
    if name in LAYER_OF_SPAN:
        return LAYER_OF_SPAN[name]
    if name.startswith("bench:"):
        return "bench"
    return parent_layer


def load(paths: list[Path]) -> list[Span]:
    """The span forests of several trace files, as one forest."""
    return [root for path in paths for root in load_trace(str(path))]


def write(roots: list[Span], path: Path) -> None:
    """One JSONL trace file (ids renumbered across the whole forest)."""
    with open(path, "w", encoding="utf-8") as handle:
        for line in trace_jsonl_lines(roots):
            handle.write(line + "\n")


def named(roots: list[Span], name: str) -> list[Span]:
    return [span for root in roots for span in root.walk() if span.name == name]


def durations_ms(roots: list[Span], name: str, route: str | None = None) -> list[float]:
    """Durations of every span called ``name`` (optionally one route)."""
    return [
        span.duration * 1000.0
        for span in named(roots, name)
        if route is None or span.tags.get("route") == route
    ]


def self_times(roots: list[Span], operation: str) -> tuple[int, float, dict[str, float]]:
    """``(operations, total seconds, layer -> self seconds)`` summed over
    every span called ``operation``."""
    operations = named(roots, operation)
    layers: dict[str, float] = defaultdict(float)
    for root in operations:
        for layer, seconds in _operation_self_times(root).items():
            layers[layer] += seconds
    return len(operations), sum(span.duration for span in operations), dict(layers)


def busy_seconds(roots: list[Span], operation: str) -> float:
    """Wall time covered by ``resource:*`` spans, summed over every span
    called ``operation``."""
    return sum(
        _length(_merge([
            (span.start, span.end) for span in root.walk() if span.name.startswith("resource:")
        ]))
        for root in named(roots, operation)
    )


def _operation_self_times(root: Span) -> dict[str, float]:
    tops: dict[str, list] = defaultdict(list)
    nested: dict[str, list] = defaultdict(list)
    stack: list[tuple[Span, str | None]] = [(root, None)]
    while stack:
        span, parent_layer = stack.pop()
        layer = layer_of(span.name, parent_layer)
        if layer != parent_layer:
            tops[layer].append((span.start, span.end))
            if parent_layer is not None:
                nested[parent_layer].append((span.start, span.end))
        stack.extend((child, layer) for child in span.children)
    result = {}
    for layer, intervals in tops.items():
        own = _merge(intervals)
        covered = _intersect(own, _merge(nested.get(layer, [])))
        result[layer] = _length(own) - _length(covered)
    return result


def _merge(intervals: list) -> list[tuple[float, float]]:
    merged: list[list[float]] = []
    for start, end in sorted(intervals):
        if merged and start <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], end)
        else:
            merged.append([start, end])
    return [(start, end) for start, end in merged]


def _intersect(a: list, b: list) -> list[tuple[float, float]]:
    out = []
    i = j = 0
    while i < len(a) and j < len(b):
        start = max(a[i][0], b[j][0])
        end = min(a[i][1], b[j][1])
        if start < end:
            out.append((start, end))
        if a[i][1] < b[j][1]:
            i += 1
        else:
            j += 1
    return out


def _length(intervals: list) -> float:
    return sum(end - start for start, end in intervals)


def format_self_times(workload: str, roots: list[Span], operations: list[str]) -> str:
    """The ``<workload>.selftime.txt`` report: self time per layer."""
    lines = [f"{workload}: self time per layer (mean per operation)"]
    for operation in operations:
        count, total, layers = self_times(roots, operation)
        if not count:
            continue
        lines.append(f"\n{operation}: {count} operation(s), mean {total / count:.4f} s")
        for layer in LAYERS:
            if layer in layers:
                seconds = layers[layer] / count
                share = layers[layer] / total if total else 0.0
                lines.append(f"  {layer:<14} {seconds:10.4f} s  {share:6.1%}")
        coverage = sum(layers.values()) / total if total else 0.0
        lines.append(f"  {'sum':<14} {sum(layers.values()) / count:10.4f} s  {coverage:6.1%}")
        busy = busy_seconds(roots, operation)
        if busy:
            share = busy / total if total else 0.0
            lines.append(f"  {'resources':<14} {busy / count:10.4f} s  {share:6.1%}"
                         "  busy, inside the stages above")
    return "\n".join(lines) + "\n"
