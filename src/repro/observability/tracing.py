"""Tracing: nested spans over the pipeline's execution.

A :class:`Span` covers one timed unit of work (the whole pipeline, one
stage, one resource batch, one served request) and carries tags,
counters, and child spans.  A :class:`Tracer` opens spans as context
managers, nesting them through a thread-local stack, and serializes the
finished forest to a JSONL file (one span per line, pre-order, with
``id``/``parent`` links) or to a human-readable tree.

:class:`NullTracer` is the zero-cost disabled implementation: opening a
span costs one attribute lookup and allocates nothing, which is what
lets instrumentation stay in the hot paths permanently.
"""

from __future__ import annotations

import contextlib
import json
import threading
import time
from collections.abc import Iterator
from dataclasses import dataclass, field

from . import context


@dataclass
class Span:
    """One timed unit of work in the trace tree.

    ``start``/``end`` are wall-clock epoch seconds (``time.time()``),
    comparable across worker threads; ``counters`` accumulate via
    :meth:`add`, ``tags`` are set once at open (or via :meth:`set`).
    """

    name: str
    start: float = 0.0
    end: float = 0.0
    tags: dict[str, object] = field(default_factory=dict)
    counters: dict[str, float] = field(default_factory=dict)
    children: list["Span"] = field(default_factory=list)
    status: str = "ok"

    @classmethod
    def begin(cls, name: str, **tags: object) -> "Span":
        """Open a span stamped with the wall clock, outside a tracer.

        The sanctioned way for library code (resource batches, served
        requests) to build a span by hand: the wall-clock read stays inside
        the observability layer, so instrumented modules never touch
        ``time.time()`` themselves.  Pair with :meth:`finish`, and only
        call on a path already guarded by an active bundle/parent span —
        unconditional construction belongs to ``tracer.span(...)``,
        which is free when disabled.
        """
        return cls(name=name, start=time.time(), tags=dict(tags))

    def finish(self, status: str | None = None) -> "Span":
        """Stamp the end time (and optionally a status); returns self."""
        if status is not None:
            self.status = status
        self.end = time.time()
        return self

    @property
    def duration(self) -> float:
        """Wall-clock seconds covered by this span."""
        return max(0.0, self.end - self.start)

    def set(self, **tags: object) -> "Span":
        """Attach tags to the span; returns the span for chaining."""
        self.tags.update(tags)
        return self

    def add(self, counter: str, value: float = 1.0) -> None:
        """Increment a per-span counter."""
        self.counters[counter] = self.counters.get(counter, 0.0) + value

    def walk(self) -> Iterator["Span"]:
        """Pre-order traversal of this span and its descendants."""
        yield self
        for child in self.children:
            yield from child.walk()

    def to_dict(self) -> dict:
        """Nested plain-dict form (children inline)."""
        record = self._record()
        record["children"] = [child.to_dict() for child in self.children]
        return record

    def _record(self) -> dict:
        return {
            "name": self.name,
            "start": self.start,
            "duration_ms": round(self.duration * 1000.0, 3),
            "status": self.status,
            "tags": dict(self.tags),
            "counters": dict(self.counters),
        }


class _NullSpan:
    """Inert stand-in yielded by :class:`NullTracer` spans."""

    __slots__ = ()

    def set(self, **tags: object) -> "_NullSpan":
        return self

    def add(self, counter: str, value: float = 1.0) -> None:
        return None


#: The singleton inert span handed out by disabled tracers.
NULL_SPAN = _NullSpan()


class Tracer:
    """Collects a forest of spans; thread-safe, process-local.

    Spans opened on the same thread nest automatically (the active span
    is kept on the shared observability context stack, so instrumented
    library code can attach children without holding a tracer
    reference).  Spans built by hand — e.g. a served request's span,
    finished after its response — are grafted in with :meth:`attach`.
    """

    enabled = True

    def __init__(self) -> None:
        self.roots: list[Span] = []
        self._lock = threading.Lock()

    def current(self) -> Span | None:
        """The innermost open span on this thread, if any."""
        return context.current_span()

    @contextlib.contextmanager
    def span(
        self, name: str, parent: Span | None = None, **tags: object
    ) -> Iterator[Span]:
        """Open a span; nests under ``parent`` or the thread's active span."""
        span = Span(name=name, start=time.time(), tags=dict(tags))
        self.attach(span, parent=parent)
        with context.use_span(span):
            try:
                yield span
            except BaseException:
                span.status = "error"
                raise
            finally:
                span.end = time.time()

    def attach(self, span: Span, parent: Span | None = None) -> None:
        """Graft a (possibly pre-built) span under ``parent``.

        With no explicit parent, the thread's active span is used; with
        neither, the span becomes a new root.
        """
        target = parent if parent is not None else context.current_span()
        if target is not None:
            with self._lock:
                target.children.append(span)
        else:
            with self._lock:
                self.roots.append(span)

    # -- output ------------------------------------------------------------------

    def write_jsonl(self, path: str) -> None:
        """Serialize the trace forest: one span per line, pre-order."""
        with open(path, "w", encoding="utf-8") as handle:
            for line in trace_jsonl_lines(self.roots):
                handle.write(line + "\n")

    def render(self, max_children: int | None = None) -> str:
        """Human-readable tree of the trace forest."""
        return render_spans(self.roots, max_children=max_children)


class NullTracer:
    """Disabled tracer: every operation is a no-op."""

    enabled = False

    roots: list[Span] = []

    def current(self) -> Span | None:
        return None

    @contextlib.contextmanager
    def span(
        self, name: str, parent: Span | None = None, **tags: object
    ) -> Iterator[_NullSpan]:
        yield NULL_SPAN

    def attach(self, span: Span, parent: Span | None = None) -> None:
        return None

    def write_jsonl(self, path: str) -> None:
        return None

    def render(self, max_children: int | None = None) -> str:
        return ""


#: Shared disabled tracer (stateless, safe to reuse everywhere).
NULL_TRACER = NullTracer()


# -- serialization helpers ---------------------------------------------------------


def trace_jsonl_lines(roots: list[Span]) -> Iterator[str]:
    """Yield one JSON line per span, pre-order, with id/parent links."""
    next_id = 0

    def emit(span: Span, parent_id: int | None) -> Iterator[str]:
        nonlocal next_id
        span_id = next_id
        next_id += 1
        record = span._record()
        record["id"] = span_id
        record["parent"] = parent_id
        yield json.dumps(record, sort_keys=True)
        for child in span.children:
            yield from emit(child, span_id)

    for root in roots:
        yield from emit(root, None)


def load_trace(path: str) -> list[Span]:
    """Rebuild the span forest from a JSONL trace file."""
    by_id: dict[int, Span] = {}
    roots: list[Span] = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            span = Span(
                name=record["name"],
                start=float(record.get("start", 0.0)),
                tags=dict(record.get("tags", {})),
                counters=dict(record.get("counters", {})),
                status=record.get("status", "ok"),
            )
            span.end = span.start + float(record.get("duration_ms", 0.0)) / 1000.0
            by_id[record["id"]] = span
            parent_id = record.get("parent")
            if parent_id is None:
                roots.append(span)
            else:
                parent = by_id.get(parent_id)
                if parent is None:
                    roots.append(span)
                else:
                    parent.children.append(span)
    return roots


def render_spans(roots: list[Span], max_children: int | None = None) -> str:
    """Render a span forest as an indented tree with durations."""
    lines: list[str] = []

    def describe(span: Span) -> str:
        parts = [f"{span.name}  {span.duration * 1000:.1f} ms"]
        if span.status != "ok":
            parts.append(f"[{span.status}]")
        if span.tags:
            tags = " ".join(f"{k}={v}" for k, v in sorted(span.tags.items()))
            parts.append(tags)
        if span.counters:
            counters = " ".join(
                f"{k}={v:g}" for k, v in sorted(span.counters.items())
            )
            parts.append(f"({counters})")
        return "  ".join(parts)

    def walk(span: Span, prefix: str, is_last: bool, is_root: bool) -> None:
        if is_root:
            lines.append(describe(span))
            child_prefix = ""
        else:
            connector = "└─ " if is_last else "├─ "
            lines.append(prefix + connector + describe(span))
            child_prefix = prefix + ("   " if is_last else "│  ")
        children = span.children
        hidden = 0
        if max_children is not None and len(children) > max_children:
            hidden = len(children) - max_children
            children = children[:max_children]
        for i, child in enumerate(children):
            last = i == len(children) - 1 and hidden == 0
            walk(child, child_prefix, last, False)
        if hidden:
            lines.append(child_prefix + f"└─ … {hidden} more span(s)")

    for root in roots:
        walk(root, "", True, True)
    return "\n".join(lines)
