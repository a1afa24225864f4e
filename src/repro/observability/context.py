"""Thread-local observability context.

Instrumented library code (resources, the selection/hierarchy stages)
must not need a tracer or registry handle threaded through every call
signature.  Instead the pipeline pushes the active
:class:`~repro.observability.metrics.MetricsRegistry` and the active
:class:`~repro.observability.tracing.Span` onto small thread-local
stacks; leaf code reads them back with
:func:`current_metrics` / :func:`current_span`.

When nothing is pushed (observability disabled, or code running outside
the pipeline), both getters return ``None`` after a single thread-local
attribute read — that is the entire disabled-mode overhead.
"""

from __future__ import annotations

import contextlib
import threading
from collections.abc import Iterator
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from .metrics import MetricsRegistry
    from .tracing import Span

_state = threading.local()


def current_metrics() -> "MetricsRegistry | None":
    """The innermost active registry on this thread, or None."""
    stack = getattr(_state, "metrics", None)
    if not stack:
        return None
    return stack[-1]


@contextlib.contextmanager
def use_metrics(registry: "MetricsRegistry | None") -> Iterator[None]:
    """Make ``registry`` the thread's active metrics sink.

    ``None`` is accepted and leaves the context unchanged, so callers
    can write ``with use_metrics(obs.metrics):`` unconditionally.
    """
    if registry is None:
        yield
        return
    stack = getattr(_state, "metrics", None)
    if stack is None:
        stack = []
        _state.metrics = stack
    stack.append(registry)
    try:
        yield
    finally:
        stack.pop()


def current_span() -> "Span | None":
    """The innermost open span on this thread, or None."""
    stack = getattr(_state, "spans", None)
    if not stack:
        return None
    return stack[-1]


@contextlib.contextmanager
def use_span(span: "Span | None") -> Iterator[None]:
    """Make ``span`` the thread's active span (None = unchanged)."""
    if span is None:
        yield
        return
    stack = getattr(_state, "spans", None)
    if stack is None:
        stack = []
        _state.spans = stack
    stack.append(span)
    try:
        yield
    finally:
        stack.pop()
