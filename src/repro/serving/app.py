"""The faceted-browsing ASGI application (stdlib only, no framework).

:class:`FacetApp` is a plain ASGI 3 callable serving the browsing API
over any *browser* backend — normally a read-only
:class:`~repro.serving.artifact.FacetIndex`, but an in-memory
:class:`~repro.core.interface.FacetedInterface` works identically
(useful in tests and notebooks).  Routes::

    GET /                         facet roots (alias of /facets)
    GET /facets                   facet roots + collection stats
    GET /facets/{term}/children   one node's drill-down view
    GET /drilldown?facet=a&facet=b&q=...&limit=N
                                  multi-facet slice/dice, BM25-intersected
    GET /documents/{id}           one full document
    GET /healthz                  liveness + artifact metadata (503 once
                                  the artifact was found damaged)

Responses are JSON by default; ``?format=html`` (or an ``Accept``
header preferring ``text/html``) selects the minimal HTML renderer.
Backend queries (including the ``/healthz`` probe) run inline on the
event loop, one request at a time: every route reads only the page it
shows, so a thread hop would cost more than the query.  The per-request
time budget is enforced where the time goes.  A backend with a
``deadline`` scope (:meth:`FacetIndex.deadline`) has SQLite interrupt a
statement still running when the budget expires, and any builder that
returns past the budget is answered the same way: 503.  The scope also
reports an artifact damaged under the live server (truncated or
overwritten): a query that meets the damage answers 503, and from then
on ``/healthz`` answers 503 with ``"status": "damaged"``.  ``/healthz``
also compares the file's size with its page count (a backend's
``check_size``), so it reports a truncation before any data route meets
it.  An index closed under the app answers 503 too.  Row counts are
clamped to ``max_limit`` (exceeded → 400), and data responses carry an
ETag derived from the artifact checksum plus ``Cache-Control`` so
conditional requests short-circuit to 304 without touching the backend.
"""

from __future__ import annotations

import contextlib
import hashlib
import math
import time
from functools import partial
from urllib.parse import parse_qs, unquote

from ..config import ServingConfig
from ..errors import (
    ArtifactDamagedError,
    HierarchyError,
    IndexClosedError,
    StorageError,
)
from ..observability import DISABLED, Observability, Span
from ..observability import names as obs_names
from ..observability.logging import get_logger
from . import renderers

log = get_logger(__name__)

_JSON = "application/json; charset=utf-8"
_HTML = "text/html; charset=utf-8"

#: The 503 message for an index closed under the app (no file path: the
#: body must not reveal the server's layout).
_CLOSED = "index is closed"


class _BadRequest(Exception):
    """Raised by parameter validation; rendered as a 400 envelope."""


class FacetApp:
    """ASGI 3 application over a facet-browsing backend.

    ``browser`` is anything implementing the shared query surface
    (``FacetIndex`` or ``FacetedInterface``).  ETags are emitted only
    when the backend exposes a ``checksum`` (artifacts do; in-memory
    interfaces have no stable content identity).  A backend may also
    expose ``deadline(seconds)``, a context manager that stops its
    queries once the time budget is spent by raising
    :class:`TimeoutError`, and that reports a damaged artifact by raising
    :class:`~repro.errors.ArtifactDamagedError`; and ``check_size()``,
    an O(1) probe ``/healthz`` runs that raises the same error for a
    file whose size no longer matches its database.
    """

    def __init__(
        self,
        browser,
        *,
        config: ServingConfig | None = None,
        observability: Observability | None = None,
    ) -> None:
        self._browser = browser
        self._config = config if config is not None else ServingConfig()
        self._obs = observability if observability is not None else DISABLED
        self._checksum: str | None = getattr(browser, "checksum", None)
        # nullcontext(seconds) is a scope that interrupts nothing.
        self._deadline = getattr(browser, "deadline", contextlib.nullcontext)
        self._check_size = getattr(browser, "check_size", None)
        # Why the artifact stopped reading, once a query found it damaged.
        self._damage: str | None = None

    def close(self) -> None:
        """Nothing to release: the app owns no threads or connections
        (whoever opened the browser closes it)."""

    def __enter__(self) -> "FacetApp":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- ASGI entry point ----------------------------------------------------------

    async def __call__(self, scope, receive, send) -> None:
        if scope["type"] == "lifespan":
            await self._lifespan(receive, send)
            return
        if scope["type"] != "http":
            return
        await self._handle(scope, send)

    async def _lifespan(self, receive, send) -> None:
        while True:
            message = await receive()
            if message["type"] == "lifespan.startup":
                await send({"type": "lifespan.startup.complete"})
            elif message["type"] == "lifespan.shutdown":
                await send({"type": "lifespan.shutdown.complete"})
                return

    # -- request handling ----------------------------------------------------------

    async def _handle(self, scope, send) -> None:
        method = scope["method"]
        path = scope["path"]
        query_string = scope.get("query_string", b"").decode("latin-1")
        query = parse_qs(query_string)
        wants_html = self._wants_html(scope, query)
        tracer = self._obs.tracer
        span = (
            Span.begin(obs_names.SPAN_SERVING_REQUEST, method=method, path=path)
            if tracer.enabled
            else None
        )

        status, body, headers = self._respond(
            scope, method, path, query_string, query, wants_html
        )
        if method == "HEAD":
            body = b""
        await send(
            {
                "type": "http.response.start",
                "status": status,
                "headers": [
                    (name.encode("latin-1"), value.encode("latin-1"))
                    for name, value in headers
                ],
            }
        )
        await send({"type": "http.response.body", "body": body})

        if span is not None:
            span.set(status=status)
            tracer.attach(span.finish("ok" if status < 500 else "error"))
        metrics = self._obs.metrics
        if metrics is not None:
            metrics.increment(obs_names.SERVING_REQUESTS)
            metrics.increment(obs_names.serving_status(status))
            if span is not None:
                metrics.record_time(obs_names.SERVING_REQUEST_SECONDS, span.duration)
        log.info("serving.request", method=method, path=path, status=status)

    def _respond(
        self,
        scope,
        method: str,
        path: str,
        query_string: str,
        query: dict[str, list[str]],
        wants_html: bool,
    ) -> tuple[int, bytes, list[tuple[str, str]]]:
        if method not in ("GET", "HEAD"):
            return self._error(405, f"method {method} not allowed", wants_html)
        if path == "/healthz":
            return self._healthz()
        try:
            builder, html_renderer = self._resolve(path, query)
        except _BadRequest as exc:
            return self._error(400, str(exc), wants_html)
        if builder is None:
            return self._error(404, f"no route for {path}", wants_html)

        etag = self._etag(path, query_string)
        if etag is not None and self._if_none_match_hit(scope, etag):
            return 304, b"", self._cache_headers(etag)

        budget = self._config.time_budget_seconds
        start = time.perf_counter()
        try:
            with self._deadline(budget):
                payload = builder()
            # Also catches stalls outside SQL and backends without a scope.
            over_budget = time.perf_counter() - start > budget
        except TimeoutError:
            over_budget = True
        except ArtifactDamagedError as exc:
            self._mark_damaged(exc)
            return self._error(503, str(exc), wants_html)
        except IndexClosedError:
            return self._error(503, _CLOSED, wants_html)
        except (HierarchyError, StorageError) as exc:
            return self._error(404, str(exc), wants_html)
        if over_budget:
            return self._error(
                503, f"query exceeded the {budget}s time budget", wants_html
            )

        if wants_html:
            body, content_type = html_renderer(payload), _HTML
        else:
            body, content_type = renderers.canonical_json(payload), _JSON
        headers = [("content-type", content_type)]
        headers.extend(self._cache_headers(etag))
        headers.append(("content-length", str(len(body))))
        return 200, body, headers

    def _resolve(self, path: str, query: dict[str, list[str]]):
        """Map a path to (payload builder, HTML renderer); (None, None)
        when no route matches.  Raises :class:`_BadRequest` on bad
        parameters."""
        browser = self._browser
        if path in ("/", "/facets"):
            return partial(renderers.facets_payload, browser), renderers.facets_html
        parts = [unquote(part) for part in path.split("/")]
        if len(parts) == 4 and parts[1] == "facets" and parts[3] == "children":
            term = parts[2]
            if not term:
                raise _BadRequest("facet term must not be empty")
            return (
                partial(renderers.children_payload, browser, term),
                renderers.children_html,
            )
        if path == "/drilldown":
            terms = [t for t in query.get("facet", []) if t]
            q = (query.get("q", [""])[-1] or "").strip() or None
            limit = self._parse_limit(query)
            return (
                partial(
                    renderers.drilldown_payload,
                    browser,
                    terms=terms,
                    query=q,
                    limit=limit,
                ),
                renderers.drilldown_html,
            )
        if len(parts) == 3 and parts[1] == "documents":
            doc_id = parts[2]
            if not doc_id:
                raise _BadRequest("document id must not be empty")
            return (
                partial(renderers.document_payload, browser, doc_id),
                renderers.document_html,
            )
        return None, None

    def _mark_damaged(self, exc: ArtifactDamagedError) -> None:
        if self._damage is None:
            log.error("serving.artifact_damaged", error=str(exc))
            self._damage = str(exc)

    def _healthz(self) -> tuple[int, bytes, list[tuple[str, str]]]:
        payload: dict[str, object] = {"schema": renderers.PAYLOAD_SCHEMA}
        if self._damage is None:
            try:
                # An infinite budget: the probe is never cut short.
                with self._deadline(math.inf):
                    if self._check_size is not None:
                        self._check_size()
                    facet_count = len(self._browser.facet_names())
            except ArtifactDamagedError as exc:
                self._mark_damaged(exc)
            except IndexClosedError:
                return self._error(503, _CLOSED, wants_html=False)
        if self._damage is not None:
            status = 503
            payload.update(status="damaged", error=self._damage)
        else:
            status = 200
            payload.update(
                status="ok",
                document_count=self._browser.document_count,
                facet_count=facet_count,
            )
        if self._checksum is not None:
            payload["checksum"] = self._checksum
        body = renderers.canonical_json(payload)
        headers = [
            ("content-type", _JSON),
            ("cache-control", "no-store"),
            ("content-length", str(len(body))),
        ]
        return status, body, headers

    # -- parameters and headers ------------------------------------------------------

    def _parse_limit(self, query: dict[str, list[str]]) -> int:
        raw = query.get("limit", [None])[-1]
        if raw is None:
            return self._config.default_limit
        try:
            value = int(raw)
        except ValueError:
            raise _BadRequest(f"limit must be an integer, got {raw!r}") from None
        if not 1 <= value <= self._config.max_limit:
            raise _BadRequest(
                f"limit must be in [1, {self._config.max_limit}], got {value}"
            )
        return value

    def _wants_html(self, scope, query: dict[str, list[str]]) -> bool:
        fmt = query.get("format", [None])[-1]
        if fmt is not None:
            if fmt not in ("json", "html"):
                return False
            return fmt == "html"
        accept = self._header(scope, b"accept")
        if accept is None:
            return False
        return "text/html" in accept and accept.index("text/html") < (
            accept.index("application/json")
            if "application/json" in accept
            else len(accept)
        )

    @staticmethod
    def _header(scope, name: bytes) -> str | None:
        for key, value in scope.get("headers", ()):
            if key.lower() == name:
                return value.decode("latin-1")
        return None

    def _etag(self, path: str, query_string: str) -> str | None:
        if self._checksum is None:
            return None
        raw = f"{self._checksum}|{path}?{query_string}"
        return '"' + hashlib.sha256(raw.encode("utf-8")).hexdigest()[:32] + '"'

    def _if_none_match_hit(self, scope, etag: str) -> bool:
        header = self._header(scope, b"if-none-match")
        if header is None:
            return False
        tags = [tag.strip() for tag in header.split(",")]
        return etag in tags or "*" in tags

    def _cache_headers(self, etag: str | None) -> list[tuple[str, str]]:
        if etag is None:
            return [("cache-control", "no-cache")]
        return [
            ("etag", etag),
            ("cache-control", f"public, max-age={self._config.cache_max_age}"),
        ]

    def _error(
        self, status: int, message: str, wants_html: bool
    ) -> tuple[int, bytes, list[tuple[str, str]]]:
        payload = renderers.error_payload(status, message)
        if wants_html:
            body, content_type = renderers.error_html(payload), _HTML
        else:
            body, content_type = renderers.canonical_json(payload), _JSON
        headers = [
            ("content-type", content_type),
            ("cache-control", "no-store"),
            ("content-length", str(len(body))),
        ]
        return status, body, headers
