"""Minimal asyncio HTTP/1.1 server hosting the ASGI application.

The standard library ships no ASGI server, so this module provides the
thin bridge the ``repro serve`` command runs: an ``asyncio.start_server``
loop that parses one GET/HEAD request at a time per connection, builds
an ASGI ``http`` scope, and streams the application's response back.
It supports keep-alive, concurrent connections, and port ``0`` (bind to
a free port) — and nothing more; production deployments should mount
:class:`~repro.serving.app.FacetApp` on a real ASGI server instead.

:func:`run_in_thread` runs a server on a daemon event-loop thread and
yields the bound address — the harness used by the in-repo load bench
and the socket-level tests.
"""

from __future__ import annotations

import asyncio
import contextlib
import threading
from collections.abc import Iterator
from urllib.parse import unquote_to_bytes

from ..errors import ReproError
from ..observability.logging import get_logger

log = get_logger(__name__)

_MAX_HEADER_BYTES = 64 * 1024
_HEADER_TIMEOUT = 10.0


class ServerError(ReproError):
    """HTTP bridge failures (bad bind, malformed request framing)."""


class FacetServer:
    """Serve an ASGI app over HTTP/1.1 on an asyncio event loop."""

    def __init__(self, app, host: str = "127.0.0.1", port: int = 0) -> None:
        self._app = app
        self._requested_host = host
        self._requested_port = port
        self._server: asyncio.base_events.Server | None = None

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)``; only valid after :meth:`start`."""
        if self._server is None:
            raise ServerError("server is not started")
        sock = self._server.sockets[0]
        host, port = sock.getsockname()[:2]
        return host, port

    async def start(self) -> None:
        """Bind the listening socket (port 0 picks a free port)."""
        self._server = await asyncio.start_server(
            self._handle_connection,
            self._requested_host,
            self._requested_port,
            limit=_MAX_HEADER_BYTES,
        )
        host, port = self.address
        log.info("serving.listening", host=host, port=port)

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        server = self._server
        assert server is not None  # bound by start()
        async with server:
            await server.serve_forever()

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    # -- connection handling -------------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                keep_alive = await self._handle_one(reader, writer)
                if not keep_alive:
                    break
        except (asyncio.IncompleteReadError, asyncio.TimeoutError, ConnectionError):
            pass
        except asyncio.CancelledError:
            # Server shutdown cancels in-flight connections; swallowing the
            # cancellation here lets the task finish cleanly (the stdlib
            # streams callback re-raises from task.exception() otherwise).
            pass
        finally:
            writer.close()
            with contextlib.suppress(ConnectionError):
                await writer.wait_closed()

    async def _handle_one(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> bool:
        """Serve one request; returns True to keep the connection open."""
        try:
            # The stream limit is _MAX_HEADER_BYTES, so a longer head
            # overruns before its blank line arrives.
            header_blob = await asyncio.wait_for(
                reader.readuntil(b"\r\n\r\n"), timeout=_HEADER_TIMEOUT
            )
        except asyncio.LimitOverrunError:
            writer.write(b"HTTP/1.1 431 Request Header Fields Too Large\r\n\r\n")
            await writer.drain()
            return False
        try:
            scope, headers, http_version = self._parse_request(header_blob)
            body_length = _content_length(headers)
        except ValueError:
            writer.write(b"HTTP/1.1 400 Bad Request\r\n\r\n")
            await writer.drain()
            return False

        if body_length > _MAX_HEADER_BYTES:
            # No route takes a body: refuse one this large unread.
            writer.write(b"HTTP/1.1 413 Content Too Large\r\n\r\n")
            await writer.drain()
            return False
        if body_length:
            await reader.readexactly(body_length)

        connection = headers.get(b"connection", b"").decode("latin-1").lower()
        keep_alive = (
            connection != "close"
            if http_version == "1.1"
            else connection == "keep-alive"
        )

        # The head waits for the body so a response leaves in one write.
        pending: list[bytes] = []
        started = False

        async def receive():
            return {"type": "http.request", "body": b"", "more_body": False}

        async def send(message):
            nonlocal started
            if message["type"] == "http.response.start":
                started = True
                lines = [f"HTTP/1.1 {message['status']} {_reason(message['status'])}"]
                has_length = False
                for name, value in message.get("headers", []):
                    if name.lower() == b"content-length":
                        has_length = True
                    lines.append(
                        f"{name.decode('latin-1')}: {value.decode('latin-1')}"
                    )
                if not has_length:
                    lines.append("content-length: 0")
                lines.append(
                    "connection: " + ("keep-alive" if keep_alive else "close")
                )
                pending.append(("\r\n".join(lines) + "\r\n\r\n").encode("latin-1"))
            elif message["type"] == "http.response.body":
                pending.append(message.get("body", b""))
                writer.write(b"".join(pending))
                pending.clear()

        await self._app(scope, receive, send)
        if not started:
            pending.append(b"HTTP/1.1 500 Internal Server Error\r\n\r\n")
        writer.write(b"".join(pending))  # empty once the body has gone
        await writer.drain()
        return keep_alive

    def _parse_request(self, blob: bytes):
        head, *header_lines = blob.rstrip(b"\r\n").split(b"\r\n")
        parts = head.split(b" ")
        if len(parts) != 3:
            raise ValueError(f"malformed request line: {head!r}")
        method, target, version = parts
        if not version.startswith(b"HTTP/"):
            raise ValueError(f"malformed HTTP version: {version!r}")
        http_version = version[5:].decode("latin-1")
        path, _, query_string = target.partition(b"?")
        headers: dict[bytes, bytes] = {}
        header_pairs = []
        for line in header_lines:
            name, _, value = line.partition(b":")
            name = name.strip().lower()
            value = value.strip()
            headers[name] = value
            header_pairs.append((name, value))
        scope = {
            "type": "http",
            "asgi": {"version": "3.0", "spec_version": "2.3"},
            "http_version": http_version,
            "method": method.decode("latin-1").upper(),
            "scheme": "http",
            "path": unquote_to_bytes(path).decode("utf-8", "replace"),
            "raw_path": path,
            "query_string": query_string,
            "headers": header_pairs,
        }
        return scope, headers, http_version


def _content_length(headers: dict[bytes, bytes]) -> int:
    """The declared body length; ValueError unless it is plain digits."""
    raw = headers.get(b"content-length", b"0")
    if not raw.isdigit():
        raise ValueError(f"malformed content-length: {raw!r}")
    return int(raw)


_REASONS = {
    200: "OK",
    304: "Not Modified",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


def _reason(status: int) -> str:
    return _REASONS.get(status, "Unknown")


def serve_blocking(app, host: str, port: int) -> None:
    """Run a server until interrupted (the ``repro serve`` loop).

    Announces the bound address on stdout once the socket is listening,
    which is what lets callers (and the CLI tests) use ``--port 0``.
    """
    asyncio.run(_serve_forever(app, host, port))


async def _serve_forever(app, host: str, port: int) -> None:
    server = FacetServer(app, host, port)
    await server.start()
    host, port = server.address
    print(f"serving on http://{host}:{port}", flush=True)
    try:
        await server.serve_forever()
    except asyncio.CancelledError:  # pragma: no cover - shutdown path
        pass
    finally:
        # Ctrl-C cancels the task; the listening socket still closes
        # deterministically before the loop is torn down.
        await server.stop()


@contextlib.contextmanager
def run_in_thread(app, host: str = "127.0.0.1", port: int = 0) -> Iterator[tuple[str, int]]:
    """Run a server on a daemon thread; yields the bound ``(host, port)``."""
    loop = asyncio.new_event_loop()
    server = FacetServer(app, host, port)
    started = threading.Event()
    failure: list[BaseException] = []

    def runner() -> None:
        asyncio.set_event_loop(loop)
        try:
            loop.run_until_complete(server.start())
        except BaseException as exc:  # pragma: no cover - bind failures
            failure.append(exc)
            started.set()
            return
        started.set()
        try:
            loop.run_forever()
        finally:
            loop.close()

    async def shutdown() -> None:
        await server.stop()
        current = asyncio.current_task()
        pending = [task for task in asyncio.all_tasks() if task is not current]
        for task in pending:
            task.cancel()
        await asyncio.gather(*pending, return_exceptions=True)

    thread = threading.Thread(target=runner, name="repro-serving", daemon=True)
    thread.start()
    started.wait(timeout=30)
    if failure:
        raise ServerError(f"server failed to start: {failure[0]}") from failure[0]
    if server._server is None:
        raise ServerError("server failed to start within 30s")
    address = server.address
    try:
        yield address
    finally:
        with contextlib.suppress(Exception):
            asyncio.run_coroutine_threadsafe(shutdown(), loop).result(timeout=30)
        loop.call_soon_threadsafe(loop.stop)
        thread.join(timeout=30)
