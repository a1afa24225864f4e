"""In-process ASGI test client (no sockets, no threads).

Drives a :class:`~repro.serving.app.FacetApp` (or any ASGI 3 app)
directly through the scope/receive/send protocol, so view tests run the
real request path — routing, time-budget enforcement, ETag handling —
without binding a port.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from urllib.parse import urlsplit


@dataclass
class Response:
    """One captured ASGI response."""

    status: int
    headers: dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    @property
    def text(self) -> str:
        return self.body.decode("utf-8")

    def json(self) -> dict:
        return json.loads(self.body)

    def header(self, name: str) -> str | None:
        return self.headers.get(name.lower())


class AsgiClient:
    """Synchronous facade over an ASGI app for tests."""

    def __init__(self, app) -> None:
        self._app = app

    def get(self, url: str, headers: dict[str, str] | None = None) -> Response:
        return self.request("GET", url, headers=headers)

    def head(self, url: str, headers: dict[str, str] | None = None) -> Response:
        return self.request("HEAD", url, headers=headers)

    def request(
        self, method: str, url: str, headers: dict[str, str] | None = None
    ) -> Response:
        parts = urlsplit(url)
        scope = {
            "type": "http",
            "asgi": {"version": "3.0", "spec_version": "2.3"},
            "http_version": "1.1",
            "method": method.upper(),
            "scheme": "http",
            "path": parts.path or "/",
            "raw_path": (parts.path or "/").encode("utf-8"),
            "query_string": parts.query.encode("latin-1"),
            "headers": [
                (name.lower().encode("latin-1"), value.encode("latin-1"))
                for name, value in (headers or {}).items()
            ],
        }
        return asyncio.run(self._call(scope))

    async def _call(self, scope) -> Response:
        response = Response(status=500)
        done = asyncio.Event()

        async def receive():
            await done.wait()  # the app never reads a body in these tests
            return {"type": "http.disconnect"}

        async def send(message):
            if message["type"] == "http.response.start":
                response.status = message["status"]
                response.headers = {
                    name.decode("latin-1").lower(): value.decode("latin-1")
                    for name, value in message.get("headers", [])
                }
            elif message["type"] == "http.response.body":
                response.body += message.get("body", b"")
                if not message.get("more_body", False):
                    done.set()

        await self._app(scope, receive, send)
        return response
