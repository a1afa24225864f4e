"""Tests for the ASGI service (repro.serving.app/server/testing).

Views are driven in-process through :class:`AsgiClient` (the real
scope/receive/send path — routing, time budgets, ETags) plus
socket-level tests of the stdlib HTTP bridge, one of them with eight
concurrent keep-alive clients.
"""

from __future__ import annotations

import http.client
import json
import os
import shutil
import socket
import threading
import time

import pytest

from repro.config import ServingConfig
from repro.core.interface import FacetedInterface
from repro.errors import ConfigError
from repro.observability import Observability
from repro.serving import AsgiClient, FacetApp, FacetIndex, artifact, run_in_thread
from repro.serving.renderers import PAYLOAD_SCHEMA, canonical_json, drilldown_payload


@pytest.fixture(scope="module")
def interface(pipeline_result) -> FacetedInterface:
    return FacetedInterface.from_result(pipeline_result)


@pytest.fixture(scope="module")
def index(pipeline_result, tmp_path_factory) -> FacetIndex:
    path = str(tmp_path_factory.mktemp("serving-app") / "facets.idx")
    built = FacetIndex.build(pipeline_result, path=path)
    yield built
    built.close()


@pytest.fixture(scope="module")
def client(index) -> AsgiClient:
    return AsgiClient(FacetApp(index))


class TestRoutes:
    def test_facets_ok(self, client, interface):
        response = client.get("/facets")
        assert response.status == 200
        assert response.header("content-type").startswith("application/json")
        payload = response.json()
        assert payload["schema"] == PAYLOAD_SCHEMA
        assert payload["document_count"] == interface.document_count
        assert len(payload["facets"]) == len(interface.facet_names())
        first = payload["facets"][0]
        assert set(first) == {"term", "count", "depth"}

    def test_root_aliases_facets(self, client):
        assert client.get("/").json() == client.get("/facets").json()

    def test_children(self, client, interface):
        term = interface.facet_names()[0]
        payload = client.get(f"/facets/{term}/children").json()
        assert payload["term"] == term
        assert payload["depth"] == 0
        assert payload["breadcrumb"] == [term]
        for child in payload["children"]:
            assert child["depth"] == 1

    def test_document(self, client, interface):
        doc = interface.dice([])[0]
        payload = client.get(f"/documents/{doc.doc_id}").json()
        assert payload["doc_id"] == doc.doc_id
        assert payload["body"] == doc.body

    def test_healthz(self, client, index):
        response = client.get("/healthz")
        assert response.status == 200
        assert response.header("cache-control") == "no-store"
        payload = response.json()
        assert payload["status"] == "ok"
        assert payload["checksum"] == index.checksum

    def test_head_has_headers_but_no_body(self, client):
        response = client.head("/facets")
        assert response.status == 200
        assert response.body == b""
        assert int(response.header("content-length")) > 0

    def test_html_renderer(self, client, interface):
        response = client.get("/facets?format=html")
        assert response.status == 200
        assert response.header("content-type").startswith("text/html")
        assert interface.facet_names()[0] in response.text

    def test_accept_header_selects_html(self, client):
        response = client.get("/facets", headers={"Accept": "text/html"})
        assert response.header("content-type").startswith("text/html")


class TestDrilldown:
    def test_drilldown_json_schema(self, client, interface):
        term = interface.facet_names()[0]
        payload = client.get(f"/drilldown?facet={term}&limit=5").json()
        assert payload["query"] == {"terms": [term], "q": "", "limit": 5}
        assert payload["total"] == len(interface.dice([term]))
        assert len(payload["documents"]) <= 5
        assert payload["facet_counts"]

    def test_drilldown_http_matches_interface_bytes(self, client, interface):
        """The acceptance criterion: HTTP body == in-memory answer, byte-level."""
        term = interface.facet_names()[0]
        response = client.get(f"/drilldown?facet={term}&limit=7")
        expected = canonical_json(
            drilldown_payload(interface, terms=[term], query=None, limit=7)
        )
        assert response.body == expected

    def test_drilldown_with_query_matches_interface_bytes(
        self, client, interface
    ):
        response = client.get("/drilldown?q=minister&limit=5")
        expected = canonical_json(
            drilldown_payload(interface, terms=[], query="minister", limit=5)
        )
        assert response.body == expected

    def test_multi_facet_dice(self, client, interface):
        names = interface.facet_names()[:2]
        url = "/drilldown?" + "&".join(f"facet={name}" for name in names)
        payload = client.get(url).json()
        assert payload["total"] == len(interface.dice(names))


class TestErrors:
    def test_unknown_route_404(self, client):
        response = client.get("/nope")
        assert response.status == 404
        error = response.json()["error"]
        assert error["status"] == 404
        assert "/nope" in error["message"]

    def test_unknown_facet_404(self, client):
        response = client.get("/facets/zz-missing/children")
        assert response.status == 404
        assert "zz-missing" in response.json()["error"]["message"]

    def test_unknown_document_404(self, client):
        assert client.get("/documents/zz-missing").status == 404

    def test_bad_limit_400(self, client):
        response = client.get("/drilldown?limit=banana")
        assert response.status == 400
        assert "limit" in response.json()["error"]["message"]

    def test_limit_above_cap_400(self, client):
        response = client.get("/drilldown?limit=100000")
        assert response.status == 400
        assert response.json()["error"]["status"] == 400

    def test_limit_zero_400(self, client):
        assert client.get("/drilldown?limit=0").status == 400

    def test_method_not_allowed_405(self, client):
        assert client.request("POST", "/facets").status == 405

    def test_errors_are_not_cached(self, client):
        response = client.get("/nope")
        assert response.header("cache-control") == "no-store"


class TestCaching:
    def test_etag_present_and_stable(self, client):
        first = client.get("/facets")
        second = client.get("/facets")
        assert first.header("etag") == second.header("etag")
        assert first.header("cache-control").startswith("public, max-age=")

    def test_etag_varies_by_url(self, client):
        assert client.get("/facets").header("etag") != client.get(
            "/drilldown"
        ).header("etag")

    def test_if_none_match_304(self, client):
        etag = client.get("/facets").header("etag")
        response = client.get("/facets", headers={"If-None-Match": etag})
        assert response.status == 304
        assert response.body == b""
        assert response.header("etag") == etag

    def test_if_none_match_star_304(self, client):
        assert (
            client.get("/facets", headers={"If-None-Match": "*"}).status == 304
        )

    def test_stale_etag_revalidates(self, client):
        response = client.get("/facets", headers={"If-None-Match": '"stale"'})
        assert response.status == 200

    def test_no_etag_without_checksum(self, interface):
        memory_client = AsgiClient(FacetApp(interface))
        response = memory_client.get("/facets")
        assert response.status == 200
        assert response.header("etag") is None
        assert response.header("cache-control") == "no-cache"


class _SlowBrowser:
    """Delegates to an interface but stalls, to trip the time budget."""

    def __init__(self, inner: FacetedInterface, delay: float) -> None:
        self._inner = inner
        self._delay = delay

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def top_level_counts(self):
        time.sleep(self._delay)
        return self._inner.top_level_counts()


class TestLimitsAndTimeouts:
    def test_time_budget_exceeded_503(self, interface):
        config = ServingConfig(time_budget_seconds=0.05)
        slow_client = AsgiClient(
            FacetApp(_SlowBrowser(interface, delay=0.5), config=config)
        )
        response = slow_client.get("/facets")
        assert response.status == 503
        assert "time budget" in response.json()["error"]["message"]

    def test_healthz_ignores_time_budget(self, interface):
        config = ServingConfig(time_budget_seconds=0.05)
        slow_client = AsgiClient(
            FacetApp(_SlowBrowser(interface, delay=0.5), config=config)
        )
        assert slow_client.get("/healthz").status == 200

    def test_default_limit_applied(self, client, interface):
        payload = client.get("/drilldown").json()
        assert payload["query"]["limit"] == ServingConfig().default_limit

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            ServingConfig(port=70000)
        with pytest.raises(ConfigError):
            ServingConfig(default_limit=0)
        with pytest.raises(ConfigError):
            ServingConfig(max_limit=5, default_limit=10)
        with pytest.raises(ConfigError):
            ServingConfig(time_budget_seconds=0)


class _SqlStallBrowser:
    """An index whose facet roots first run a statement that would take
    minutes, to show SQLite stopping it at the time budget."""

    def __init__(self, index: FacetIndex) -> None:
        self._index = index

    def __getattr__(self, name):
        return getattr(self._index, name)

    def top_level_counts(self):
        self._index._connection().execute(
            "WITH RECURSIVE n(i) AS (SELECT 1 UNION ALL SELECT i + 1 FROM n)"
            " SELECT count(*) FROM (SELECT i FROM n LIMIT 1000000000)"
        ).fetchone()
        return self._index.top_level_counts()


class TestSqlDeadline:
    """SQLite's progress handler stops a statement past the budget."""

    def test_long_statement_interrupted_at_the_budget(self, index, client):
        config = ServingConfig(time_budget_seconds=0.2)
        with FacetIndex.open(index.path) as fresh:
            stalled = AsgiClient(FacetApp(_SqlStallBrowser(fresh), config=config))
            start = time.perf_counter()
            response = stalled.get("/facets")
            elapsed = time.perf_counter() - start
            assert response.status == 503
            assert "time budget" in response.json()["error"]["message"]
            # A billion-row count runs for minutes; only the interrupt
            # gets the answer back this soon.
            assert elapsed < 5.0
            # The handler is gone with the scope: the connection serves on.
            assert AsgiClient(FacetApp(fresh)).get("/facets").body == (
                client.get("/facets").body
            )

    def test_interrupted_lazy_fills_leave_no_half_built_cache(
        self, index, interface, client, monkeypatch
    ):
        term = interface.facet_names()[0]
        doc = interface.dice([])[0]
        paths = [
            "/facets",
            f"/facets/{term}/children",
            f"/drilldown?facet={term}&limit=10",
            "/drilldown?q=minister&limit=10",
            f"/documents/{doc.doc_id}",
        ]
        expected = [client.get(path).body for path in paths]
        tiny = ServingConfig(time_budget_seconds=1e-9)
        # One step interrupts every statement at its first instruction;
        # the larger counts stop the fills part-way through their rows.
        for steps in (1, 40, 400):
            monkeypatch.setattr(artifact, "_DEADLINE_STEPS", steps)
            with FacetIndex.open(index.path) as fresh:
                hurried = AsgiClient(FacetApp(fresh, config=tiny))
                assert [hurried.get(path).status for path in paths] == [503] * 5
                if steps == 1:
                    # The builders never finished, so the 503s came
                    # from SQLite, not from the check after the builder.
                    assert fresh._roots is None
                    assert fresh._doc_ids is None
                    assert fresh._doc_lengths is None
                    assert fresh._node_bitmaps == {}
                served = AsgiClient(FacetApp(fresh))
                assert [served.get(path).body for path in paths] == expected, steps


class TestObservability:
    def test_requests_traced_and_counted(self, index):
        obs = Observability.enabled()
        traced_client = AsgiClient(FacetApp(index, observability=obs))
        traced_client.get("/facets")
        traced_client.get("/nope")
        spans = [span for span in obs.tracer.roots]
        assert [span.name for span in spans] == ["serving.request"] * 2
        assert spans[0].tags["path"] == "/facets"
        assert spans[0].tags["status"] == 200
        assert spans[1].tags["status"] == 404
        assert obs.metrics.counter_value("serving.requests") == 2
        assert obs.metrics.counter_value("serving.status.200") == 1
        assert obs.metrics.counter_value("serving.status.404") == 1


class TestDamagedArtifact:
    def test_truncated_under_the_server_answers_503(self, index, interface, tmp_path):
        """Data routes answer 503, in process and over a socket, and then
        /healthz reports the damage: no error escapes the app."""
        path = tmp_path / "damaged.idx"
        shutil.copyfile(index.path, path)
        with FacetIndex.open(str(path)) as damaged:
            os.truncate(path, path.stat().st_size // 3)
            obs = Observability.enabled()
            damaged_client = AsgiClient(FacetApp(damaged, observability=obs))
            term, doc = interface.facet_names()[0], interface.dice([])[0]
            for route in (f"/facets/{term}/children", "/drilldown", f"/documents/{doc.doc_id}"):
                response = damaged_client.get(route)
                assert response.status == 503, route
                assert "damaged" in response.json()["error"]["message"]
            health = damaged_client.get("/healthz")
            assert (health.status, health.json()["status"]) == (503, "damaged")
            assert obs.metrics.counter_value("serving.status.503") == 4
            with run_in_thread(FacetApp(damaged)) as (host, port):
                with socket.create_connection((host, port), timeout=10) as raw:
                    raw.sendall(b"GET /drilldown HTTP/1.1\r\nConnection: close\r\n\r\n")
                    assert raw.recv(1024).startswith(b"HTTP/1.1 503")
        assert AsgiClient(FacetApp(damaged)).get("/healthz").status == 503  # closed

    def test_healthz_catches_truncation_with_the_roots_cached(
        self, builder, snyt, tmp_path
    ):
        """/healthz compares the file size with the page count, so it
        reports a truncation no data route has met yet."""
        result = builder.build().run(snyt.documents[:40])
        path = tmp_path / "forty.idx"
        with FacetIndex.build(result, path=str(path)) as index:
            client = AsgiClient(FacetApp(index))
            assert client.get("/facets").status == 200  # caches the roots
            assert client.get("/healthz").json()["status"] == "ok"
            os.truncate(path, path.stat().st_size // 3)
            health = client.get("/healthz")
            assert (health.status, health.json()["status"]) == (503, "damaged")


class TestClosedIndex:
    def test_closed_index_answers_503_without_its_path(self, index, interface, tmp_path):
        path = tmp_path / "closed.idx"
        shutil.copyfile(index.path, path)
        closed = FacetIndex.open(str(path))
        client = AsgiClient(FacetApp(closed))
        term = interface.facet_names()[0]
        assert client.get(f"/facets/{term}/children").status == 200
        closed.close()
        for route in ("/drilldown", "/healthz"):
            response = client.get(route)
            assert response.status == 503, route
            assert str(path) not in response.body.decode("utf-8"), route
            assert "closed" in response.json()["error"]["message"], route

    def test_unknown_term_on_an_open_index_stays_404(self, client):
        response = client.get("/facets/no-such-facet-term/children")
        assert response.status == 404


class TestHttpBridge:
    def test_socket_roundtrip_keepalive_and_etag(self, index):
        app = FacetApp(index)
        with run_in_thread(app) as (host, port):
            connection = http.client.HTTPConnection(host, port, timeout=10)
            connection.request("GET", "/facets")
            first = connection.getresponse()
            body = first.read()
            assert first.status == 200
            etag = first.getheader("ETag")
            assert etag
            assert json.loads(body)["schema"] == PAYLOAD_SCHEMA
            # keep-alive: second request on the same connection, with 304
            connection.request(
                "GET", "/facets", headers={"If-None-Match": etag}
            )
            second = connection.getresponse()
            second.read()
            assert second.status == 304
            connection.close()

    def test_concurrent_keepalive_clients_match_in_process_bytes(
        self, index, interface, client
    ):
        names = interface.facet_names()
        doc = interface.dice([])[0]
        paths = ["/facets"]
        paths += [f"/facets/{name}/children" for name in names[:3]]
        paths += [f"/drilldown?facet={name}&limit=10" for name in names[:2]]
        paths += ["/drilldown?q=minister&limit=10", f"/documents/{doc.doc_id}"]
        expected = {path: client.get(path) for path in paths}
        assert all(response.status == 200 for response in expected.values())

        clients, per_client = 8, 10
        results: list[tuple[str, int, bytes]] = []
        errors: list[Exception] = []
        barrier = threading.Barrier(clients)

        def client_worker(host: str, port: int, offset: int) -> None:
            connection = http.client.HTTPConnection(host, port, timeout=30)
            try:
                barrier.wait()
                for i in range(per_client):
                    path = paths[(offset + i) % len(paths)]
                    connection.request("GET", path)
                    response = connection.getresponse()
                    results.append((path, response.status, response.read()))
            except Exception as exc:  # surfaced by the main thread
                errors.append(exc)
            finally:
                connection.close()

        with run_in_thread(FacetApp(index)) as (host, port):
            threads = [
                threading.Thread(target=client_worker, args=(host, port, offset))
                for offset in range(clients)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()

        assert errors == []
        assert len(results) == clients * per_client
        for path, status, body in results:
            assert status == 200, path
            assert body == expected[path].body, path

    def test_bad_request_line_rejected(self, index):
        app = FacetApp(index)
        with run_in_thread(app) as (host, port):
            import socket

            with socket.create_connection((host, port), timeout=10) as raw:
                raw.sendall(b"GARBAGE\r\n\r\n")
                assert raw.recv(1024).startswith(b"HTTP/1.1 400")

    @pytest.mark.parametrize("length", [b"abc", b"-5"])
    def test_malformed_content_length_rejected(self, index, length):
        with run_in_thread(FacetApp(index)) as (host, port):
            with socket.create_connection((host, port), timeout=10) as raw:
                raw.sendall(
                    b"GET /facets HTTP/1.1\r\ncontent-length: " + length + b"\r\n\r\n"
                )
                assert raw.recv(1024).startswith(b"HTTP/1.1 400")
                assert raw.recv(1024) == b""  # and the connection is closed

    def test_oversize_request_head_rejected(self, index):
        with run_in_thread(FacetApp(index)) as (host, port):
            with socket.create_connection((host, port), timeout=10) as raw:
                raw.sendall(
                    b"GET /facets HTTP/1.1\r\nx-filler: "
                    + b"a" * 70_000
                    + b"\r\n\r\n"
                )
                assert raw.recv(1024).startswith(b"HTTP/1.1 431")

    def test_oversize_request_body_refused_unread(self, index):
        """A declared body above the head limit gets 413 and a close
        before any of it is sent."""
        with run_in_thread(FacetApp(index)) as (host, port):
            with socket.create_connection((host, port), timeout=10) as raw:
                raw.sendall(
                    b"GET /facets HTTP/1.1\r\ncontent-length: 1000000000\r\n\r\n"
                )
                assert raw.recv(1024).startswith(b"HTTP/1.1 413")
                assert raw.recv(1024) == b""  # and the connection is closed

    def test_small_request_body_is_read_and_discarded(self, index):
        with run_in_thread(FacetApp(index)) as (host, port):
            with socket.create_connection((host, port), timeout=10) as raw:
                raw.sendall(
                    b"GET /healthz HTTP/1.1\r\ncontent-length: 5\r\n\r\nhello"
                    b"GET /healthz HTTP/1.1\r\nconnection: close\r\n\r\n"
                )
                received = b""
                while chunk := raw.recv(65536):
                    received += chunk
                # Both requests are answered: the body did not leak into
                # the second request's head.
                assert received.count(b"HTTP/1.1 200") == 2

    def test_graceful_shutdown_starts_no_query_thread_and_closes_socket(
        self, index
    ):
        seen: list[list[str]] = []

        class Watched:
            """The index, noting the live threads while it answers."""

            def __getattr__(self, name):
                return getattr(index, name)

            def facet_names(self):
                seen.append([thread.name for thread in threading.enumerate()])
                return index.facet_names()

        with run_in_thread(FacetApp(Watched())) as (host, port):
            connection = http.client.HTTPConnection(host, port, timeout=10)
            connection.request("GET", "/healthz")
            assert connection.getresponse().status == 200
            connection.close()
        after = [thread.name for thread in threading.enumerate()]
        # Queries run on the loop thread: none was started for them,
        # during the request or left behind after it...
        assert len(seen) == 1
        for names in (*seen, after):
            assert not [n for n in names if n.startswith("repro-serving-query")]
        # ...and the listening socket is really closed: a fresh
        # connection attempt must be refused, not queued.
        with pytest.raises(OSError):
            socket.create_connection((host, port), timeout=2).close()
