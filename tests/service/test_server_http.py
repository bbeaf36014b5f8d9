"""Round-trip tests for the stdlib HTTP JSON API."""

import contextlib
import http.client
import json
import re
import socket
import statistics
import threading
import time
import urllib.error
import urllib.request
from urllib.parse import quote

import pytest

from repro.retrieval import METHODS
from repro.service import (QueryService, ServiceConfig, TrexHTTPHandler,
                           make_server)

from tests.service.conftest import DOCS, build_engine

QUERY = "//sec[about(., xml retrieval)]"


@contextlib.contextmanager
def serving(docs=DOCS, **config):
    """A live server over *docs* on an OS-assigned port; yields it."""
    settings = dict(workers=4, queue_depth=32, cache_capacity=64,
                    autopilot_interval=None, autopilot_min_observations=1)
    service = QueryService(build_engine(*docs),
                           ServiceConfig(**{**settings, **config}))
    server = make_server(service, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
        service.close()


@pytest.fixture()
def server_url():
    with serving() as server:
        host, port = server.server_address[:2]
        yield f"http://{host}:{port}"


def get_json(url):
    with urllib.request.urlopen(url, timeout=10) as response:
        return response.status, json.loads(response.read())


def post_json(url, payload, content_type="application/json"):
    data = payload if isinstance(payload, bytes) else \
        json.dumps(payload).encode("utf-8")
    request = urllib.request.Request(
        url, data=data, headers={"Content-Type": content_type})
    with urllib.request.urlopen(request, timeout=10) as response:
        return response.status, json.loads(response.read())


def error_json(exc: urllib.error.HTTPError):
    return json.loads(exc.read())


class TestEndpoints:
    def test_healthz(self, server_url):
        status, body = get_json(f"{server_url}/healthz")
        assert status == 200
        assert body == {"status": "ok", "epoch": 0}

    def test_get_search(self, server_url):
        status, body = get_json(
            f"{server_url}/search?q={quote(QUERY)}&k=3&method=era")
        assert status == 200
        assert body["method"] == "era"
        assert body["total"] >= 1
        assert body["hits"][0]["rank"] == 1

    def test_post_search(self, server_url):
        status, body = post_json(f"{server_url}/search",
                                 {"q": QUERY, "k": 2, "method": "merge"})
        assert status == 200
        assert body["method"] == "merge"
        assert body["total"] <= 2

    def test_search_k_all(self, server_url):
        status, body = get_json(f"{server_url}/search?q={quote(QUERY)}&k=all")
        assert status == 200
        assert body["k"] is None

    def test_search_cache_param(self, server_url):
        get_json(f"{server_url}/search?q={quote(QUERY)}&k=3")
        _, cached = get_json(f"{server_url}/search?q={quote(QUERY)}&k=3")
        assert cached["cached"] is True
        _, fresh = get_json(
            f"{server_url}/search?q={quote(QUERY)}&k=3&cache=0")
        assert fresh["cached"] is False

    def test_explain(self, server_url):
        status, body = get_json(f"{server_url}/explain?q={quote(QUERY)}&k=2")
        assert status == 200
        assert body["chosen_method"] in set(METHODS) - {"auto"}

    def test_ingest_raw_xml_bumps_epoch(self, server_url):
        status, body = post_json(
            f"{server_url}/ingest",
            b"<a><sec>fresh xml retrieval document</sec></a>",
            content_type="application/xml")
        assert status == 200
        assert body["epoch"] == 1
        _, health = get_json(f"{server_url}/healthz")
        assert health["epoch"] == 1
        _, result = get_json(f"{server_url}/search?q={quote(QUERY)}&k=all")
        assert any(hit["docid"] == body["docid"] for hit in result["hits"])

    def test_ingest_json_with_docid(self, server_url):
        status, body = post_json(
            f"{server_url}/ingest",
            {"xml": "<a><sec>another xml doc</sec></a>", "docid": 77})
        assert status == 200
        assert body["docid"] == 77

    def test_stats_counts_requests(self, server_url):
        get_json(f"{server_url}/search?q={quote(QUERY)}&k=2")
        status, stats = get_json(f"{server_url}/stats")
        assert status == 200
        assert stats["telemetry"]["counters"]["search.requests"] == 1
        assert stats["executor"]["workers"] == 4
        assert "p50" in stats["telemetry"]["histograms"]["search.latency_seconds"]

    def test_autopilot_cycle_endpoint(self, server_url):
        get_json(f"{server_url}/search?q={quote(QUERY)}&k=2")
        status, body = post_json(f"{server_url}/autopilot/cycle", {})
        assert status == 200
        assert body["ran"] is True
        assert body["cycles"] == 1
        assert body["last_report"]["materialized"] >= 1


class TestErrorMapping:
    def test_missing_query_is_400(self, server_url):
        with pytest.raises(urllib.error.HTTPError) as info:
            get_json(f"{server_url}/search")
        assert info.value.code == 400
        assert "q" in error_json(info.value)["detail"]

    def test_unknown_method_is_400(self, server_url):
        with pytest.raises(urllib.error.HTTPError) as info:
            get_json(f"{server_url}/search?q={quote(QUERY)}&method=bogus")
        assert info.value.code == 400

    @pytest.mark.parametrize("params", ("method=race", "method=ita",
                                        "method=ta&k=0",
                                        "method=merge&mode=bogus"))
    def test_unanswerable_request_is_400_and_never_queued(self, params):
        """Retired methods included: ``_search_args`` runs the engines'
        own ``check_request``, so the reply costs no worker, no lock
        and no warm-up."""
        with serving() as server:
            host, port = server.server_address[:2]
            with pytest.raises(urllib.error.HTTPError) as info:
                get_json(f"http://{host}:{port}/search"
                         f"?q={quote(QUERY)}&{params}")
            assert info.value.code == 400
            assert error_json(info.value)["error"] == "RetrievalError"
            stats = server.service.stats()
            assert stats["executor"]["submitted"] == 0
            assert stats["engine"]["segments"] == 0

    def test_bad_k_is_400(self, server_url):
        with pytest.raises(urllib.error.HTTPError) as info:
            get_json(f"{server_url}/search?q={quote(QUERY)}&k=banana")
        assert info.value.code == 400

    def test_malformed_json_body_is_400(self, server_url):
        with pytest.raises(urllib.error.HTTPError) as info:
            post_json(f"{server_url}/search", b"{not json")
        assert info.value.code == 400

    def test_empty_ingest_is_400(self, server_url):
        with pytest.raises(urllib.error.HTTPError) as info:
            post_json(f"{server_url}/ingest", b"   ",
                      content_type="application/xml")
        assert info.value.code == 400

    def test_unknown_path_is_404(self, server_url):
        with pytest.raises(urllib.error.HTTPError) as info:
            get_json(f"{server_url}/nope")
        assert info.value.code == 404

    def test_bad_nexi_is_400(self, server_url):
        with pytest.raises(urllib.error.HTTPError) as info:
            get_json(f"{server_url}/search?q={quote('//sec[about(')}")
        assert info.value.code == 400

    def test_missing_index_is_409(self):
        with serving(workers=2, materialize_on_demand=False) as server:
            host, port = server.server_address[:2]
            with pytest.raises(urllib.error.HTTPError) as info:
                get_json(f"http://{host}:{port}/search"
                         f"?q={quote(QUERY)}&k=2&method=ta")
            assert info.value.code == 409
            assert error_json(info.value)["error"] == "MissingIndexError"


# ----------------------------------------------------------------------
# The reply path on the wire: one segment per reply, TCP_NODELAY, typed
# and bounded request framing, and no reply that is "connection closed".
# ----------------------------------------------------------------------
#: 800 matching <sec> elements, so a ``k=all`` reply is well over 64 KiB.
BIG_DOCS = tuple(
    "<a>" + "".join(f"<sec>xml retrieval part {doc} {sec}</sec>"
                    for sec in range(10)) + "</a>"
    for doc in range(80))
SEARCH = f"/search?q={quote(QUERY)}"


class _CountingSocket(socket.socket):
    """An accepted connection that records the size of every send."""

    sends: list[int]

    def sendall(self, data, *flags):
        self.sends.append(len(data))
        return super().sendall(data, *flags)

    def send(self, data, *flags):
        self.sends.append(len(data))
        return super().send(data, *flags)


@pytest.fixture()
def wire():
    """A server over BIG_DOCS whose accepted sockets count their sends:
    ``wire.sends`` holds one size per socket write, ``wire.accepted`` the
    server-side sockets, ``wire.connect()`` a raw client socket."""
    with serving(BIG_DOCS) as server:
        accept = server.get_request
        server.sends, server.accepted = [], []

        def get_request():
            connection, address = accept()
            counting = _CountingSocket(fileno=connection.detach())
            counting.sends = server.sends
            server.accepted.append(counting)
            return counting, address

        server.get_request = get_request
        server.connect = lambda: socket.create_connection(
            server.server_address[:2], timeout=10)
        yield server


def exchange(sock, request: bytes) -> tuple[int, bytes, bytes]:
    """Send one raw request; return ``(status, head, body)`` of its reply."""
    sock.sendall(request)
    data = b""
    while b"\r\n\r\n" not in data:
        chunk = sock.recv(65536)
        assert chunk, f"connection closed before a reply (got {data!r})"
        data += chunk
    head, _, body = data.partition(b"\r\n\r\n")
    length = int(re.search(rb"Content-Length: (\d+)", head).group(1))
    while len(body) < length:
        body += sock.recv(65536)
    assert len(body) == length
    return int(head.split()[1]), head, body


def boom(*args, **kwargs):
    raise RuntimeError("boom")


def get(path: str) -> bytes:
    return f"GET {path} HTTP/1.1\r\nHost: t\r\n\r\n".encode()


def post(path: str, body: bytes, *, length: str | None = None,
         content_type: str = "application/json") -> bytes:
    length = str(len(body)) if length is None else length
    return (f"POST {path} HTTP/1.1\r\nHost: t\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {length}\r\n\r\n").encode() + body


class TestReplyPath:
    def test_accepted_socket_has_tcp_nodelay(self, wire):
        with wire.connect() as sock:
            assert exchange(sock, get("/healthz"))[0] == 200
            (accepted,) = wire.accepted
            assert accepted.getsockopt(socket.IPPROTO_TCP,
                                       socket.TCP_NODELAY) != 0

    def test_every_reply_is_one_socket_write(self, wire, monkeypatch):
        with wire.connect() as sock:
            def one_write(request, expected, at_least=0):
                del wire.sends[:]
                status, head, body = exchange(sock, request)
                assert status == expected
                assert len(body) >= at_least
                assert wire.sends == [len(head) + 4 + len(body)], request

            one_write(get(SEARCH + "&k=3"), 200)            # small miss
            one_write(get(SEARCH + "&k=3"), 200)            # small hit
            one_write(get(SEARCH + "&k=all"), 200, at_least=64 * 1024 + 1)
            one_write(get(SEARCH + "&k=banana"), 400)
            one_write(post("/search", b"", length="abc"), 400)
            one_write(get("/nope"), 404)
            monkeypatch.setattr(wire.service, "search", boom)
            one_write(get(SEARCH + "&k=3"), 500)

    def test_keep_alive_replies_do_not_wait_for_a_delayed_ack(self, wire):
        # The ledger's client shape: one http.client connection, Nagle
        # and delayed ACK at their defaults.  Two segments per reply
        # stall >= 40 ms each; this corpus answers a hit in < 2 ms.
        client = http.client.HTTPConnection(*wire.server_address[:2],
                                            timeout=10)
        seconds = []
        for _ in range(20):
            started = time.perf_counter()
            client.request("GET", SEARCH + "&k=3")
            response = client.getresponse()
            response.read()
            seconds.append(time.perf_counter() - started)
            assert response.status == 200
        client.close()
        assert len(wire.accepted) == 1
        assert statistics.median(seconds) < 0.020

    def test_reply_bytes_equal_the_stdlib_header_path(self, wire):
        """Status line, header names and order, and body are what
        ``send_response`` / ``send_header`` / ``end_headers`` + a body
        write (the pre-PR-20 reply path) put on the wire."""
        class StdlibReply(TrexHTTPHandler):
            def _send_json(self, status, payload):
                body = json.dumps(payload).encode("utf-8")
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

        def replies():
            with wire.connect() as sock:
                exchange(sock, get(SEARCH + "&k=3"))  # fill the cache
                return [exchange(sock, request) for request in (
                    get(SEARCH + "&k=3"), get("/healthz"), get("/nope"),
                    get(SEARCH + "&k=banana"))]

        ours = replies()
        wire.RequestHandlerClass = StdlibReply
        theirs = replies()

        def undated(reply):
            status, head, body = reply
            return status, re.sub(rb"\r\nDate: [^\r]+", b"", head), body

        assert [*map(undated, ours)] == [*map(undated, theirs)]
        names = [line.split(b":")[0] for line in ours[0][1].split(b"\r\n")]
        assert names == [b"HTTP/1.1 200 OK", b"Server", b"Date",
                         b"Content-Type", b"Content-Length"]


class TestRequestFramingAndShape:
    """Each bad request gets a JSON error reply, and the next request on
    the **same** connection succeeds."""

    @pytest.mark.parametrize("request_bytes", [
        pytest.param(post("/search", b"", length="abc"), id="length-abc"),
        # used to park a handler thread in rfile.read(-1)
        pytest.param(post("/search", b"", length="-1"), id="length-minus-1"),
        pytest.param(post("/search", b"[]"), id="search-not-an-object"),
        pytest.param(post("/search", b'{"q": 7}'), id="search-q-int"),
        pytest.param(post("/search", b'{"q": "//sec[about(., xml)]", '
                                     b'"k": [1]}'), id="search-k-list"),
        pytest.param(post("/ingest", b'{"xml": 123}'), id="ingest-xml-int"),
        pytest.param(post("/ingest", b'{"xml": "<a><sec>x</sec></a>", '
                                     b'"docid": "x"}'),
                     id="ingest-docid-str"),
        pytest.param(post("/compact", b'"force"'),
                     id="compact-not-an-object"),
    ])
    def test_bad_request_is_400_and_connection_survives(self, wire,
                                                        request_bytes):
        with wire.connect() as sock:
            status, _, body = exchange(sock, request_bytes)
            assert status == 400
            assert json.loads(body)["error"] in ("BadRequest", "TrexError")
            status, _, body = exchange(sock, get("/healthz"))
            assert (status, json.loads(body)) == (
                200, {"status": "ok", "epoch": 0})

    def test_unexpected_exception_is_a_counted_logged_500(
            self, wire, monkeypatch, capsys):
        monkeypatch.setattr(wire.service, "ingest", boom)
        with wire.connect() as sock:
            status, _, body = exchange(sock, post(
                "/ingest", b"<a><sec>x</sec></a>",
                content_type="application/xml"))
            assert status == 500
            assert json.loads(body) == {"error": "InternalError",
                                        "detail": "RuntimeError"}
            status, _, body = exchange(sock, get("/stats"))
            assert status == 200
            counters = json.loads(body)["telemetry"]["counters"]
            assert counters["http.internal_errors"] == 1
        assert 'RuntimeError: boom' in capsys.readouterr().err
