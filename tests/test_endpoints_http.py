"""Wire-protocol tests against a local HTTP server: request shapes, auth
header pass-through, retry-then-recover, retry exhaustion, malformed
replies, and the transport's connections, timeouts and proxies."""

import json
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import urlsplit

import numpy as np
import pytest

from conftest import TOY_DOCS, write_matrix_config
from rewritebench.embed import (EmbeddingCache, EncoderClient, EncoderEndpoint,
                                embed_texts, fetch_missing)
from rewritebench.config import load_config
from rewritebench.errors import ConfigError, EndpointError
from rewritebench.matrix import run_matrix
from rewritebench.rewrite import RewriterClient, RewriterEndpoint


class _Handler(BaseHTTPRequestHandler):
    def log_message(self, *args):
        pass

    def do_POST(self):
        server = self.server
        length = int(self.headers.get("Content-Length", 0))
        body = json.loads(self.rfile.read(length)) if length else {}
        server.requests.append({
            "path": self.path,
            "body": body,
            "auth": self.headers.get("Authorization"),
        })
        if server.delay_s:
            time.sleep(server.delay_s)
        if server.fail_remaining > 0:
            server.fail_remaining -= 1
            self._send(500, b"")
            return
        if server.raw_body is not None:
            self._send(200, server.raw_body)
            return
        route = urlsplit(self.path).path  # a proxy is sent the absolute URL
        if route == "/v1/embeddings":
            payload = {"data": [server.embed_row(t) for t in body["input"]]}
        elif route == "/v1/chat/completions":
            user = body["messages"][-1]["content"]
            payload = {"choices": [{
                "message": {"content": server.content(user)},
                "finish_reason": server.finish_reason,
            }]}
        else:
            self._send(404, b"")
            return
        self._send(200, json.dumps(payload).encode())

    def do_CONNECT(self):
        self.server.requests.append({"path": self.path, "method": "CONNECT"})
        self._send(502, b"")

    def _send(self, status: int, data: bytes) -> None:
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)


class _KeepAliveHandler(_Handler):
    protocol_version = "HTTP/1.1"


class _DroppingHandler(_KeepAliveHandler):
    """Closes every connection after its response, without saying so."""

    def do_POST(self):
        super().do_POST()
        self.close_connection = True


class _Server(ThreadingHTTPServer):
    """Counts the TCP connections it accepts and the ones it has closed."""

    def __init__(self, handler):
        super().__init__(("127.0.0.1", 0), handler)
        self.requests = []
        self.fail_remaining = 0
        self.finish_reason = "stop"
        self.delay_s = 0.0
        self.raw_body = None
        self.embed_row = lambda text: {"embedding": [float(len(text)), 1.0, 0.0, 0.0]}
        self.content = lambda user: f"REWRITTEN::{user}"
        self.opened = self.closed = 0
        self._closed_lock = threading.Lock()  # handler threads close connections

    def process_request(self, request, client_address):
        self.opened += 1  # the serving thread alone accepts
        super().process_request(request, client_address)

    def handle_error(self, request, client_address):
        if not isinstance(sys.exc_info()[1], ConnectionError):  # a client that gave up
            super().handle_error(request, client_address)

    def shutdown_request(self, request):
        super().shutdown_request(request)
        with self._closed_lock:
            self.closed += 1


def _serve(handler):
    httpd = _Server(handler)
    thread = threading.Thread(target=httpd.serve_forever, kwargs={"poll_interval": 0.05},
                              daemon=True)
    thread.start()
    try:
        yield httpd
    finally:
        httpd.shutdown()
        thread.join(timeout=5)
        httpd.server_close()


@pytest.fixture
def server():
    yield from _serve(_Handler)


@pytest.fixture
def keepalive_server():
    yield from _serve(_KeepAliveHandler)


@pytest.fixture
def dropping_server():
    yield from _serve(_DroppingHandler)


@pytest.fixture
def proxy_server():
    yield from _serve(_Handler)


def _embed_client_at(url, retries=2, auth_env=None, timeout_s=60.0) -> EncoderClient:
    return EncoderClient(EncoderEndpoint(encoder_id="remote-enc", url=url,
                                         retries=retries, backoff_s=0.0,
                                         auth_env=auth_env, timeout_s=timeout_s))


def _embed_client(server, retries=2, auth_env=None) -> EncoderClient:
    return _embed_client_at(f"http://127.0.0.1:{server.server_address[1]}/v1/embeddings",
                            retries=retries, auth_env=auth_env)


def _rewrite_client(server, retries=2, auth_env=None) -> RewriterClient:
    url = f"http://127.0.0.1:{server.server_address[1]}/v1/chat/completions"
    return RewriterClient(RewriterEndpoint(rewriter_id="remote-rw", url=url,
                                           retries=retries, backoff_s=0.0,
                                           auth_env=auth_env))


class TestEmbeddingsWire:
    def test_request_shape_and_response_parsing(self, server):
        client = _embed_client(server)
        vecs = client.embed_batch(["abc", "defgh"])
        assert np.asarray(vecs).shape == (2, 4)
        assert vecs[0][0] == 3.0 and vecs[1][0] == 5.0
        (req,) = server.requests
        assert req["body"] == {"model": "remote-enc", "input": ["abc", "defgh"]}
        assert req["auth"] is None

    def test_auth_token_from_environment(self, server, monkeypatch):
        monkeypatch.setenv("TEST_EMBED_TOKEN", "sekrit")
        client = _embed_client(server, auth_env="TEST_EMBED_TOKEN")
        client.embed_batch(["x"])
        assert server.requests[0]["auth"] == "Bearer sekrit"

    def test_retry_then_recover(self, server):
        server.fail_remaining = 1
        client = _embed_client(server, retries=2)
        vecs = client.embed_batch(["abcd"])
        assert vecs[0][0] == 4.0
        assert len(server.requests) == 2  # one failure, one success

    def test_retries_exhausted(self, server):
        server.fail_remaining = 10
        client = _embed_client(server, retries=1)
        with pytest.raises(EndpointError, match="after 2 attempts"):
            client.embed_batch(["x"])
        assert len(server.requests) == 2

    def test_wrong_cardinality_rejected(self, server):
        # the server echoes one embedding per input; fake a mismatch by
        # sending two texts to a single-input endpoint contract
        client = _embed_client(server)
        good = client.embed_batch(["a", "b"])
        assert len(good) == 2

    def test_retried_batch_never_duplicates_rows(self, closing, server, tmp_path):
        server.fail_remaining = 1
        client = _embed_client(server, retries=2)
        cache = closing(EmbeddingCache(tmp_path))
        fetch_missing(["first", "second"], client, cache)
        out = embed_texts(["a", "b"], ["first", "second"], client, cache)
        assert out.n_rows == 2
        assert out.ids == ("a", "b")
        assert len(server.requests) == 2  # failed attempt + successful retry
        # the cache holds exactly one entry per text
        manifest = (tmp_path / "manifest.jsonl").read_text().splitlines()
        assert len(manifest) == 2


class TestChatWire:
    def test_request_shape_and_content(self, server):
        client = _rewrite_client(server)
        text, truncated = client.complete("sys prompt", "user prompt", 256)
        assert text == "REWRITTEN::user prompt"
        assert truncated is False
        (req,) = server.requests
        assert req["body"]["model"] == "remote-rw"
        assert req["body"]["temperature"] == 0.0
        assert req["body"]["max_tokens"] == 256
        assert req["body"]["messages"] == [
            {"role": "system", "content": "sys prompt"},
            {"role": "user", "content": "user prompt"}]

    def test_empty_system_omitted(self, server):
        client = _rewrite_client(server)
        client.complete("", "just user", 64)
        assert server.requests[0]["body"]["messages"] == [
            {"role": "user", "content": "just user"}]

    def test_truncation_flag_from_finish_reason(self, server):
        server.finish_reason = "length"
        client = _rewrite_client(server)
        _, truncated = client.complete("", "u", 8)
        assert truncated is True

    def test_auth_header(self, server, monkeypatch):
        monkeypatch.setenv("TEST_RW_TOKEN", "tok123")
        client = _rewrite_client(server, auth_env="TEST_RW_TOKEN")
        client.complete("", "u", 8)
        assert server.requests[0]["auth"] == "Bearer tok123"

    def test_retry_then_recover(self, server):
        server.fail_remaining = 1
        client = _rewrite_client(server, retries=3)
        text, _ = client.complete("", "payload", 8)
        assert text == "REWRITTEN::payload"
        assert len(server.requests) == 2

    def test_exhaustion_raises(self, server):
        server.fail_remaining = 99
        client = _rewrite_client(server, retries=0)
        with pytest.raises(EndpointError, match="after 1 attempts"):
            client.complete("", "u", 8)


_MALFORMED_ROWS = {
    "no_embedding": lambda text: {"vector": [1.0, 0.0, 0.0, 0.0]},
    "not_a_list": lambda text: {"embedding": "abc"},
    "nan": lambda text: {"embedding": [float("nan"), 1.0, 0.0, 0.0]},
}


def _url(server, route: str) -> str:
    return f"http://127.0.0.1:{server.server_address[1]}{route}"


def _cache_files(cfg) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted((cfg.cache_dir / "embeddings").iterdir())}


def _cell_results(cfg) -> dict[str, bytes]:
    """Each cell's record and reports (``meta.json`` holds the config hash)."""
    return {str(p.relative_to(cfg.out_dir)): p.read_bytes()
            for name in ("record", "lexical", "geometry")
            for p in sorted((cfg.out_dir / "cells").glob(f"*/{name}.json"))}


class TestMalformedReplies:
    """A reply that does not keep the wire contract is an EndpointError: it
    is retried, then fails only the cells that need it, and nothing of it
    is cached."""

    @pytest.mark.parametrize("reply", sorted(_MALFORMED_ROWS))
    def test_malformed_embedding_is_retried_then_fails(self, server, reply):
        server.embed_row = _MALFORMED_ROWS[reply]
        client = _embed_client(server, retries=1)
        with pytest.raises(EndpointError, match="after 2 attempts.*finite numbers"):
            client.embed_batch(["x", "yz"])
        assert len(server.requests) == 2

    @pytest.mark.parametrize("reply", sorted(_MALFORMED_ROWS))
    def test_malformed_embedding_fails_only_its_cells(self, server, tmp_path, reply):
        healthy = {"encoder_id": "bow", "url": "mock://bow?dim=16",
                   "tokenizer": {"kind": "word"}}
        remote = {"encoder_id": "remote-enc", "url": _url(server, "/v1/embeddings"),
                  "tokenizer": {"kind": "word"}}
        cfg = load_config(write_matrix_config(tmp_path, encoders=[healthy]))
        assert run_matrix(cfg).exit_status == 0
        cache = _cache_files(cfg)
        cells = _cell_results(cfg)

        server.embed_row = _MALFORMED_ROWS[reply]
        cfg = load_config(write_matrix_config(tmp_path, encoders=[healthy, remote]))
        result = run_matrix(cfg)
        assert result.exit_status == 1
        assert {c.encoder_id for c in result.failures} == {"remote-enc"}
        assert {c.encoder_id for c in result.results} == {"bow"}
        assert all("failed after 2 attempts" in msg for msg in result.failures.values())
        assert result.endpoint_calls["encoder:remote-enc"] == len(server.requests) == 2
        assert _cache_files(cfg) == cache
        assert _cell_results(cfg) == cells

    def test_null_content_is_retried_then_fails(self, server):
        server.content = lambda user: None
        client = _rewrite_client(server, retries=1)
        with pytest.raises(EndpointError, match="after 2 attempts"):
            client.complete("", "u", 8)
        assert len(server.requests) == 2

    def test_null_content_falls_back_to_the_source_text(self, server, tmp_path):
        server.content = lambda user: None
        remote = {"rewriter_id": "remote-rw", "url": _url(server, "/v1/chat/completions")}
        cfg = load_config(write_matrix_config(tmp_path, rewriters=[remote]))
        result = run_matrix(cfg)
        assert result.exit_status == 0
        cell_dir = cfg.out_dir / "cells" / "bow__toy__remote-rw__NL__QC"
        rows = [json.loads(line)
                for line in (cell_dir / "rewrites.jsonl").read_text().splitlines()]
        assert len(rows) == len(TOY_DOCS) + 3
        assert all(row["failed"] and row["output_text"] == "" for row in rows)
        record = json.loads((cell_dir / "record.json").read_text())
        assert record["delta_ndcg"] == 0.0  # it ranked the source texts


    def test_content_that_does_not_encode_is_retried_then_falls_back(self, server,
                                                                     tmp_path):
        # the reply's JSON escape "\ud800" decodes to a lone surrogate, which
        # no UTF-8 text can hold: a malformed reply, so nothing of it is cached
        server.content = lambda user: f"REWRITTEN \ud800 {user}"
        client = _rewrite_client(server, retries=1)
        with pytest.raises(EndpointError, match="after 2 attempts.*does not encode"):
            client.complete("", "u", 8)
        assert len(server.requests) == 2
        remote = {"rewriter_id": "remote-rw", "url": _url(server, "/v1/chat/completions")}
        cfg = load_config(write_matrix_config(tmp_path, rewriters=[remote]))
        result = run_matrix(cfg)
        assert result.exit_status == 0
        cell_dir = cfg.out_dir / "cells" / "bow__toy__remote-rw__NL__QC"
        rows = [json.loads(line)
                for line in (cell_dir / "rewrites.jsonl").read_text().splitlines()]
        assert len(rows) == len(TOY_DOCS) + 3
        assert all(row["failed"] and row["output_text"] == "" for row in rows)
        assert not (cfg.cache_dir / "rewrites.jsonl").exists()


def _wait_for(condition, timeout_s=5.0) -> bool:
    deadline = time.monotonic() + timeout_s
    while not condition():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.01)
    return True


def test_one_connection_per_client_thread(keepalive_server):
    server = keepalive_server
    embed, rewrite = _embed_client(server), _rewrite_client(server)
    with ThreadPoolExecutor(max_workers=2) as pool:
        list(pool.map(lambda i: embed.embed_batch([f"t{i}"]), range(12)))
        assert 1 <= server.opened <= 2
        list(pool.map(lambda i: rewrite.complete("", f"u{i}", 8), range(12)))
        assert 2 <= server.opened <= 4
    assert len(server.requests) == 24
    assert embed.call_count == rewrite.call_count == 12
    embed.close()
    rewrite.close()
    assert _wait_for(lambda: server.closed == server.opened), (server.opened, server.closed)


class TestTransport:
    def test_non_json_body_is_retried_then_fails(self, server):
        server.raw_body = b"<html>busy</html>"
        client = _rewrite_client(server, retries=1)
        with pytest.raises(EndpointError, match="after 2 attempts"):
            client.complete("", "u", 8)
        assert len(server.requests) == 2

    def test_read_past_timeout_fails(self, server):
        server.delay_s = 0.5
        client = _embed_client_at(
            f"http://127.0.0.1:{server.server_address[1]}/v1/embeddings",
            retries=0, timeout_s=0.05)
        with pytest.raises(EndpointError, match="after 1 attempts"):
            client.embed_batch(["x"])
        client.close()

    def test_dropped_keepalive_connection_is_resent_once(self, dropping_server,
                                                         monkeypatch):
        slept = []
        monkeypatch.setattr(time, "sleep", slept.append)
        url = f"http://127.0.0.1:{dropping_server.server_address[1]}/v1/chat/completions"
        client = RewriterClient(RewriterEndpoint(rewriter_id="rw", url=url,
                                                 retries=2, backoff_s=30.0))
        for i in range(10):
            assert client.complete("", f"u{i}", 8) == (f"REWRITTEN::u{i}", False)
        assert client.call_count == 10
        assert dropping_server.opened == 10  # calls 2-10 found theirs dropped
        assert slept == []
        client.close()

    def test_http_proxy_gets_the_absolute_url(self, proxy_server, monkeypatch):
        _clear_proxy_env(monkeypatch)
        monkeypatch.setenv("HTTP_PROXY",
                           f"http://127.0.0.1:{proxy_server.server_address[1]}")
        url = "http://endpoint.test:8080/v1/chat/completions?api-version=1"
        client = RewriterClient(RewriterEndpoint(rewriter_id="rw", url=url,
                                                 retries=0, backoff_s=0.0))
        client.complete("", "u", 8)
        client.close()
        assert [r["path"] for r in proxy_server.requests] == [url]

    def test_https_goes_through_a_connect_tunnel(self, proxy_server, monkeypatch):
        _clear_proxy_env(monkeypatch)
        monkeypatch.setenv("HTTPS_PROXY",
                           f"http://127.0.0.1:{proxy_server.server_address[1]}")
        client = RewriterClient(RewriterEndpoint(
            rewriter_id="rw", url="https://endpoint.test/v1/chat/completions",
            retries=0, backoff_s=0.0))
        with pytest.raises(EndpointError, match="Tunnel connection failed: 502"):
            client.complete("", "u", 8)
        client.close()
        assert proxy_server.requests == [{"path": "endpoint.test:443", "method": "CONNECT"}]

    @pytest.mark.parametrize("url", ["htp://endpoint.test/v1", "http:///v1",
                                     "http://endpoint.test/v1/émbed"])
    def test_unusable_url_is_a_config_error(self, url):
        with pytest.raises(ConfigError):
            _embed_client_at(url)

    def test_non_http_proxy_is_a_config_error(self, monkeypatch):
        _clear_proxy_env(monkeypatch)
        monkeypatch.setenv("HTTP_PROXY", "socks5://127.0.0.1:1080")
        with pytest.raises(ConfigError, match="socks5"):
            _embed_client_at("http://endpoint.test/v1/embeddings")

    def test_no_proxy_bypasses_the_proxy(self, server, proxy_server, monkeypatch):
        _clear_proxy_env(monkeypatch)
        monkeypatch.setenv("HTTP_PROXY",
                           f"http://127.0.0.1:{proxy_server.server_address[1]}")
        monkeypatch.setenv("NO_PROXY", "127.0.0.1")
        client = _embed_client(server, retries=0)
        client.embed_batch(["x"])
        client.close()
        assert proxy_server.requests == []
        assert [r["path"] for r in server.requests] == ["/v1/embeddings"]


def _clear_proxy_env(monkeypatch):
    for name in ("http_proxy", "https_proxy", "all_proxy", "no_proxy"):
        monkeypatch.delenv(name, raising=False)
        monkeypatch.delenv(name.upper(), raising=False)
