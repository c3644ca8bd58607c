"""Loopback OpenAI-compatible rewriter and encoder with a fixed per-call delay.

    python3 perfbench/stub.py --table rewrites.json --port-file PORT

Binds 127.0.0.1 on a free port and writes the port number to ``--port-file``
once it listens. Every call waits ``gen.STUB_DELAY_MS`` milliseconds, and
every answer is a deterministic function of the request:

- ``POST /v1/chat/completions`` returns the table's entry for the last user
  message, or the message itself when the table has none (as
  ``mock://table`` does);
- ``POST /v1/embeddings`` returns a hashed bag-of-words vector of
  ``gen.STUB_DIM`` floats per input.

Requests are served by a pool of at most ``nproc`` threads. The process
runs until it is terminated or its standard input closes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import gen

TOKEN_RE = re.compile(r"[A-Za-z0-9_]+")


def embed(text: str, dim: int) -> list[float]:
    vec = [0.0] * dim
    for tok in TOKEN_RE.findall(text):
        h = int.from_bytes(hashlib.blake2b(tok.encode("utf-8"), digest_size=8).digest(),
                           "big")
        vec[h % dim] += 1.0 if h >> 63 else -1.0
    return vec


class _Handler(BaseHTTPRequestHandler):
    server: "StubServer"

    def log_message(self, *args):
        pass

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        body = json.loads(self.rfile.read(length))
        time.sleep(self.server.delay_s)
        if self.path == "/v1/chat/completions":
            user = body["messages"][-1]["content"]
            payload = {"choices": [{
                "message": {"role": "assistant",
                            "content": self.server.table.get(user, user)},
                "finish_reason": "stop"}]}
        elif self.path == "/v1/embeddings":
            payload = {"data": [{"index": i, "embedding": embed(t, self.server.dim)}
                                for i, t in enumerate(body["input"])]}
        else:
            self.send_response(404)
            self.end_headers()
            return
        data = json.dumps(payload).encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)


class StubServer(ThreadingHTTPServer):
    """HTTP server whose handlers run on a fixed-size thread pool."""

    def __init__(self, table: dict[str, str], delay_s: float, dim: int, workers: int):
        super().__init__(("127.0.0.1", 0), _Handler)
        self.table = table
        self.delay_s = delay_s
        self.dim = dim
        self.pool = ThreadPoolExecutor(max_workers=workers)

    def process_request(self, request, client_address):
        self.pool.submit(self.process_request_thread, request, client_address)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--table", required=True, type=Path)
    parser.add_argument("--port-file", required=True, type=Path)
    args = parser.parse_args()
    table = json.loads(args.table.read_text(encoding="utf-8"))
    server = StubServer(table, gen.STUB_DELAY_MS / 1000.0, gen.STUB_DIM,
                        workers=len(os.sched_getaffinity(0)))
    tmp = args.port_file.with_suffix(".tmp")
    tmp.write_text(str(server.server_address[1]), encoding="utf-8")
    tmp.replace(args.port_file)
    threading.Thread(target=_shutdown_on_eof, args=(server,), daemon=True).start()
    server.serve_forever()


def _shutdown_on_eof(server: StubServer) -> None:
    """Stop serving once standard input closes, so the stub ends with its parent."""
    sys.stdin.buffer.read()
    server.shutdown()


if __name__ == "__main__":
    main()
