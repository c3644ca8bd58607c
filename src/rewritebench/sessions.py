"""What both endpoint clients share: the call path through
:class:`EndpointClient`, and a small stdlib HTTP transport that POSTs a
JSON payload and decodes the JSON object that comes back.

:class:`EndpointClient` parses a ``mock://KIND?key=value`` URL for the
client's in-process answers, builds the transport for any other URL,
counts every call, retries a failed one with exponential backoff and
closes the transport; its ``fingerprint`` keys the caches of its
answers. Each thread that calls a transport gets its own
``http.client`` connection to the endpoint's origin, made on its first
call and kept alive for reuse. Proxies come from the environment
(``HTTP_PROXY``, ``HTTPS_PROXY``, ``NO_PROXY``) and are looked up once, when
the transport is built: an https origin is reached through a ``CONNECT``
tunnel, an http one by sending the proxy the absolute URL. HTTPS verifies
against the system trust store. Redirects are not followed and ``.netrc``
is not read. The HTTP stack (``http.client``, ``ssl``, ``urllib.request``)
is imported when the first transport is built, so a process whose
endpoints are all ``mock://``, or that only reads results, never loads it.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
from functools import cached_property
from typing import TYPE_CHECKING, Any
from urllib.parse import parse_qs, urlsplit

from .errors import ConfigError, EndpointError

if TYPE_CHECKING:
    import http.client


class JsonTransport:
    """POSTs JSON to one ``http``/``https`` URL. ``timeout_s`` bounds the
    connect and each read; *auth_env* names the environment variable whose
    value, when set, is sent as a bearer token. :meth:`close` closes every
    connection made so far; a later call makes a new one."""

    def __init__(self, url: str, timeout_s: float, auth_env: str | None = None):
        import ssl
        from urllib.request import getproxies, proxy_bypass

        parts = urlsplit(url)
        if parts.scheme not in ("http", "https"):
            raise ConfigError(f"endpoint URL {url!r} has scheme {parts.scheme!r}; "
                              "use http://, https:// or mock://")
        if not parts.hostname:
            raise ConfigError(f"endpoint URL {url!r} has no host")
        self.url, self.timeout_s, self.auth_env = url, timeout_s, auth_env
        self._host = parts.hostname
        self._port = parts.port or (443 if parts.scheme == "https" else 80)
        self._context = ssl.create_default_context() if parts.scheme == "https" else None
        self._target = parts.path or "/"
        if parts.query:
            self._target += "?" + parts.query
        if not self._target.isascii():  # http.client would fail on every call
            raise ConfigError(f"endpoint URL {url!r} has non-ASCII characters in its "
                              "path or query; percent-encode them")
        self._proxy: tuple[str, int] | None = None
        proxy = getproxies().get(parts.scheme)
        if proxy and not proxy_bypass(f"{self._host}:{self._port}"):
            spec = urlsplit(proxy if "://" in proxy else f"http://{proxy}")
            if spec.scheme != "http" or not spec.hostname:
                raise ConfigError(f"proxy {proxy!r} for {url!r}: only an http:// proxy "
                                  "with a host is supported")
            self._proxy = (spec.hostname, spec.port or 80)
            if parts.scheme == "http":  # the proxy is sent the absolute URL
                self._target = parts._replace(fragment="").geturl()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._made: list[http.client.HTTPConnection] = []

    def _connection(self) -> http.client.HTTPConnection:
        import http.client

        conn = getattr(self._local, "conn", None)
        if conn is None:
            host, port = self._proxy or (self._host, self._port)
            if self._context is not None:
                conn = http.client.HTTPSConnection(host, port, timeout=self.timeout_s,
                                                   context=self._context)
                if self._proxy:
                    conn.set_tunnel(self._host, self._port)
            else:
                conn = http.client.HTTPConnection(host, port, timeout=self.timeout_s)
            self._local.conn = conn
            with self._lock:
                self._made.append(conn)
        return conn

    def post(self, payload: dict) -> dict:
        """POST *payload* and return the decoded JSON object of a 200
        answer. Any other outcome raises :class:`EndpointError`."""
        import http.client

        body = json.dumps(payload).encode("utf-8")
        headers = {"Content-Type": "application/json"}
        token = os.environ.get(self.auth_env) if self.auth_env else None
        if token:
            headers["Authorization"] = f"Bearer {token}"
        conn = self._connection()
        reused = conn.sock is not None
        try:
            try:
                conn.request("POST", self._target, body=body, headers=headers)
                resp = conn.getresponse()
            # what a kept-alive connection the server has dropped raises before
            # a status line comes back: sent again once, on a new connection
            except (http.client.RemoteDisconnected, ConnectionResetError, BrokenPipeError):
                if not reused:
                    raise
                conn.close()
                conn.request("POST", self._target, body=body, headers=headers)
                resp = conn.getresponse()
            data = resp.read()
        except (OSError, http.client.HTTPException) as exc:
            conn.close()  # a half-done exchange leaves the connection unusable
            raise EndpointError(f"POST {self.url} failed: {exc!r}") from exc
        if resp.status != 200:
            raise EndpointError(f"POST {self.url} returned HTTP {resp.status}")
        try:
            decoded = json.loads(data)
        except ValueError as exc:
            raise EndpointError(f"POST {self.url} returned a body that is not JSON") from exc
        if not isinstance(decoded, dict):
            raise EndpointError(f"POST {self.url} returned JSON that is not an object")
        return decoded

    def close(self) -> None:
        with self._lock:
            made, self._made = self._made, []
            self._local = threading.local()
        for conn in made:
            conn.close()


class EndpointClient:
    """One endpoint, called by the client built on it: *endpoint* gives its
    ``url``, ``retries``, ``backoff_s``, ``timeout_s`` and ``auth_env``.

    A ``mock://KIND?key=value`` URL sets ``_mock_kind`` and ``_mock_params``
    and makes no transport; :meth:`_call` then answers with the client's
    ``_mock``, else with its ``_http`` through ``_transport``. Each client
    names the ``model_id`` it sends.
    ``call_count`` counts every call, retries included; matrix cells share
    a client, so it is counted under a lock.
    """

    def __init__(self, endpoint):
        self.endpoint = endpoint
        self.call_count = 0
        self._count_lock = threading.Lock()
        parts = urlsplit(endpoint.url)
        self._mock_kind = parts.netloc if parts.scheme == "mock" else None
        self._mock_params = {k: v[-1] for k, v in parse_qs(parts.query).items()}
        self._transport = (None if self._mock_kind is not None else
                           JsonTransport(endpoint.url, endpoint.timeout_s, endpoint.auth_env))

    @cached_property
    def fingerprint(self) -> str:
        """A hash of what the endpoint's answers depend on: the ``model_id``
        the client sends and the URL. A ``mock://table`` file's path is
        replaced by the sha256 of its bytes, so a moved checkout keeps its
        keys and an edited table does not."""
        url, table = self.endpoint.url, self._mock_params.get("file")
        if self._mock_kind == "table" and table:
            try:
                with open(table, "rb") as fh:
                    url = "mock://table?sha256=" + hashlib.file_digest(fh, "sha256").hexdigest()
            except OSError as exc:
                raise ConfigError(f"mock://table file {table} cannot be read: {exc}") from None
        return hashlib.sha256(f"{self.model_id}\0{url}".encode("utf-8")).hexdigest()

    def close(self) -> None:
        """Close the client's HTTP connections."""
        if self._transport is not None:
            self._transport.close()

    def _call(self, args: tuple, who: str, where: str = "") -> Any:
        """The answer to *args*; an EndpointError is retried ``retries``
        times with exponential backoff, then raised as "*who* failed after N
        attempts*where*: the last error"."""
        answer = self._mock if self._transport is None else self._http
        attempts = self.endpoint.retries + 1
        last: Exception | None = None
        for attempt in range(attempts):
            with self._count_lock:
                self.call_count += 1
            try:
                return answer(*args)
            except EndpointError as exc:
                last = exc
                if attempt + 1 < attempts and self.endpoint.backoff_s > 0:
                    time.sleep(self.endpoint.backoff_s * (2 ** attempt))
        raise EndpointError(f"{who} failed after {attempts} attempts{where}: {last}")
