"""One ``requests.Session`` per thread for an endpoint client, so the calls a
thread makes reuse its connections instead of opening one per call."""

from __future__ import annotations

import threading

import requests


class ThreadSessions:
    """The calling thread's session, made on its first call. :meth:`close`
    closes every session made so far; a later call makes a new one."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._made: list[requests.Session] = []

    def get(self) -> requests.Session:
        session = getattr(self._local, "session", None)
        if session is None:
            session = self._local.session = requests.Session()
            with self._lock:
                self._made.append(session)
        return session

    def close(self) -> None:
        with self._lock:
            made, self._made = self._made, []
            self._local = threading.local()
        for session in made:
            session.close()
