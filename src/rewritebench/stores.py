"""Append-only JSON-Lines stores for run records and diagnostics reports.

Each line carries a schema version field ``v``. Appends are serialized
through an in-process lock (single-writer discipline); reads take a
snapshot of the file.
"""

from __future__ import annotations

import json
import os
import threading
from pathlib import Path
from typing import Any, Callable, Iterator

from .errors import StoreError
from .models import RunRecord

SCHEMA_VERSION = 1


def _dump(obj: dict[str, Any]) -> str:
    return json.dumps(obj, sort_keys=True, ensure_ascii=False)


class JsonlLog:
    """An append-only JSON-Lines file, read once on open and appended to after.

    Opening only reads. A crash mid-append leaves a last line that does not
    parse: it is skipped and counted in ``torn_lines``. The first
    :meth:`append` cuts it off, or adds a missing final newline, so the new
    line starts a line of its own. A malformed line anywhere else is
    corruption: StoreError. The file is streamed, never held whole. One
    process at a time may write the file; an append that finds the file
    changed since it was read, with a repair pending, raises StoreError
    rather than cut another writer's line.
    """

    def __init__(self, path: Path, add: Callable[[Any], None]):
        self.path = path
        self.torn_lines = 0
        self._size = 0          # file size when read
        self._keep: int | None = None  # size to cut to before the first append
        self._newline = False   # the last line lacks its "\n"
        if path.exists():
            self._read(add)

    def _read(self, add: Callable[[Any], None]) -> None:
        bad: tuple[int, ValueError] | None = None
        tail: list[str] = []  # the malformed line and the blank lines after it
        line = ""
        try:
            self._size = self.path.stat().st_size
            # surrogateescape: a write torn inside a multi-byte character still reads
            with open(self.path, encoding="utf-8", errors="surrogateescape",
                      newline="") as fh:
                for lineno, line in enumerate(fh, start=1):
                    if bad is not None:
                        if line.strip():
                            raise StoreError(f"{self.path}: line {bad[0]} is malformed: "
                                             f"{bad[1]}") from bad[1]
                        tail.append(line)
                    elif line.strip():
                        try:
                            row = json.loads(line)
                        except ValueError as exc:
                            bad, tail = (lineno, exc), [line]
                            continue
                        add(row)
        except OSError as exc:
            raise StoreError(f"cannot read {self.path}: {exc}") from exc
        if bad is not None:
            self.torn_lines = 1
            torn = "".join(tail).encode("utf-8", errors="surrogateescape")
            self._keep = self._size - len(torn)
        elif line and not line.endswith(("\n", "\r")):
            self._newline = True

    def append(self, line: str) -> None:
        """Write *line* and its newline; the caller serializes calls."""
        try:
            if self._keep is not None or self._newline:
                if self.path.stat().st_size != self._size:
                    raise StoreError(f"{self.path} changed since it was read; "
                                     "one process at a time may write it")
                if self._keep is not None:
                    os.truncate(self.path, self._keep)
            self.path.parent.mkdir(parents=True, exist_ok=True)
            with open(self.path, "a", encoding="utf-8") as fh:
                fh.write(("\n" if self._newline else "") + line + "\n")
        except OSError as exc:
            raise StoreError(f"cannot append to {self.path}: {exc}") from exc
        self._keep, self._newline = None, False


class RunStore:
    """Append-only store of RunRecords, one JSON object per line.

    Run ids number the lines. The file is counted once, on the first
    append, and a counter takes over, so an instance must be the file's
    only writer while it appends.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._lock = threading.Lock()
        self._next: int | None = None  # next run number; counted on first append

    def _count(self) -> int:
        if not self.path.exists():
            return 0
        with open(self.path, "r", encoding="utf-8") as fh:
            return sum(1 for line in fh if line.strip())

    def append(self, record: RunRecord) -> str:
        with self._lock:
            if self._next is None:
                self._next = self._count()
            run_id = f"run-{self._next:06d}"
            line = _dump({"v": SCHEMA_VERSION, "run_id": run_id, **record.to_dict()})
            try:
                self.path.parent.mkdir(parents=True, exist_ok=True)
                with open(self.path, "a", encoding="utf-8") as fh:
                    fh.write(line + "\n")
            except OSError as exc:
                raise StoreError(f"cannot append run record to {self.path}: {exc}") from exc
            self._next += 1
            return run_id

    def read(self) -> list[tuple[str, RunRecord]]:
        if not self.path.exists():
            return []
        out = []
        try:
            with open(self.path, "r", encoding="utf-8") as fh:
                for line in fh:
                    if not line.strip():
                        continue
                    obj = json.loads(line)
                    out.append((obj["run_id"], RunRecord.from_dict(obj)))
        except OSError as exc:
            raise StoreError(f"cannot read run store {self.path}: {exc}") from exc
        return out

    def records(self) -> list[RunRecord]:
        return [rec for _, rec in self.read()]


def persist_run(record: RunRecord, store_path: str | Path) -> str:
    """Append one record to the store at *store_path*; returns its run id."""
    return RunStore(store_path).append(record)


class DiagnosticsStore:
    """Mixed store of lexical and geometry reports, tagged by ``kind``."""

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._lock = threading.Lock()

    def append(self, kind: str, payload: dict[str, Any]) -> None:
        if kind not in ("lexical", "geometry"):
            raise StoreError(f"unknown diagnostics kind {kind!r}")
        line = _dump({"v": SCHEMA_VERSION, "kind": kind, **payload})
        with self._lock:
            try:
                self.path.parent.mkdir(parents=True, exist_ok=True)
                with open(self.path, "a", encoding="utf-8") as fh:
                    fh.write(line + "\n")
            except OSError as exc:
                raise StoreError(f"cannot append diagnostics to {self.path}: {exc}") from exc

    def read(self) -> Iterator[dict[str, Any]]:
        if not self.path.exists():
            return iter(())
        try:
            with open(self.path, "r", encoding="utf-8") as fh:
                lines = [json.loads(line) for line in fh if line.strip()]
        except OSError as exc:
            raise StoreError(f"cannot read diagnostics store {self.path}: {exc}") from exc
        return iter(lines)

    def by_kind(self, kind: str) -> list[dict[str, Any]]:
        return [obj for obj in self.read() if obj.get("kind") == kind]
