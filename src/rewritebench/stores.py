"""JSON-Lines stores for run records and diagnostics reports, and the
``indent=1`` JSON writer every artifact file goes through.

Each store line carries a schema version field ``v``. ``run-matrix``
rewrites a store whole, once per run, through a temporary file that
replaces it; single-cell commands append to it.
Writes are serialized through an in-process lock (single-writer
discipline); reads take a snapshot of the file.
"""

from __future__ import annotations

import json
import os
import threading
from itertools import chain
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator

from .errors import StoreError
from .models import RunRecord

SCHEMA_VERSION = 1

_encode_str = json.encoder.encode_basestring  # the C escaper of ensure_ascii=False
_ROWS_PER_CHUNK = 256


def _dump(obj: dict[str, Any]) -> str:
    return json.dumps(obj, sort_keys=True, ensure_ascii=False)


def _indent1(obj) -> str:
    return json.dumps(obj, sort_keys=True, ensure_ascii=False, indent=1)


def _is_numeric_rows(value) -> bool:
    """A non-empty list of non-empty lists of ints and floats; the checks
    run in C, a curve has thousands of points."""
    return (type(value) is list and bool(value) and set(map(type, value)) == {list}
            and all(value) and set(map(type, chain.from_iterable(value))) <= {int, float})


def _numeric_rows_chunks(rows: list) -> Iterator[str]:
    """The ``indent=1`` text of non-empty rows of numbers, as a value of a
    top-level object, in pieces of at most ``_ROWS_PER_CHUNK`` rows. The C
    encoder writes each piece compactly, and since a number's text holds no
    ``[``, ``]`` or ``,`` the commas alone place the line breaks."""
    yield "[\n  [\n   "
    for start in range(0, len(rows), _ROWS_PER_CHUNK):
        if start:
            yield "\n  ],\n  [\n   "
        compact = json.dumps(rows[start:start + _ROWS_PER_CHUNK], separators=(",", ":"))
        yield compact[2:-2].replace(",", ",\n   ").replace("],\n   [", "\n  ],\n  [\n   ")
    yield "\n  ]\n ]"


def json_chunks(obj) -> Iterator[str]:
    """The text of ``json.dumps(obj, sort_keys=True, ensure_ascii=False,
    indent=1)``, byte for byte, in pieces.

    ``indent`` keeps ``json`` off its C encoder. In an object with string
    keys, a value that is non-empty rows of numbers (a coverage curve) goes
    through :func:`_numeric_rows_chunks`; every other value is encoded as
    before and shifted one level in. Small pieces keep a large curve from
    being copied whole, again and again, on its way to the file.
    """
    if not (isinstance(obj, dict) and obj and all(isinstance(k, str) for k in obj)):
        yield _indent1(obj)
        return
    separator = "{\n "
    for key, value in sorted(obj.items()):
        yield separator + _encode_str(key) + ": "
        separator = ",\n "
        if _is_numeric_rows(value):
            yield from _numeric_rows_chunks(value)
        else:
            yield _indent1(value).replace("\n", "\n ")
    yield "\n}"


def write_json(path: Path, obj) -> None:
    """Write *obj* to *path* as :func:`json_chunks` text and a newline."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(json_chunks(obj))
        fh.write("\n")


def _write(path: Path, mode: str, lines: Iterable[str], what: str) -> None:
    """Write *lines* to *path* opened once in *mode*; each line ends in
    ``\\n``. A whole-file write (``"w"``) goes to a temporary file next to
    *path* that then replaces it, so one cut off midway never leaves a
    truncated store, and one that fails removes its temporary file."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        if mode == "a":
            with open(path, "a", encoding="utf-8") as fh:
                fh.writelines(lines)
            return
        tmp = path.with_name(path.name + ".tmp")
        try:
            with open(tmp, mode, encoding="utf-8") as fh:
                fh.writelines(lines)
            os.replace(tmp, path)
        finally:
            tmp.unlink(missing_ok=True)
    except OSError as exc:
        raise StoreError(f"cannot {what} {path}: {exc}") from exc


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
        self.append_many([line])

    def append_many(self, lines: Iterable[str]) -> None:
        """Write each of *lines* and its newline, with one open and one
        write; the caller serializes calls."""
        text = "".join(line + "\n" for line in lines)
        try:
            if self._keep is not None or self._newline:
                if self.path.stat().st_size != self._size:
                    raise StoreError(f"{self.path} changed since it was read; "
                                     "one process at a time may write it")
                if self._keep is not None:
                    os.truncate(self.path, self._keep)
            self.path.parent.mkdir(parents=True, exist_ok=True)
            with open(self.path, "a", encoding="utf-8") as fh:
                fh.write(("\n" if self._newline else "") + text)
        except OSError as exc:
            raise StoreError(f"cannot append to {self.path}: {exc}") from exc
        self._keep, self._newline = None, False


class RunStore:
    """Store of RunRecords, one JSON object per line.

    Run ids number the lines. :meth:`write` replaces the file; the first
    :meth:`append` counts the file's lines and a counter takes over, so an
    instance must be the file's only writer.
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

    @staticmethod
    def _line(number: int, record: RunRecord) -> str:
        return _dump({"v": SCHEMA_VERSION, "run_id": f"run-{number:06d}",
                      **record.to_dict()}) + "\n"

    def write(self, records: Iterable[RunRecord]) -> None:
        """Replace the file with *records*, numbered from ``run-000000``."""
        lines = [self._line(i, rec) for i, rec in enumerate(records)]
        with self._lock:
            _write(self.path, "w", lines, "write run records to")
            self._next = len(lines)

    def append(self, record: RunRecord) -> str:
        with self._lock:
            number = self._count() if self._next is None else self._next
            _write(self.path, "a", [self._line(number, record)], "append run record to")
            self._next = number + 1
            return f"run-{number:06d}"

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


class DiagnosticsStore:
    """Mixed store of lexical and geometry reports, tagged by ``kind``."""

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._lock = threading.Lock()

    @staticmethod
    def _line(kind: str, payload: dict[str, Any]) -> str:
        if kind not in ("lexical", "geometry"):
            raise StoreError(f"unknown diagnostics kind {kind!r}")
        return _dump({"v": SCHEMA_VERSION, "kind": kind, **payload}) + "\n"

    def write(self, reports: Iterable[tuple[str, dict[str, Any]]]) -> None:
        """Replace the file with *reports*, (kind, payload) pairs in order."""
        lines = [self._line(kind, payload) for kind, payload in reports]
        with self._lock:
            _write(self.path, "w", lines, "write diagnostics to")

    def append(self, kind: str, payload: dict[str, Any]) -> None:
        line = self._line(kind, payload)
        with self._lock:
            _write(self.path, "a", [line], "append diagnostics to")

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
