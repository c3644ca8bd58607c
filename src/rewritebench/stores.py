"""JSON-Lines files and stores: :class:`JsonlLog`, the one path by which
the caches and the run and diagnostics stores read and append JSON-Lines,
and the ``indent=1`` JSON writer every artifact file goes through.

Each store line carries a schema version field ``v``. ``run-matrix``
rewrites a store whole, once per run, through a temporary file that
replaces it; single-cell commands append to it through a
:class:`JsonlLog` per append. So a store follows the caches' rule:
a torn last line (a crash mid-append) is skipped on read and cut off by the
next append, and a malformed line anywhere else, or a row that lacks a
field, is a StoreError. Writes are serialized through an in-process lock
(single-writer discipline); reads take a snapshot of the file.
"""

from __future__ import annotations

import json
import os
import threading
from contextlib import suppress
from itertools import chain
from pathlib import Path
from typing import Any, BinaryIO, Callable, Iterable, Iterator

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
    """Write *obj* to *path* as :func:`json_chunks` text and a newline; the
    caller makes the directory."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(json_chunks(obj))
        fh.write("\n")


class AppendFile:
    """A file appended to through one unbuffered handle, opened by the
    first append and kept until :meth:`close`.

    Each append writes straight to the file, so a crash loses none that
    returned. An append that fails cuts the file back to where it started,
    so the next one does not follow a partial line, and drops the handle;
    the next append opens it again. The caller makes the directory.
    """

    def __init__(self, path: Path):
        self.path = path
        self._fh: BinaryIO | None = None

    @property
    def is_open(self) -> bool:
        return self._fh is not None

    def append(self, data: bytes) -> int:
        """Write *data* at the end of the file; return the offset it starts at."""
        offset = None
        try:
            if self._fh is None:
                self._fh = open(self.path, "ab", buffering=0)
            offset = self._fh.tell()
            view = memoryview(data)
            while view:  # an unbuffered write may put only part of its bytes
                view = view[self._fh.write(view):]
        except OSError as exc:
            if offset is not None:
                with suppress(OSError):  # a reopen still skips a torn last line
                    os.ftruncate(self._fh.fileno(), offset)
            self.close()
            raise StoreError(f"cannot append to {self.path}: {exc}") from exc
        return offset

    def close(self) -> None:
        """Close the handle, if an append opened it."""
        fh, self._fh = self._fh, None
        if fh is not None:
            fh.close()


class JsonlLog:
    """An append-only JSON-Lines file, read once on open and appended to after.

    Opening only reads. A crash mid-append leaves a last line that does not
    parse: it is skipped and counted in ``torn_lines``. The first
    :meth:`append` cuts it off, or adds a missing final newline, so the new
    line starts a line of its own. A malformed line anywhere else, or a row
    that *add* cannot take (a missing field, a value of the wrong type), is
    corruption: StoreError, naming the file and line. The file is streamed,
    never held whole. One process at a time may write the file; an append
    that finds the file changed since it was read, with a repair pending,
    raises StoreError rather than cut another writer's line.

    Appends go through one :class:`AppendFile` handle, which :meth:`close`
    closes.
    """

    def __init__(self, path: Path, add: Callable[[Any], None]):
        self.path = path
        self.torn_lines = 0
        self._size = 0          # file size when read
        self._keep: int | None = None  # size to cut to before the first append
        self._newline = False   # the last line lacks its "\n"
        self._file = AppendFile(path)
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
                        try:
                            add(row)
                        except (AttributeError, KeyError, TypeError, ValueError) as exc:
                            raise StoreError(f"{self.path}: line {lineno} is malformed: "
                                             f"{type(exc).__name__}: {exc}") from exc
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
        """Write each of *lines* and its newline with one append; the
        caller serializes calls."""
        data = "".join(line + "\n" for line in lines).encode("utf-8")
        if not self._file.is_open and (self._keep is not None or self._newline):
            try:
                if self.path.stat().st_size != self._size:
                    raise StoreError(f"{self.path} changed since it was read; "
                                     "one process at a time may write it")
                if self._keep is not None:
                    os.truncate(self.path, self._keep)
                    self._size, self._keep = self._keep, None
            except OSError as exc:
                raise StoreError(f"cannot append to {self.path}: {exc}") from exc
        self._file.append(b"\n" + data if self._newline else data)
        self._newline = False

    def close(self) -> None:
        """Close the append handle, if an append opened it."""
        self._file.close()


class _Store:
    """A JSON-Lines store: :meth:`_write` replaces it whole, and each append
    reads the file through a :class:`JsonlLog` of its own, appends and
    closes it; a command appends to a store once. An instance must be the
    file's only writer."""

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._lock = threading.Lock()

    def _read(self, convert: Callable[[dict[str, Any]], Any]) -> list[Any]:
        """The file's rows (none when it is missing), each passed through
        *convert* as a JsonlLog reads it: a row *convert* cannot take is a
        StoreError naming the file and line."""
        rows: list[Any] = []
        JsonlLog(self.path, lambda row: rows.append(convert(row)))
        return rows

    def _write(self, lines: list[str], what: str) -> None:
        """Replace the file with *lines*; the caller makes the directory.
        The lines go to a temporary file next to it that then replaces it,
        so a write cut off midway never leaves a truncated store, and one
        that fails removes its temporary file."""
        tmp = self.path.with_name(self.path.name + ".tmp")
        with self._lock:
            try:
                try:
                    with open(tmp, "w", encoding="utf-8") as fh:
                        fh.writelines(line + "\n" for line in lines)
                    os.replace(tmp, self.path)
                finally:
                    tmp.unlink(missing_ok=True)
            except OSError as exc:
                raise StoreError(f"cannot {what} {self.path}: {exc}") from exc

    def _append(self, make_lines: Callable[[int], list[str]]) -> int:
        """Append ``make_lines(n)``, where *n* counts the rows already in
        the file, and return *n*."""
        with self._lock:
            rows: list[Any] = []
            log = JsonlLog(self.path, rows.append)
            log.append_many(make_lines(len(rows)))
            log.close()
            return len(rows)


class RunStore(_Store):
    """Store of RunRecords, one JSON object per line; run ids number the
    lines."""

    @staticmethod
    def _line(number: int, record: RunRecord) -> str:
        return _dump({"v": SCHEMA_VERSION, "run_id": f"run-{number:06d}",
                      **record.to_dict()})

    def write(self, records: Iterable[RunRecord]) -> None:
        """Replace the file with *records*, numbered from ``run-000000``."""
        self._write([self._line(i, rec) for i, rec in enumerate(records)],
                    "write run records to")

    def append(self, record: RunRecord) -> str:
        """Append *record*, numbered after the file's rows; return its run id."""
        number = self._append(lambda n: [self._line(n, record)])
        return f"run-{number:06d}"

    def read(self) -> list[tuple[str, RunRecord]]:
        return self._read(lambda row: (row["run_id"], RunRecord.from_dict(row)))

    def records(self) -> list[RunRecord]:
        return [rec for _, rec in self.read()]


class DiagnosticsStore(_Store):
    """Mixed store of lexical and geometry reports, tagged by ``kind``."""

    @staticmethod
    def _line(kind: str, payload: dict[str, Any]) -> str:
        if kind not in ("lexical", "geometry"):
            raise StoreError(f"unknown diagnostics kind {kind!r}")
        return _dump({"v": SCHEMA_VERSION, "kind": kind, **payload})

    def write(self, reports: Iterable[tuple[str, dict[str, Any]]]) -> None:
        """Replace the file with *reports*, (kind, payload) pairs in order."""
        self._write([self._line(kind, payload) for kind, payload in reports],
                    "write diagnostics to")

    def append_many(self, reports: Iterable[tuple[str, dict[str, Any]]]) -> None:
        """Append *reports*, (kind, payload) pairs, with one write."""
        lines = [self._line(kind, payload) for kind, payload in reports]
        self._append(lambda n: lines)

    def append(self, kind: str, payload: dict[str, Any]) -> None:
        self.append_many([(kind, payload)])

    def read(self, convert: Callable[[dict[str, Any]], Any] = lambda row: row) -> list[Any]:
        """The file's rows, each passed through *convert*, as by :meth:`_read`."""
        return self._read(convert)

    def by_kind(self, kind: str) -> list[dict[str, Any]]:
        return [obj for obj in self.read() if obj.get("kind") == kind]
