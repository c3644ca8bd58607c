"""Every file the workbench writes: whole through :func:`replacing`, which
writes a ``*.tmp`` file beside it that then replaces it, so a crash leaves
the old file or the new one; appended to through :class:`AppendFile`. Each
makes the file's directory, and a write that fails is a StoreError naming
the file. On them sit :class:`JsonlLog`, the one path by which the caches
read and append JSON-Lines and the run and diagnostics stores are read,
and the ``indent=1`` JSON writer every artifact file goes through.

Each store line carries a schema version field ``v``. ``run-matrix``
writes a store whole, once per run, and nothing appends to it. So a store
line that does not parse, the last one too, is damage from outside the
program, as is a row that lacks a field: a StoreError naming the file and
line.

A line is read by :func:`decode_line`, which gives what ``json.loads``
gives, value or error, but reads a well-formed line with ``json``'s C
scanner alone: a cache open reads tens of thousands of lines.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager, suppress
from pathlib import Path
from typing import Any, BinaryIO, Callable, Iterable, Iterator, TextIO

from .errors import ContractError, DomainError, StoreError
from .models import RunRecord

SCHEMA_VERSION = 1

_encode_str = json.encoder.encode_basestring  # the C escaper of ensure_ascii=False
_scan_once = json.JSONDecoder().scan_once  # the C scanner of json.loads


def decode_line(line: str) -> Any:
    """``json.loads(line)``: the same value, or the same error. The C
    scanner reads the value from the first character; ``json.loads`` runs
    only when that fails or leaves more than JSON whitespace after it (a
    leading space, a BOM, a second value), and reads or rejects the line as
    it always does."""
    try:
        value, end = _scan_once(line, 0)
    except (StopIteration, ValueError):
        return json.loads(line)
    if line[end:].strip(" \t\n\r"):
        return json.loads(line)
    return value


class Encoded:
    """A coverage curve's JSON text, encoded once for every file that
    carries it, straight from its points: at least one (rank, fraction)
    pair of an int and a finite float, which ``json`` writes as their
    ``repr``. ``compact`` is the text of the list of ``[rank, fraction]``
    rows as a store row holds it, ``indented`` as :func:`json_chunks`
    writes a value of a top-level object; :func:`_dump` and
    :func:`json_chunks` put the text in place of the value. A number's text
    holds no ``[``, ``]`` or ``,``, so the separators alone place the line
    breaks."""

    __slots__ = ("compact", "indented")

    def __init__(self, points: Iterable[tuple[int, float]]):
        rows = "], [".join([f"{k!r}, {f!r}" for k, f in points])
        self.compact = f"[[{rows}]]"
        rows = rows.replace("], [", "\n  ],\n  [\n   ").replace(", ", ",\n   ")
        self.indented = f"[\n  [\n   {rows}\n  ]\n ]"


def _dump(obj: dict[str, Any]) -> str:
    """``json.dumps(obj, sort_keys=True, ensure_ascii=False)``, with the
    ``compact`` text of each :class:`Encoded` value of *obj*."""
    if Encoded not in set(map(type, obj.values())):
        return json.dumps(obj, sort_keys=True, ensure_ascii=False)
    return "{" + ", ".join(
        _encode_str(key) + ": " + (value.compact if type(value) is Encoded
                                   else json.dumps(value, sort_keys=True, ensure_ascii=False))
        for key, value in sorted(obj.items())) + "}"


def _indent1(obj) -> str:
    return json.dumps(obj, sort_keys=True, ensure_ascii=False, indent=1)


def json_chunks(obj) -> Iterator[str]:
    """The text of ``json.dumps(obj, sort_keys=True, ensure_ascii=False,
    indent=1)``, byte for byte, in pieces, with the ``indented`` text of each
    :class:`Encoded` value of *obj*. In an object with string keys, each
    other value is encoded with ``indent=1`` and shifted one level in."""
    if not (isinstance(obj, dict) and obj and all(isinstance(k, str) for k in obj)):
        yield _indent1(obj)
        return
    separator = "{\n "
    for key, value in sorted(obj.items()):
        yield separator + _encode_str(key) + ": "
        separator = ",\n "
        yield (value.indented if type(value) is Encoded
               else _indent1(value).replace("\n", "\n "))
    yield "\n}"


@contextmanager
def replacing(path: Path) -> Iterator[TextIO]:
    """A text handle whose writes replace *path* whole once the ``with``
    block exits cleanly. They go to ``path.name + ".tmp"`` beside it, which
    then replaces it; a block that raises removes that file and leaves
    *path* as it was. The directory is made when the file cannot be opened
    for want of it. An OSError is a StoreError naming *path*."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        try:
            fh = open(tmp, "w", encoding="utf-8", newline="")
        except FileNotFoundError:
            path.parent.mkdir(parents=True, exist_ok=True)
            fh = open(tmp, "w", encoding="utf-8", newline="")
        try:
            with fh:
                yield fh
            os.replace(tmp, path)
        except BaseException:
            with suppress(OSError):
                tmp.unlink(missing_ok=True)
            raise
    except OSError as exc:
        raise StoreError(f"cannot write {path}: {exc}") from exc


def write_json(path: Path, obj) -> None:
    """Replace *path* with *obj* as :func:`json_chunks` text and a newline."""
    with replacing(path) as fh:
        fh.writelines(json_chunks(obj))
        fh.write("\n")


class AppendFile:
    """A file appended to through one unbuffered handle, opened by the
    first append and kept until :meth:`close`.

    Each append writes straight to the file, so a crash loses none that
    returned. An append that fails cuts the file back to where it started,
    so the next one does not follow a partial line, and drops the handle;
    the next append makes the directory and opens it again.
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
                self.path.parent.mkdir(parents=True, exist_ok=True)
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
    parse: it is skipped, counted in ``torn_lines`` and numbered in
    ``torn_at``. The first :meth:`append` cuts it off, or adds a missing
    final newline, so the new line starts a line of its own. A malformed
    line anywhere else, or a row that *add* cannot take (a missing field, a
    value of the wrong type or one that fails a check), is corruption:
    StoreError, naming the file and line. The file is streamed, never held
    whole. One process at a time may write the file; an append that finds
    the file changed since it was read, with a repair pending, raises
    StoreError rather than cut another writer's line.

    Appends go through one :class:`AppendFile` handle, which :meth:`close`
    closes.
    """

    def __init__(self, path: Path, add: Callable[[Any], None]):
        self.path = path
        self.torn_lines = 0
        self.torn_at = 0        # the number of the torn last line, if any
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
                            row = decode_line(line)
                        except ValueError as exc:
                            bad, tail = (lineno, exc), [line]
                            continue
                        try:
                            add(row)
                        except (AttributeError, ContractError, DomainError, KeyError,
                                TypeError, ValueError) as exc:
                            raise StoreError(f"{self.path}: line {lineno} is malformed: "
                                             f"{type(exc).__name__}: {exc}") from exc
        except OSError as exc:
            raise StoreError(f"cannot read {self.path}: {exc}") from exc
        if bad is not None:
            self.torn_lines, self.torn_at = 1, bad[0]
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
    """A JSON-Lines store, which :meth:`_write` replaces whole. An instance
    must be the file's only writer."""

    def __init__(self, path: str | Path):
        self.path = Path(path)

    def _read(self, convert: Callable[[dict[str, Any]], Any]) -> list[Any]:
        """The file's rows (none when it is missing), each passed through
        *convert* as a JsonlLog reads it: a row *convert* cannot take, or a
        torn last line, is a StoreError naming the file and line."""
        rows: list[Any] = []
        log = JsonlLog(self.path, lambda row: rows.append(convert(row)))
        if log.torn_at:
            raise StoreError(f"{self.path}: line {log.torn_at} is torn")
        return rows

    def _write(self, lines: Iterable[str]) -> None:
        """Replace the file with *lines*, through :func:`replacing`."""
        with replacing(self.path) as fh:
            fh.writelines(line + "\n" for line in lines)


class RunStore(_Store):
    """Store of RunRecords, one JSON object per line; run ids number the
    lines."""

    @staticmethod
    def _line(number: int, record: RunRecord) -> str:
        return _dump({"v": SCHEMA_VERSION, "run_id": f"run-{number:06d}",
                      **record.to_dict()})

    def write(self, records: Iterable[RunRecord]) -> None:
        """Replace the file with *records*, numbered from ``run-000000``."""
        self._write(self._line(i, rec) for i, rec in enumerate(records))

    def read(self) -> list[tuple[str, RunRecord]]:
        return self._read(lambda row: (row["run_id"], RunRecord.from_dict(row)))

    def records(self) -> list[RunRecord]:
        return [rec for _, rec in self.read()]


class DiagnosticsStore(_Store):
    """Mixed store of lexical and geometry reports, tagged by ``kind``."""

    @staticmethod
    def line(kind: str, payload: dict[str, Any]) -> str:
        """The row of one report: *payload*, a report's dict, tagged *kind*."""
        if kind not in ("lexical", "geometry"):
            raise StoreError(f"unknown diagnostics kind {kind!r}")
        return _dump({"v": SCHEMA_VERSION, "kind": kind, **payload})

    def write(self, lines: Iterable[str]) -> None:
        """Replace the file with *lines*, rows made by :meth:`line`, in order."""
        self._write(lines)

    def read(self, convert: Callable[[dict[str, Any]], Any] = lambda row: row) -> list[Any]:
        """The file's rows, each passed through *convert*, as by :meth:`_read`."""
        return self._read(convert)

    def by_kind(self, kind: str) -> list[dict[str, Any]]:
        return [obj for obj in self.read() if obj.get("kind") == kind]
