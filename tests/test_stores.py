import ast
import json
import math
import random
from pathlib import Path

import pytest

from conftest import open_failing_writes
from rewritebench import stores
from rewritebench.errors import StoreError
from rewritebench.models import CellKey, Regime, RunRecord, Strategy
from rewritebench.stores import DiagnosticsStore, JsonlLog, RunStore, json_chunks, write_json


def _record(i: int = 0) -> RunRecord:
    return RunRecord(
        plan=CellKey(encoder_id="enc", task_id="task", rewriter_id="rw",
                     strategy=Strategy.NL, regime=Regime.QC),
        ndcg_per_query={"q1": 0.25 + i * 1e-6, "q2": 0.75},
        mean_ndcg=(0.25 + i * 1e-6 + 0.75) / 2)


class TestRunStore:
    def test_roundtrip_is_identity(self, tmp_path):
        store = RunStore(tmp_path / "runs.jsonl")
        rec = _record()
        store.write([rec])
        (run_id, back), = store.read()
        assert back == rec
        assert run_id == "run-000000"

    def test_distinct_ids_stable_order(self, tmp_path):
        store = RunStore(tmp_path / "runs.jsonl")
        store.write([_record(1), _record(2)])
        rows = store.read()
        assert [rid for rid, _ in rows] == ["run-000000", "run-000001"]
        assert [rec for _, rec in rows] == [_record(1), _record(2)]

    def test_thousand_records_all_readable(self, tmp_path):
        store = RunStore(tmp_path / "runs.jsonl")
        store.write(_record(i) for i in range(1000))
        assert len(store.read()) == 1000

    def test_write_to_a_new_path_starts_at_run_000000(self, tmp_path):
        path = tmp_path / "sub" / "runs.jsonl"  # the write makes the directory
        RunStore(path).write([_record()])
        assert [rid for rid, _ in RunStore(path).read()] == ["run-000000"]

    def test_schema_version_on_every_line(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        RunStore(path).write([_record(0), _record(1)])
        assert [json.loads(line)["v"] for line in path.read_text().splitlines()] == [1, 1]


class TestDiagnosticsStore:
    def test_kinds_separated(self, tmp_path):
        store = DiagnosticsStore(tmp_path / "diag.jsonl")
        store.write([DiagnosticsStore.line("lexical", {"encoder_id": "e", "h_bits": 1.0}),
                     DiagnosticsStore.line("geometry", {"encoder_id": "e", "s_bar": 0.5})])
        assert len(store.by_kind("lexical")) == 1
        assert len(store.by_kind("geometry")) == 1
        assert store.by_kind("lexical")[0]["h_bits"] == 1.0


def _load(path):
    rows = []
    log = JsonlLog(path, rows.append)
    return rows, log


class TestJsonlLog:
    def test_missing_file_is_empty(self, tmp_path):
        rows, log = _load(tmp_path / "none.jsonl")
        assert (rows, log.torn_lines) == ([], 0)
        assert not (tmp_path / "none.jsonl").exists()
        log.append('{"a": 1}')
        log.close()
        assert (tmp_path / "none.jsonl").read_text(encoding="utf-8") == '{"a": 1}\n'

    def test_torn_tail_is_skipped_then_cut_on_first_append(self, tmp_path):
        path = tmp_path / "x.jsonl"
        torn = '{"a": "é"}\n\n{"b": 2}\r\n{"c": "✓'.encode()[:-1] + b"\n\n"
        path.write_bytes(torn)
        rows, log = _load(path)
        assert (rows, log.torn_lines) == ([{"a": "é"}, {"b": 2}], 1)
        assert path.read_bytes() == torn  # opening only reads
        log.append('{"d": 4}')
        log.append('{"e": 5}')
        log.close()
        assert path.read_bytes() == '{"a": "é"}\n\n{"b": 2}\r\n{"d": 4}\n{"e": 5}\n'.encode()
        rows, log = _load(path)
        assert (len(rows), log.torn_lines) == (4, 0)

    def test_missing_final_newline_is_added_on_first_append(self, tmp_path):
        path = tmp_path / "x.jsonl"
        path.write_text('{"a": 1}\n{"b": 2}', encoding="utf-8")
        rows, log = _load(path)
        assert (rows, log.torn_lines) == ([{"a": 1}, {"b": 2}], 0)
        assert path.read_text(encoding="utf-8") == '{"a": 1}\n{"b": 2}'
        log.append('{"c": 3}')
        log.close()
        assert _load(path)[0] == [{"a": 1}, {"b": 2}, {"c": 3}]

    def test_repair_refuses_a_file_changed_since_read(self, tmp_path):
        path = tmp_path / "x.jsonl"
        path.write_text('{"a": 1}\n{"b"', encoding="utf-8")
        _, log = _load(path)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(': 2}\n')  # another writer finishes its line
        with pytest.raises(StoreError, match="changed since it was read"):
            log.append('{"c": 3}')
        assert path.read_text(encoding="utf-8") == '{"a": 1}\n{"b": 2}\n'

    def test_append_failure_is_a_store_error(self, tmp_path):
        path = tmp_path / "x.jsonl"
        path.write_text('{"a": 1}\n', encoding="utf-8")
        _, log = _load(path)
        path.unlink()
        path.mkdir()  # the path now names a directory
        with pytest.raises(StoreError, match="cannot append"):
            log.append('{"b": 2}')

    def test_a_failed_append_drops_the_handle_and_the_next_reopens_it(self, tmp_path,
                                                                       monkeypatch):
        path = tmp_path / "x.jsonl"
        _, log = _load(path)
        opened = open_failing_writes(monkeypatch)
        log.append('{"a": 1}')
        log.append('{"b": 2}')
        assert len(opened) == 1  # one handle for both appends
        opened[0].failing = True
        with pytest.raises(StoreError, match="cannot append"):
            log.append('{"c": 3}')
        assert opened[0].closed
        log.append('{"d": 4}')
        assert len(opened) == 2 and not opened[1].closed
        assert path.read_text(encoding="utf-8") == '{"a": 1}\n{"b": 2}\n{"d": 4}\n'
        log.close()
        assert opened[1].closed

    def test_a_failed_append_leaves_the_file_as_it_was(self, tmp_path, monkeypatch):
        path = tmp_path / "x.jsonl"
        _, log = _load(path)
        opened = open_failing_writes(monkeypatch)
        log.append('{"a": 1}')
        opened[0].failing, opened[0].prefix = True, 5  # the disk fills mid-line
        with pytest.raises(StoreError, match="No space left"):
            log.append('{"b": 2}')
        assert path.read_bytes() == b'{"a": 1}\n'
        log.append('{"c": 3}')
        log.close()
        assert path.read_bytes() == b'{"a": 1}\n{"c": 3}\n'
        assert _load(path)[0] == [{"a": 1}, {"c": 3}]

    def test_malformed_inner_line_raises(self, tmp_path):
        path = tmp_path / "x.jsonl"
        path.write_text('{"a": 1}\n{"b"\n\n{"c": 3}\n', encoding="utf-8")
        with pytest.raises(StoreError, match="line 2"):
            _load(path)
        assert path.read_text(encoding="utf-8") == '{"a": 1}\n{"b"\n\n{"c": 3}\n'


# characters that a re-indenting writer could mistake for structure
_CHARS = ['[', ']', ',', ':', '"', '\\', '\n', ' ', '\t', '\x00', 'a', 'Z', '0',
          '\u00e9', '\u65e5', '\u2028', '\U0001f600']
_NUMBERS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 1.0, 0.1, 1e300, 5e-324,
            2 ** 70, -(2 ** 64), 0, 7]
_PIECE = 256  # long curves have _PIECE - 1 to 2 * _PIECE + 3 rows


def _text(rng: random.Random) -> str:
    return "".join(rng.choice(_CHARS) for _ in range(rng.randrange(6)))


def _number(rng: random.Random, bools: bool = True):
    if bools and rng.random() < 0.05:
        return rng.choice([True, False])  # a bool row takes the generic path
    return rng.choice(_NUMBERS) if rng.random() < 0.5 else rng.uniform(-1e3, 1e3)


def _rows(rng: random.Random, depth: int) -> list:
    if depth == 1 and rng.random() < 0.03:  # a long curve, as a large corpus gives
        n = rng.choice([_PIECE - 1, _PIECE, _PIECE + 1, 2 * _PIECE + 3])
        return [[_number(rng, bools=False) for _ in range(rng.randrange(1, 3))]
                for _ in range(n)]
    return [[_number(rng) for _ in range(rng.randrange(1, 4))]
            for _ in range(rng.randrange(1, 5))]


def _value(rng: random.Random, depth: int):
    kind = rng.randrange(9 if depth < 3 else 3)
    if kind == 0:
        return _number(rng)
    if kind == 1:
        return _text(rng)
    if kind == 2:
        return rng.choice([None, [], {}, [[]], [[], [1]]])
    if kind in (3, 4):
        return _rows(rng, depth)  # numeric rows below the top level, too
    if kind in (5, 6):
        return [_value(rng, depth + 1) for _ in range(rng.randrange(4))]
    return {_text(rng): _value(rng, depth + 1) for _ in range(rng.randrange(4))}


def _document(rng: random.Random):
    kind = rng.randrange(10)
    if kind == 0:
        return _value(rng, 0)
    if kind == 1:
        return {rng.randrange(9): _value(rng, 1) for _ in range(rng.randrange(4))}
    return {_text(rng): _value(rng, 1) for _ in range(rng.randrange(6))}


def test_json_chunks_equal_json_dumps_on_random_documents():
    rng = random.Random(20261018)
    curves = long_curves = 0
    for _ in range(12000):
        obj = _document(rng)
        if isinstance(obj, dict):
            rows = [v for v in obj.values() if isinstance(v, list) and v
                    and all(isinstance(r, list) and r for r in v)]
            curves += bool(rows)
            long_curves += any(len(v) > _PIECE for v in rows)
        want = json.dumps(obj, sort_keys=True, ensure_ascii=False, indent=1)
        assert "".join(json_chunks(obj)) == want, obj
    assert curves > 2000 and long_curves > 50


def _curve(rng: random.Random) -> list[tuple[int, float]]:
    """(rank, fraction) points: an int and a finite float each, one to
    2 * _PIECE + 3 of them, as a large corpus gives."""
    ints = [0, 7, 2 ** 70, -(2 ** 64)]
    floats = [f for f in _NUMBERS if isinstance(f, float) and math.isfinite(f)]
    n = rng.choice([1, 2, 5, _PIECE - 1, _PIECE, 2 * _PIECE + 3])
    return [(rng.choice(ints) if rng.random() < 0.1 else k,
             rng.choice(floats) if rng.random() < 0.3 else rng.uniform(-1e3, 1e3))
            for k in range(1, n + 1)]


def test_encoded_values_give_the_text_of_the_values():
    # Encoded holds a curve's points; the text must be that of the rows
    rng = random.Random(20261020)
    encoded = 0
    for _ in range(3000):
        obj = _document(rng)
        if not (isinstance(obj, dict) and all(isinstance(k, str) for k in obj)):
            continue
        mixed = dict(obj)
        for key in obj:
            if rng.random() < 0.5:
                points = _curve(rng)
                obj[key], mixed[key] = [list(p) for p in points], stores.Encoded(points)
        encoded += any(type(v) is stores.Encoded for v in mixed.values())
        assert "".join(json_chunks(mixed)) == \
            json.dumps(obj, sort_keys=True, ensure_ascii=False, indent=1), obj
        assert stores._dump(mixed) == json.dumps(obj, sort_keys=True, ensure_ascii=False), obj
    assert encoded > 1000


_LINES = [
    '{"a": 1}\n', '{"a": 1}', '[1, "x", null]\n', '"s"\n', '7\n',
    '{"a": 1}{"b": 2}\n', '{"a": 1} {"b": 2}\n', '{"a": 1} x\n', '1 2\n', '{"a": 1},\n',
    ' {"a": 1}\n', '\t\r\n{"a": 1}\n', '{"a": 1} \t \r\n', '{"a": 1}\r\n', '{"a": 1}\r',
    '{"a": 1}\x0c\n', '\x0c{"a": 1}\n', '{"a": 1}\u2028\n', '\u00a0{"a": 1}\n',
    '{"a": NaN, "b": Infinity, "c": -Infinity}\n', 'NaN\n', '{"a": nan}\n',
    '\ufeff{"a": 1}\n', '\ufeff\n',
    '{"a": \n', '{"a": 1\n', '{"a": "\udcff\udcfe"}\n', '{"a": "x\\ud800"}\n',
    '\n', '   \n', '', '{"a": "tab\there"}\n', '{"a": 1, "a": 2}\n',
]


def _outcome(decode, line):
    try:
        return "value", repr(decode(line))
    except ValueError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("line", _LINES)
def test_decode_line_accepts_what_json_loads_accepts(line):
    assert _outcome(stores.decode_line, line) == _outcome(json.loads, line)


@pytest.mark.parametrize("text, outcome", [
    ('{"a": 1}{"b": 2}\n{"c": 3}\n', "line 1 is malformed"),
    ('{"a": 1}\n{"b": 2} trailing\n{"c": 3}\n', "line 2 is malformed"),
    ('{"a": 1}\n{"b": 2}{"c": 3}\n', (1, 1)),  # two objects on the last line: torn
    (' {"a": 1}\n{"b": NaN}\t\n{"c": Infinity} \r\n', (3, 0)),
    ('\ufeff{"a": 1}\n{"b": 2}\n', "line 1 is malformed"),
    ('\ufeff{"a": 1}\n', (0, 1)),
    ('{"a": 1}\r\n{"b": 2}\r\n', (2, 0)),
    ('{"a": 1}\r\n{"b": 2}', (2, 0)),
    ('{"a": 1}\n{"b": ', (1, 1)),
    ('{"a": 1}\n{"b": \n\n  \r\n', (1, 1)),
    ('{"a": 1}\n{"b": 2\n\n{"c": 3}\n', "line 2 is malformed"),
    ('{"a": 1}\n\n{"b": 2}\n\n', (2, 0)),
])
def test_a_log_reads_and_repairs_as_json_loads_would(tmp_path, monkeypatch, text, outcome):
    def run(name, decode):
        monkeypatch.setattr(stores, "decode_line", decode)
        path = tmp_path / name
        path.write_bytes(text.encode("utf-8"))
        rows = []
        try:
            log = JsonlLog(path, rows.append)
        except StoreError as exc:
            return str(exc).replace(str(path), "<path>")
        log.append('{"z": 1}')
        log.close()
        return (len(rows), log.torn_lines), repr(rows), path.read_bytes()

    new = run("new.jsonl", stores.decode_line)
    assert new == run("old.jsonl", json.loads)
    if isinstance(outcome, str):
        assert outcome in new
    else:
        assert new[0] == outcome
        assert new[2].endswith(b'{"z": 1}\n')


def test_write_json_writes_the_text_and_a_newline(tmp_path):
    obj = {"coverage_cdf": [[1, 0.5], [2, 1.0]], "k80": 2, "arm": "NL-C"}
    write_json(tmp_path / "sub" / "lexical.json", obj)
    assert (tmp_path / "sub" / "lexical.json").read_text(encoding="utf-8") == \
        json.dumps(obj, sort_keys=True, ensure_ascii=False, indent=1) + "\n"


class TestWholeStoreWrites:
    def test_write_replaces_the_file_and_numbers_from_zero(self, tmp_path):
        store = RunStore(tmp_path / "runs.jsonl")
        store.write(_record(i) for i in range(3))
        store.write([_record(7), _record(8)])
        assert [rid for rid, _ in store.read()] == ["run-000000", "run-000001"]
        assert store.records() == [_record(7), _record(8)]

    def test_write_matches_appends_byte_for_byte(self, tmp_path):
        # a store holds the lines a JSON-Lines log appends of its sorted-key rows
        def appended(name, rows):
            log = JsonlLog(tmp_path / name, lambda row: None)
            log.append_many(json.dumps(row, sort_keys=True, ensure_ascii=False) for row in rows)
            log.close()
            return (tmp_path / name).read_bytes()

        written = RunStore(tmp_path / "w.jsonl")
        written.write(_record(i) for i in range(3))
        assert written.path.read_bytes() == appended("a.jsonl", [
            {"v": 1, "run_id": f"run-{i:06d}", **_record(i).to_dict()} for i in range(3)])
        dw = DiagnosticsStore(tmp_path / "dw.jsonl")
        reports = [("lexical", {"h_bits": 1.0}), ("geometry", {"s_bar": 0.5})]
        dw.write(DiagnosticsStore.line(kind, payload) for kind, payload in reports)
        assert dw.path.read_bytes() == appended("da.jsonl", [
            {"v": 1, "kind": kind, **payload} for kind, payload in reports])

    def test_failed_write_leaves_the_old_store_and_no_temporary_file(self, tmp_path,
                                                                     monkeypatch):
        store = RunStore(tmp_path / "runs.jsonl")
        store.write([_record(1), _record(2)])
        before = store.path.read_bytes()

        class FailingWrites:
            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                self.fh.close()

            def writelines(self, lines):
                self.fh.write(next(iter(lines)))
                raise OSError("disk full")

        real_open = open
        monkeypatch.setattr(stores, "open", lambda *args, **kwargs:
                            FailingWrites(real_open(*args, **kwargs)), raising=False)
        with pytest.raises(StoreError, match="disk full"):
            store.write([_record(3), _record(4)])
        monkeypatch.undo()
        assert store.path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["runs.jsonl"]

    def test_write_rejects_an_unknown_kind_before_touching_the_file(self, tmp_path):
        store = DiagnosticsStore(tmp_path / "diag.jsonl")
        store.write([DiagnosticsStore.line("lexical", {"h_bits": 1.0})])
        before = store.path.read_bytes()
        with pytest.raises(StoreError, match="unknown diagnostics kind"):
            store.write(DiagnosticsStore.line(kind, {}) for kind in ("lexical", "other"))
        assert store.path.read_bytes() == before


def test_append_many_equals_appends_and_repairs_a_torn_tail(tmp_path):
    one, many = tmp_path / "one.jsonl", tmp_path / "many.jsonl"
    for path in (one, many):
        path.write_text('{"a": 1}\n{"a": ', encoding="utf-8")
    rows, log = _load(one)
    for i in range(3):
        log.append(json.dumps({"b": i}))
    log.close()
    rows, log = _load(many)
    log.append_many(json.dumps({"b": i}) for i in range(3))
    log.close()
    assert many.read_bytes() == one.read_bytes() == b'{"a": 1}\n{"b": 0}\n{"b": 1}\n{"b": 2}\n'


class TestTornStores:
    """The stores read through JsonlLog, as the caches do, but nothing
    appends to a store: a torn last line is damage, not a crash mid-append."""

    def test_run_store_rejects_a_torn_last_line(self, tmp_path):
        store = RunStore(tmp_path / "runs.jsonl")
        store.write([_record(0), _record(1)])
        with open(store.path, "a", encoding="utf-8") as fh:
            fh.write('{"v": 1, "run_id": "run-0000')
        with pytest.raises(StoreError, match=r"runs\.jsonl: line 3 is torn$"):
            store.records()

    def test_diagnostics_store_rejects_a_torn_last_line(self, tmp_path):
        store = DiagnosticsStore(tmp_path / "diag.jsonl")
        store.write([DiagnosticsStore.line("lexical", {"h_bits": 1.0}),
                     DiagnosticsStore.line("geometry", {"s_bar": 0.5})])
        with open(store.path, "a", encoding="utf-8") as fh:
            fh.write('\n{"kind": "lexi\n\n')  # a blank line either side
        with pytest.raises(StoreError, match=r"diag\.jsonl: line 4 is torn$"):
            store.read()

    @pytest.mark.parametrize("store_class", [RunStore, DiagnosticsStore])
    def test_a_malformed_inner_line_is_a_store_error(self, tmp_path, store_class):
        store = store_class(tmp_path / "store.jsonl")
        row = (RunStore._line(0, _record()) if store_class is RunStore
               else DiagnosticsStore.line("lexical", {}))  # rows each store reads
        store.path.write_text(f'{row}\n{{"v": 1,\n{row}\n', encoding="utf-8")
        with pytest.raises(StoreError, match="line 2 is malformed"):
            list(store.read())


class TestReplacing:
    def test_a_clean_exit_replaces_the_file_and_makes_its_directory(self, tmp_path):
        path = tmp_path / "sub" / "a.csv"
        for text in ("old\r\n", "new\n"):
            with stores.replacing(path) as fh:
                fh.write(text)
        assert path.read_bytes() == b"new\n"  # no newline translation
        assert [p.name for p in path.parent.iterdir()] == ["a.csv"]

    @pytest.mark.parametrize("error, raised", [(RuntimeError, RuntimeError),
                                               (OSError, StoreError),
                                               (KeyboardInterrupt, KeyboardInterrupt)])
    def test_a_block_that_raises_leaves_the_old_file(self, tmp_path, error, raised):
        path = tmp_path / "a.json"
        path.write_text("old\n", encoding="utf-8")
        with pytest.raises(raised) as info:
            with stores.replacing(path) as fh:
                fh.write("half")
                raise error("cut off")
        assert path.read_text(encoding="utf-8") == "old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["a.json"]
        if raised is StoreError:
            assert str(info.value) == f"cannot write {path}: cut off"

    def test_a_directory_in_the_way_is_a_store_error_naming_the_file(self, tmp_path):
        (tmp_path / "a.json").mkdir()
        with pytest.raises(StoreError, match=f"cannot write {tmp_path / 'a.json'}: "):
            with stores.replacing(tmp_path / "a.json") as fh:
                fh.write("{}")
        assert [p.name for p in tmp_path.iterdir()] == ["a.json"]


def test_only_stores_writes_files():
    """Every file is created through ``stores``: no other module opens a
    file to write it, makes a directory or replaces a file."""
    package = Path(stores.__file__).parent
    found = []
    for path in sorted(package.glob("*.py")):
        if path.name == "stores.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
            if name == "open":  # open(file, mode) or path.open(mode)
                at = 0 if isinstance(func, ast.Attribute) else 1
                mode = node.args[at] if len(node.args) > at else next(
                    (kw.value for kw in node.keywords if kw.arg == "mode"), None)
                writes = mode is not None and not (
                    isinstance(mode, ast.Constant) and not set(str(mode.value)) & set("wax+"))
            else:
                writes = name in ("mkdir", "write_text", "write_bytes") or (
                    name == "replace" and getattr(getattr(func, "value", None), "id", "") == "os")
            if writes:
                found.append(f"{path.name}:{node.lineno} {name}")
    assert found == []
