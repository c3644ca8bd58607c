import json
import math
import random
import threading

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
        store.append(rec)
        (run_id, back), = store.read()
        assert back == rec
        assert run_id == "run-000000"

    def test_distinct_ids_stable_order(self, tmp_path):
        store = RunStore(tmp_path / "runs.jsonl")
        id_a = store.append(_record(1))
        id_b = store.append(_record(2))
        assert id_a != id_b
        rows = store.read()
        assert [rid for rid, _ in rows] == [id_a, id_b]

    def test_thousand_records_all_readable(self, tmp_path):
        store = RunStore(tmp_path / "runs.jsonl")
        for i in range(1000):
            store.append(_record(i))
        assert len(store.read()) == 1000

    def test_concurrent_appends_serialize(self, tmp_path):
        store = RunStore(tmp_path / "runs.jsonl")

        def worker(n):
            for i in range(25):
                store.append(_record(n * 100 + i))

        threads = [threading.Thread(target=worker, args=(n,)) for n in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        rows = store.read()
        assert len(rows) == 100
        assert len({rid for rid, _ in rows}) == 100

    def test_append_to_a_new_path_starts_at_run_000000(self, tmp_path):
        path = tmp_path / "sub" / "runs.jsonl"
        path.parent.mkdir()  # a store's caller makes its directory
        run_id = RunStore(path).append(_record())
        assert run_id == "run-000000"
        assert len(RunStore(path).read()) == 1

    def test_schema_version_on_every_line(self, tmp_path):
        import json
        path = tmp_path / "runs.jsonl"
        RunStore(path).append(_record())
        line = json.loads(path.read_text().splitlines()[0])
        assert line["v"] == 1


class TestDiagnosticsStore:
    def test_kinds_separated(self, tmp_path):
        store = DiagnosticsStore(tmp_path / "diag.jsonl")
        store.append("lexical", {"encoder_id": "e", "h_bits": 1.0})
        store.append("geometry", {"encoder_id": "e", "s_bar": 0.5})
        assert len(store.by_kind("lexical")) == 1
        assert len(store.by_kind("geometry")) == 1
        assert store.by_kind("lexical")[0]["h_bits"] == 1.0


def test_run_ids_continue_across_reopen(tmp_path):
    path = tmp_path / "runs.jsonl"
    first = RunStore(path)
    ids = [first.append(_record(i)) for i in range(3)]
    ids.append(RunStore(path).append(_record(3)))
    reopened = RunStore(path)
    ids += [reopened.append(_record(i)) for i in range(4, 6)]
    assert ids == [f"run-{i:06d}" for i in range(6)]
    assert [rid for rid, _ in RunStore(path).read()] == ids


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
_PIECE = 256  # rows per piece of a curve in json_chunks


def _text(rng: random.Random) -> str:
    return "".join(rng.choice(_CHARS) for _ in range(rng.randrange(6)))


def _number(rng: random.Random, bools: bool = True):
    if bools and rng.random() < 0.05:
        return rng.choice([True, False])  # a bool row takes the generic path
    return rng.choice(_NUMBERS) if rng.random() < 0.5 else rng.uniform(-1e3, 1e3)


def _rows(rng: random.Random, depth: int) -> list:
    if depth == 1 and rng.random() < 0.03:  # longer than one piece of a curve
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


def test_write_json_writes_the_text_and_a_newline(tmp_path):
    obj = {"coverage_cdf": [[1, 0.5], [2, 1.0]], "k80": 2, "arm": "NL-C"}
    (tmp_path / "sub").mkdir()  # the caller makes the directory
    write_json(tmp_path / "sub" / "lexical.json", obj)
    assert (tmp_path / "sub" / "lexical.json").read_text(encoding="utf-8") == \
        json.dumps(obj, sort_keys=True, ensure_ascii=False, indent=1) + "\n"


class TestWholeStoreWrites:
    def test_write_replaces_the_file_and_numbers_from_zero(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        for i in range(3):
            RunStore(path).append(_record(i))
        store = RunStore(path)
        store.write([_record(7), _record(8)])
        assert [rid for rid, _ in store.read()] == ["run-000000", "run-000001"]
        assert store.records() == [_record(7), _record(8)]
        assert store.append(_record(9)) == "run-000002"

    def test_write_matches_appends_byte_for_byte(self, tmp_path):
        appended, written = RunStore(tmp_path / "a.jsonl"), RunStore(tmp_path / "w.jsonl")
        for i in range(3):
            appended.append(_record(i))
        written.write(_record(i) for i in range(3))
        assert written.path.read_bytes() == appended.path.read_bytes()
        da, dw = DiagnosticsStore(tmp_path / "da.jsonl"), DiagnosticsStore(tmp_path / "dw.jsonl")
        reports = [("lexical", {"h_bits": 1.0}), ("geometry", {"s_bar": 0.5})]
        for kind, payload in reports:
            da.append(kind, payload)
        dw.write(reports)
        assert dw.path.read_bytes() == da.path.read_bytes()

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
        store.append("lexical", {"h_bits": 1.0})
        before = store.path.read_bytes()
        with pytest.raises(StoreError, match="unknown diagnostics kind"):
            store.write([("lexical", {}), ("other", {})])
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
    """The stores read and append through JsonlLog, as the caches do."""

    def test_run_store_skips_a_torn_last_line(self, tmp_path):
        store = RunStore(tmp_path / "runs.jsonl")
        store.write([_record(0), _record(1)])
        with open(store.path, "a", encoding="utf-8") as fh:
            fh.write('{"v": 1, "run_id": "run-0000')  # a crash mid-append
        assert store.records() == [_record(0), _record(1)]

    def test_diagnostics_store_skips_a_torn_last_line(self, tmp_path):
        store = DiagnosticsStore(tmp_path / "diag.jsonl")
        store.write([("lexical", {"h_bits": 1.0}), ("geometry", {"s_bar": 0.5})])
        with open(store.path, "a", encoding="utf-8") as fh:
            fh.write('{"kind": "lexi')
        assert [row["kind"] for row in store.read()] == ["lexical", "geometry"]

    def test_append_cuts_the_torn_line_and_numbers_after_the_intact_rows(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        RunStore(path).write([_record(i) for i in range(3)])
        intact = path.read_bytes()
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"v": 1, "run_id": "run-0000')
        store = RunStore(path)
        assert store.append(_record(3)) == "run-000003"
        assert path.read_bytes().startswith(intact)
        assert [rid for rid, _ in RunStore(path).read()] == \
            [f"run-{i:06d}" for i in range(4)]

    @pytest.mark.parametrize("store_class", [RunStore, DiagnosticsStore])
    def test_a_malformed_inner_line_is_a_store_error(self, tmp_path, store_class):
        store = store_class(tmp_path / "store.jsonl")
        row = (RunStore._line(0, _record()) if store_class is RunStore
               else DiagnosticsStore._line("lexical", {}))  # rows each store reads
        store.path.write_text(f'{row}\n{{"v": 1,\n{row}\n', encoding="utf-8")
        with pytest.raises(StoreError, match="line 2 is malformed"):
            list(store.read())
