import threading

import pytest

from rewritebench.errors import StoreError
from rewritebench.models import Regime, RewritePlan, RunRecord, Strategy
from rewritebench.stores import DiagnosticsStore, JsonlLog, RunStore, persist_run


def _record(i: int = 0) -> RunRecord:
    return RunRecord(
        encoder_id="enc", task_id="task",
        plan=RewritePlan(strategy=Strategy.NL, regime=Regime.QC, rewriter_id="rw"),
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

    def test_persist_run_helper(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        run_id = persist_run(_record(), path)
        assert run_id == "run-000000"
        assert len(RunStore(path).read()) == 1

    def test_schema_version_on_every_line(self, tmp_path):
        import json
        path = tmp_path / "runs.jsonl"
        persist_run(_record(), path)
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
    ids.append(persist_run(_record(3), path))
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

    def test_malformed_inner_line_raises(self, tmp_path):
        path = tmp_path / "x.jsonl"
        path.write_text('{"a": 1}\n{"b"\n\n{"c": 3}\n', encoding="utf-8")
        with pytest.raises(StoreError, match="line 2"):
            _load(path)
        assert path.read_text(encoding="utf-8") == '{"a": 1}\n{"b"\n\n{"c": 3}\n'
