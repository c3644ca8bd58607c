import builtins
import gc
import json
import re
import shutil
import sys
import threading
import traceback
import weakref
from collections import Counter
from pathlib import Path

import pytest

from conftest import TOY_DOCS, TOY_QUERIES, write_matrix_config
from rewritebench import matrix, rewrite
from rewritebench.cli import main
from rewritebench.config import load_config
from rewritebench.embed import EncoderClient
from rewritebench.errors import ConfigError, EndpointError, WorkbenchError
from rewritebench.matrix import CellKey, plan_cells, run_matrix
from rewritebench.models import Regime, Strategy
from rewritebench.stores import RunStore


def tree_bytes(root: Path, mask_timestamps: bool = False) -> dict[str, bytes]:
    tree = {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}
    if mask_timestamps:  # the clock that stamps each fresh rewrite
        tree = {name: re.sub(rb'"timestamp": "[^"]*"', b'"timestamp": ""', data)
                for name, data in tree.items()}
    return tree


class TestPlanCells:
    def test_one_by_one_matrix(self, tmp_path):
        cfg = load_config(write_matrix_config(tmp_path))
        cells = plan_cells(cfg)
        assert len(cells) == 2  # baseline + NL-QC
        assert cells[0].is_baseline
        assert cells[1].strategy is Strategy.NL

    def test_paper_shaped_arithmetic(self, tmp_path):
        # 5 encoders x 6 tasks x 3 strategies x 2 regimes -> 180 arms + 30 baselines
        encoders = [{"encoder_id": f"e{i}", "url": "mock://bow?dim=16",
                     "tokenizer": {"kind": "word"}} for i in range(5)]
        tasks = []
        for i in range(6):
            tasks.append({"task_id": f"t{i}", "family": "CodeToCode",
                          "corpus": "corpus.jsonl", "queries": "queries.jsonl",
                          "qrels": "qrels.tsv"})
        cfg = load_config(write_matrix_config(
            tmp_path, encoders=encoders,
            strategies=("Rephrase", "Pseudo", "NL"), regimes=("QC", "C"),
            extra={"tasks": tasks}))
        cells = plan_cells(cfg)
        assert sum(1 for c in cells if not c.is_baseline) == 180
        assert sum(1 for c in cells if c.is_baseline) == 30


class TestRunMatrix:
    def test_minimal_matrix_two_records(self, tmp_path):
        cfg = load_config(write_matrix_config(tmp_path))
        result = run_matrix(cfg)
        assert result.exit_status == 0
        records = RunStore(cfg.out_dir / "runs.jsonl").records()
        assert len(records) == 2
        arms = [r.plan.arm_label for r in records]
        assert arms == ["Baseline", "NL-QC"]

    def test_full_offline_matrix(self, tmp_path):
        cfg = load_config(write_matrix_config(
            tmp_path, strategies=("Rephrase", "Pseudo", "NL"),
            regimes=("QC", "C")))
        result = run_matrix(cfg)
        assert result.exit_status == 0
        records = RunStore(cfg.out_dir / "runs.jsonl").records()
        assert len(records) == 1 + 3 * 2
        # identity rewriting: every arm matches baseline
        base = next(r for r in records if r.plan.is_baseline)
        for r in records:
            if not r.plan.is_baseline:
                assert r.mean_ndcg == base.mean_ndcg
                assert r.delta_ndcg == 0.0

    def test_cell_artifacts_on_disk(self, tmp_path):
        cfg = load_config(write_matrix_config(tmp_path))
        run_matrix(cfg)
        cell_dir = cfg.out_dir / "cells" / "bow__toy__ident__NL__QC"
        assert (cell_dir / "record.json").exists()
        assert (cell_dir / "lexical.json").exists()
        assert (cell_dir / "geometry.json").exists()
        assert (cell_dir / "rewrites.jsonl").exists()
        lex = json.loads((cell_dir / "lexical.json").read_text())
        assert lex["delta_h_bits"] == 0.0

    def test_summary_lists_cells(self, tmp_path):
        cfg = load_config(write_matrix_config(tmp_path))
        run_matrix(cfg)
        summary = json.loads((cfg.out_dir / "summary.json").read_text())
        assert summary["n_cells"] == 2
        assert summary["failures"] == {}
        assert summary["config_hash"] == cfg.config_hash

    def test_idempotent_under_warm_caches(self, tmp_path):
        path = write_matrix_config(tmp_path)
        cfg1 = load_config(path, out_dir=str(tmp_path / "out1"))
        first = run_matrix(cfg1)
        assert any(first.endpoint_calls.values())
        cfg2 = load_config(path, out_dir=str(tmp_path / "out2"))
        second = run_matrix(cfg2)
        # warm caches: zero endpoint traffic, byte-identical artifacts
        assert all(v == 0 for v in second.endpoint_calls.values())
        a, b = tree_bytes(tmp_path / "out1"), tree_bytes(tmp_path / "out2")
        assert a == b

    def test_rerun_into_one_out_dir_rewrites_the_stores(self, tmp_path):
        cfg = load_config(write_matrix_config(tmp_path, regimes=("QC", "C")))
        run_matrix(cfg)
        first = tree_bytes(cfg.out_dir)
        run_matrix(cfg)
        assert tree_bytes(cfg.out_dir) == first
        rows = RunStore(cfg.out_dir / "runs.jsonl").read()
        assert [run_id for run_id, _ in rows] == ["run-000000", "run-000001",
                                                  "run-000002"]

    def test_group_encodes_each_shared_record_once(self, tmp_path, monkeypatch):
        cfg = load_config(write_matrix_config(tmp_path, regimes=("QC", "C")))
        run_matrix(cfg)  # warms the caches: the rerun is what is counted
        encoded = []
        record_bodies = rewrite.Rewritten.record_bodies

        def spy(done):
            for body in record_bodies(done):
                encoded.append(body)
                yield body

        monkeypatch.setattr(rewrite.Rewritten, "record_bodies", spy)
        run_matrix(cfg)
        # QC writes the corpus and query records, C the same corpus records
        assert len(encoded) == len(TOY_DOCS) + len(TOY_QUERIES)
        assert len(set(encoded)) == len(encoded)
        qc = cfg.out_dir / "cells" / "bow__toy__ident__NL__QC" / "rewrites.jsonl"
        c = cfg.out_dir / "cells" / "bow__toy__ident__NL__C" / "rewrites.jsonl"
        corpus = qc.read_text().splitlines()[:len(TOY_DOCS)]
        assert [line.replace('"NL-QC"', '"NL-C"', 1) for line in corpus] == \
            c.read_text().splitlines()

    def test_each_cell_writes_the_records_of_its_own_sides(self, tmp_path):
        cfg = load_config(write_matrix_config(tmp_path, strategies=("Rephrase", "NL"),
                                              regimes=("QC", "C")))
        assert run_matrix(cfg).exit_status == 0
        for cell in plan_cells(cfg):
            path = cfg.out_dir / "cells" / cell.cell_id / "rewrites.jsonl"
            if cell.is_baseline:
                assert not path.exists()
                continue
            rows = [json.loads(line) for line in path.read_text().splitlines()]
            queries = TOY_QUERIES if cell.regime is Regime.QC else []
            assert [row["source_id"] for row in rows] == \
                [item["_id"] for item in TOY_DOCS + queries]
            assert {(row["arm"], row["template_id"]) for row in rows} == {
                (f"{cell.strategy.value}-{cell.regime.value}",
                 f"identity-{cell.strategy.value.lower()}-codetocode")}

    def test_parallel_run_matches_serial(self, tmp_path):
        # each pass starts from its own empty cache
        strategies = ("Rephrase", "NL")
        path = write_matrix_config(tmp_path, strategies=strategies,
                                   regimes=("QC", "C"))
        # the identity templates of both strategies render one prompt per text
        prompts = {row["text"] for row in TOY_DOCS + TOY_QUERIES}
        trees, encoder_calls = {}, set()
        for parallelism in (1, 2, 4):
            cfg = load_config(path, out_dir=str(tmp_path / f"out{parallelism}"),
                              cache_dir=str(tmp_path / f"cache{parallelism}"))
            cfg.parallelism = parallelism
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)  # interleave the pool's threads finely
            try:
                result = run_matrix(cfg)
            finally:
                sys.setswitchinterval(interval)
            assert result.exit_status == 0
            assert result.endpoint_calls["rewriter:ident"] == len(prompts)
            encoder_calls.add(result.endpoint_calls["encoder:bow"])
            trees[parallelism] = (tree_bytes(tmp_path / f"out{parallelism}", True),
                                  tree_bytes(tmp_path / f"cache{parallelism}", True))
        assert len(encoder_calls) == 1
        assert trees[1] == trees[2] == trees[4]


class TestFaultIsolation:
    def test_failing_cell_reported_others_untouched(self, tmp_path):
        encoders = [{"encoder_id": "bow", "url": "mock://bow?dim=128",
                     "tokenizer": {"kind": "word"}},
                    {"encoder_id": "hash", "url": "mock://hash?dim=32",
                     "tokenizer": {"kind": "word"}}]
        path = write_matrix_config(tmp_path, encoders=encoders)

        clean_cfg = load_config(path, out_dir=str(tmp_path / "clean"))
        clean = run_matrix(clean_cfg)
        assert clean.exit_status == 0

        target = CellKey(encoder_id="hash", task_id="toy", rewriter_id="ident",
                         strategy=Strategy.NL, regime=Regime.QC)

        faulty_cfg = load_config(path, out_dir=str(tmp_path / "faulty"))
        from rewritebench.errors import EndpointError, WorkbenchError

        def wb_hook(cell):
            if cell == target:
                raise WorkbenchError("injected fault")

        faulty = run_matrix(faulty_cfg, fault_hook=wb_hook)
        assert faulty.exit_status == 1
        assert list(faulty.failures) == [target]
        assert "injected fault" in faulty.failures[target]

        # every other cell's artifacts are byte-identical to the clean run
        clean_cells = tree_bytes(tmp_path / "clean" / "cells")
        faulty_cells = tree_bytes(tmp_path / "faulty" / "cells")
        missing = set(clean_cells) - set(faulty_cells)
        assert all(p.startswith(target.cell_id) for p in missing)
        for p, data in faulty_cells.items():
            assert clean_cells[p] == data

    def test_dead_encoder_is_asked_once_per_run(self, tmp_path):
        # one batch's retries, not one more round per corpus group
        encoders = [{"encoder_id": "bow", "url": "mock://bow?dim=16",
                     "tokenizer": {"kind": "word"}},
                    {"encoder_id": "dead", "url": "mock://fail", "retries": 2,
                     "tokenizer": {"kind": "word"}}]
        cfg = load_config(write_matrix_config(
            tmp_path, encoders=encoders, strategies=("Rephrase", "Pseudo", "NL"),
            regimes=("QC", "C")))
        result = run_matrix(cfg)
        assert result.endpoint_calls["encoder:dead"] == 3
        dead = {cell for cell in plan_cells(cfg) if cell.encoder_id == "dead"}
        assert len(dead) == 7 and set(result.failures) == dead
        assert all("failed after 3 attempts" in msg for msg in result.failures.values())
        assert set(result.results) == set(plan_cells(cfg)) - dead

    def test_failed_rerun_removes_the_cells_earlier_files(self, tmp_path):
        path = write_matrix_config(tmp_path, regimes=("QC", "C"))
        cfg = load_config(path)
        assert run_matrix(cfg).exit_status == 0
        c_cell = CellKey(encoder_id="bow", task_id="toy", rewriter_id="ident",
                         strategy=Strategy.NL, regime=Regime.C)
        assert (cfg.out_dir / "cells" / c_cell.cell_id / "rewrites.jsonl").exists()

        def hook(cell):
            if cell == c_cell:
                raise WorkbenchError("injected fault")

        assert list(run_matrix(cfg, fault_hook=hook).failures) == [c_cell]
        assert not (cfg.out_dir / "cells" / c_cell.cell_id).exists()
        # audit samples every record it finds: the QC cell's alone
        assert main(["--config", str(path), "audit", "--task", "toy",
                     "--sample-size", "100"]) == 0
        bundle = json.loads((cfg.out_dir / "audit.json").read_text())
        assert len(bundle) == len(TOY_DOCS) + len(TOY_QUERIES)
        assert {item["arm"] for item in bundle} == {"NL-QC"}

    def test_baseline_failure_leaves_arm_without_delta(self, tmp_path):
        path = write_matrix_config(tmp_path)
        cfg = load_config(path)
        from rewritebench.errors import EndpointError, WorkbenchError

        def hook(cell: CellKey):
            if cell.is_baseline:
                raise WorkbenchError("baseline down")

        result = run_matrix(cfg, fault_hook=hook)
        assert result.exit_status == 1
        records = RunStore(cfg.out_dir / "runs.jsonl").records()
        assert len(records) == 1
        assert records[0].plan.arm_label == "NL-QC"
        assert records[0].delta_ndcg is None  # gap, not fabricated

    def test_broken_task_fails_all_its_cells(self, tmp_path):
        for name, qrels in (("malformed", "q1\td1\tnot_a_number\n"), ("missing", None)):
            path = write_matrix_config(tmp_path / name)
            if qrels is None:
                (tmp_path / name / "qrels.tsv").unlink()
            else:
                (tmp_path / name / "qrels.tsv").write_text(qrels, encoding="utf-8")
            result = run_matrix(load_config(path))
            assert result.exit_status == 1
            assert len(result.failures) == 2
            assert all(msg.startswith("task ingest failed: ")
                       and str(tmp_path / name / "qrels.tsv") in msg
                       for msg in result.failures.values())

    def test_a_task_whose_text_does_not_encode_fails_all_its_cells(self, tmp_path):
        # a "\ud800" escape is a lone surrogate: refused at ingest, it reaches
        # no hash, no cache and no cell file
        path = write_matrix_config(tmp_path)
        corpus = tmp_path / "corpus.jsonl"
        with corpus.open("a", encoding="utf-8") as fh:
            fh.write(json.dumps({"_id": "d9", "text": "def f(): \ud800"}) + "\n")
        result = run_matrix(load_config(path))
        assert result.exit_status == 1 and not result.results
        assert len(result.failures) == 2
        assert all(msg.startswith("task ingest failed: 'text' does not encode as UTF-8")
                   and f"path={corpus} line={len(TOY_DOCS) + 1}" in msg
                   for msg in result.failures.values())
        assert not (tmp_path / "cache" / "rewrites.jsonl").exists()
        assert not (tmp_path / "out" / "cells").exists()

    def test_a_cell_whose_files_cannot_be_written_fails_alone(self, tmp_path):
        cfg = load_config(write_matrix_config(tmp_path, regimes=("QC", "C")))
        assert run_matrix(cfg).exit_status == 0
        nl_c = CellKey(encoder_id="bow", task_id="toy", task_family="CodeToCode",
                       rewriter_id="ident", strategy=Strategy.NL, regime=Regime.C)
        others = [cell for cell in plan_cells(cfg) if cell != nl_c]
        clean = {cell: tree_bytes(cfg.out_dir / "cells" / cell.cell_id) for cell in others}
        blocked = cfg.out_dir / "cells" / nl_c.cell_id
        shutil.rmtree(blocked)
        blocked.write_text("in the way\n", encoding="utf-8")
        result = run_matrix(cfg)
        assert result.exit_status == 1
        assert list(result.failures) == [nl_c]
        assert result.failures[nl_c].startswith(f"cannot write {blocked / 'record.json'}")
        assert {cell: tree_bytes(cfg.out_dir / "cells" / cell.cell_id)
                for cell in others} == clean
        assert [r.plan.cell_id for r in RunStore(cfg.out_dir / "runs.jsonl").records()] == \
            [cell.cell_id for cell in others]
        diagnostics = (cfg.out_dir / "diagnostics.jsonl").read_text(encoding="utf-8")
        assert len(diagnostics.splitlines()) == 2 * len(others)
        summary = json.loads((cfg.out_dir / "summary.json").read_text(encoding="utf-8"))
        assert list(summary["failures"]) == [nl_c.cell_id]
        assert not list(cfg.out_dir.rglob("*.tmp"))

    def test_a_baseline_that_cannot_be_written_gives_its_arms_no_deltas(self, tmp_path):
        path = write_matrix_config(tmp_path, regimes=("QC", "C"))
        cfg = load_config(path)
        assert run_matrix(cfg).exit_status == 0
        runs = cfg.out_dir / "runs.jsonl"
        clean = {row["plan"]["regime"]: row["mean_ndcg"] for row in map(
            json.loads, runs.read_text(encoding="utf-8").splitlines())}
        baseline, *arms = plan_cells(cfg)
        blocked = cfg.out_dir / "cells" / baseline.cell_id
        shutil.rmtree(blocked)
        blocked.write_text("in the way\n", encoding="utf-8")
        result = run_matrix(cfg)
        assert result.exit_status == 1 and list(result.failures) == [baseline]
        rows = [json.loads(line) for line in runs.read_text(encoding="utf-8").splitlines()]
        assert [row["plan"]["regime"] for row in rows] == [arm.regime.value for arm in arms]
        for row in rows:
            assert row["delta_ndcg"] is None and row["mean_ndcg"] == clean[row["plan"]["regime"]]
        for arm in arms:
            cell_dir = cfg.out_dir / "cells" / arm.cell_id
            lexical = json.loads((cell_dir / "lexical.json").read_text(encoding="utf-8"))
            geometry = json.loads((cell_dir / "geometry.json").read_text(encoding="utf-8"))
            assert lexical["delta_h_bits"] is None and geometry["delta_s_bar"] is None
        assert main(["--config", str(path), "report"]) == 0
        summary = json.loads((cfg.out_dir / "report" / "summary.json").read_text(
            encoding="utf-8"))
        assert len(summary["gaps"]) == len(arms)
        assert all(any(arm.arm_label in gap for gap in summary["gaps"]) for arm in arms)

    def test_a_corpus_that_fails_to_build_fails_only_its_encoders_cells(self, tmp_path):
        vocab = tmp_path / "vocab.txt"
        vocab.write_text("\u00a7\n", encoding="utf-8")  # in no toy text, and no <unk>
        encoders = [{"encoder_id": "bow", "url": "mock://bow?dim=16",
                     "tokenizer": {"kind": "word"}},
                    {"encoder_id": "mute", "url": "mock://bow?dim=16",
                     "tokenizer": {"kind": "vocab", "vocab_file": str(vocab)}}]
        cfg = load_config(write_matrix_config(tmp_path, encoders=encoders,
                                              regimes=("QC", "C")))
        result = run_matrix(cfg)
        mute = {cell for cell in plan_cells(cfg) if cell.encoder_id == "mute"}
        assert len(mute) == 3 and set(result.failures) == mute
        assert all("corpus produced no tokens" in msg for msg in result.failures.values())
        assert set(result.results) == set(plan_cells(cfg)) - mute

    def test_missing_query_template_fails_only_that_qc_cell(self, tmp_path):
        catalog = tmp_path / "templates"
        catalog.mkdir()
        (catalog / "rephrase.md").write_text(
            "---\ntemplate_id: rephrase\nstrategy: Rephrase\n"
            "task_family: CodeToCode\n---\n{input}", encoding="utf-8")
        (catalog / "nl_docs.md").write_text(
            "---\ntemplate_id: nl-docs\nstrategy: NL\ntask_family: CodeToCode\n"
            "applies_to: documents\n---\n{input}", encoding="utf-8")
        path = write_matrix_config(tmp_path, strategies=("Rephrase", "NL"),
                                   regimes=("QC", "C"), template_catalog=str(catalog))
        cfg = load_config(path)
        seen = []
        result = run_matrix(cfg, fault_hook=seen.append)
        nl_qc = CellKey(encoder_id="bow", task_id="toy", rewriter_id="ident",
                        strategy=Strategy.NL, regime=Regime.QC)
        assert list(result.failures) == [nl_qc]
        assert "no template" in result.failures[nl_qc]
        assert set(result.results) == set(plan_cells(cfg)) - {nl_qc}
        assert sorted(seen, key=lambda c: c.cell_id) == sorted(
            plan_cells(cfg), key=lambda c: c.cell_id)


    def test_a_failed_side_keeps_no_cells_frames(self, tmp_path, monkeypatch):
        # each encoder's NL-QC cell reads the failed NL query side after its
        # corpus is built; the side's stored error must not collect those
        # frames, which hold the corpus
        catalog = tmp_path / "templates"
        catalog.mkdir()
        (catalog / "nl_docs.md").write_text(
            "---\ntemplate_id: nl-docs\nstrategy: NL\ntask_family: CodeToCode\n"
            "applies_to: documents\n---\n{input}", encoding="utf-8")
        encoders = [{"encoder_id": f"bow{dim}", "url": f"mock://bow?dim={dim}",
                     "tokenizer": {"kind": "word"}} for dim in (16, 24, 32, 40)]
        path = write_matrix_config(tmp_path, encoders=encoders, regimes=("QC", "C"),
                                   template_catalog=str(catalog))
        kept, refs = [], []

        class KeptStages(matrix.Stages):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                kept.append(self)

        build_corpus = matrix.build_corpus

        def recording_build(*args, **kwargs):
            corpus = build_corpus(*args, **kwargs)
            refs.append(weakref.ref(corpus))
            return corpus

        monkeypatch.setattr(matrix, "Stages", KeptStages)
        monkeypatch.setattr(matrix, "build_corpus", recording_build)
        gc.disable()  # what stays alive must be freed without the collector
        try:
            result = run_matrix(load_config(path))
            assert len(result.failures) == len(encoders)
            (error,) = [o for o in kept[0]._sides.values() if isinstance(o, WorkbenchError)]
            frames = [f.f_code.co_name for f, _ in traceback.walk_tb(error.__traceback__)]
            assert "score" not in frames
            assert len(refs) == 2 * len(encoders)
            assert all(ref() is None for ref in refs)
        finally:
            gc.enable()


class TestColdPath:
    """What a cold run at ``parallelism: 1`` pays per item."""

    def _config(self, tmp_path):
        path = write_matrix_config(tmp_path, strategies=("Rephrase", "NL"),
                                   regimes=("QC", "C"),
                                   extra={"endpoint": {"embed_batch_size": 1, "retries": 0}})
        return load_config(path)

    def test_parallelism_one_starts_no_thread(self, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a thread was started")

        monkeypatch.setattr(matrix, "ThreadPoolExecutor", refuse)
        monkeypatch.setattr(threading.Thread, "start", refuse)
        cfg = self._config(tmp_path)
        assert cfg.parallelism == 1
        assert run_matrix(cfg).exit_status == 0

    def test_each_cache_file_is_opened_for_writing_once(self, tmp_path, monkeypatch):
        opened, real_open = Counter(), builtins.open

        def counting_open(file, mode="r", *args, **kwargs):
            if set(mode) & set("wax+"):
                opened[str(file)] += 1
            return real_open(file, mode, *args, **kwargs)

        cfg = self._config(tmp_path)
        monkeypatch.setattr(builtins, "open", counting_open)
        result = run_matrix(cfg)
        assert result.exit_status == 0
        assert result.endpoint_calls["rewriter:ident"] > 1  # one append each
        assert result.endpoint_calls["encoder:bow"] > 1  # one batch each
        cache = cfg.cache_dir
        assert [opened[str(path)] for path in (
            cache / "rewrites.jsonl", cache / "embeddings" / "manifest.jsonl",
            cache / "embeddings" / "vectors.bin")] == [1, 1, 1]

    @pytest.mark.filterwarnings("error::ResourceWarning")
    @pytest.mark.filterwarnings("error::pytest.PytestUnraisableExceptionWarning")
    def test_leaving_stages_closes_every_handle(self, tmp_path, monkeypatch):
        handles, real_open = [], builtins.open

        def recording_open(*args, **kwargs):
            handles.append(real_open(*args, **kwargs))
            return handles[-1]

        monkeypatch.setattr(builtins, "open", recording_open)
        cfg = self._config(tmp_path)
        with matrix.Stages(cfg, plan_cells(cfg)) as stages:
            stages.rewrite()
            stages.fetch()
            assert not all(fh.closed for fh in handles)  # the appends' handles
        assert all(fh.closed for fh in handles)
        gc.collect()

    @pytest.mark.filterwarnings("error::ResourceWarning")
    @pytest.mark.filterwarnings("error::pytest.PytestUnraisableExceptionWarning")
    def test_stages_that_fail_to_build_leave_no_handle_open(self, tmp_path, monkeypatch):
        handles, real_open = [], builtins.open

        def recording_open(*args, **kwargs):
            handles.append(real_open(*args, **kwargs))
            return handles[-1]

        assert run_matrix(self._config(tmp_path)).exit_status == 0  # warm caches to read
        cfg = load_config(write_matrix_config(
            tmp_path, encoders=[{"encoder_id": name, "url": url, "tokenizer": {"kind": "word"}}
                                for name, url in (("bow", "mock://bow?dim=128"),
                                                  ("bad", "mock://bogus"))]))
        monkeypatch.setattr(builtins, "open", recording_open)
        with pytest.raises(ConfigError, match="unknown mock encoder kind 'bogus'"):
            matrix.Stages(cfg, plan_cells(cfg))
        assert handles and all(fh.closed for fh in handles)
        gc.collect()

    def test_one_mkdir_per_cell_directory(self, tmp_path, monkeypatch):
        made, real_mkdir = [], Path.mkdir

        def counting_mkdir(self, *args, **kwargs):
            made.append(self)
            return real_mkdir(self, *args, **kwargs)

        cfg = self._config(tmp_path)
        monkeypatch.setattr(Path, "mkdir", counting_mkdir)
        result = run_matrix(cfg)
        assert result.exit_status == 0
        # out/, the caches' two directories and out/cells/, each made once;
        # a path whose parent is missing is tried again after the parent
        assert len(made) <= len(plan_cells(cfg)) + 7
        assert max(Counter(made).values()) <= 2

    def test_a_rerun_cut_off_mid_write_leaves_the_old_files_whole(self, tmp_path,
                                                                  monkeypatch):
        cfg = self._config(tmp_path)
        assert run_matrix(cfg).exit_status == 0
        before = tree_bytes(cfg.out_dir)
        real_write_records = matrix.write_records

        def cut_off(fh, arm, bodies):
            for body in bodies:
                real_write_records(fh, arm, [body])
                raise RuntimeError("cut off after the first line")

        monkeypatch.setattr(matrix, "write_records", cut_off)
        with pytest.raises(RuntimeError, match="cut off"):
            run_matrix(cfg)
        after = tree_bytes(cfg.out_dir)
        rewrites = [name for name in before if name.endswith("rewrites.jsonl")]
        assert rewrites and all(after[name] == before[name] for name in rewrites)
        assert not list(cfg.out_dir.rglob("*.tmp"))


class TestRewriteFailuresNotCached:
    def _run(self, tmp_path, url, out):
        path = write_matrix_config(
            tmp_path, regimes=("QC", "C"),
            rewriters=[{"rewriter_id": "rw", "url": url}])
        cfg = load_config(path, out_dir=str(tmp_path / out))
        result = run_matrix(cfg)
        assert result.exit_status == 0
        rows = [json.loads(line) for line in
                (cfg.out_dir / "cells" / "bow__toy__rw__NL__QC" / "rewrites.jsonl")
                .read_text().splitlines()]
        return result.endpoint_calls["rewriter:rw"], {r["source_id"]: r for r in rows}

    def test_failed_item_is_rewritten_on_the_next_run(self, tmp_path, monkeypatch):
        # d1 and q1 both mention alpha_one: the endpoint fails on them once
        def flaky(client, system, user, max_tokens):
            if "alpha_one" in user:
                raise EndpointError("down")
            return user, False

        with monkeypatch.context() as patch:
            patch.setattr(rewrite.RewriterClient, "_mock", flaky)
            calls, rows = self._run(tmp_path, "mock://identity", "out1")
        assert {i for i, r in rows.items() if r["failed"]} == {"d1", "q1"}
        calls, rows = self._run(tmp_path, "mock://identity", "out2")
        assert calls == 2
        assert not any(r["failed"] for r in rows.values())
        calls, _ = self._run(tmp_path, "mock://identity", "out3")
        assert calls == 0


class TestCorpusLifetime:
    @pytest.mark.parametrize("parallelism", [1, 2, 4])
    def test_at_most_parallelism_corpora_alive(self, tmp_path, monkeypatch,
                                               parallelism):
        """No corpus is alive while one is built, and one while a cell is
        scored, at any parallelism."""
        encoders = [{"encoder_id": name, "url": f"mock://{name}?dim=32",
                     "tokenizer": {"kind": "word"}} for name in ("bow", "hash")]
        path = write_matrix_config(tmp_path, encoders=encoders,
                                   strategies=("Rephrase", "Pseudo", "NL"),
                                   regimes=("QC", "C"))
        cfg = load_config(path)
        cfg.parallelism = parallelism
        refs, built = [], []  # Corpus is unhashable: no WeakSet
        alive_at_build, alive_at_score = [], []
        lock = threading.Lock()
        build_corpus, score_arm = matrix.build_corpus, matrix.score_arm

        def alive() -> int:
            return sum(ref() is not None for ref in refs)

        def recording_build(*args, **kwargs):
            with lock:
                alive_at_build.append(alive())
            corpus = build_corpus(*args, **kwargs)
            with lock:
                refs.append(weakref.ref(corpus))
                built.append(corpus.matrix.encoder_id)
            return corpus

        def checking_score(*args, **kwargs):
            with lock:
                alive_at_score.append(alive())
            return score_arm(*args, **kwargs)

        monkeypatch.setattr(matrix, "build_corpus", recording_build)
        monkeypatch.setattr(matrix, "score_arm", checking_score)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            result = run_matrix(cfg)
        finally:
            sys.setswitchinterval(interval)
        assert result.exit_status == 0
        # one corpus per (encoder, strategy) plus each encoder's Baseline's
        assert sorted(built) == ["bow"] * 4 + ["hash"] * 4
        assert alive_at_build == [0] * len(built)
        assert len(plan_cells(cfg)) == 2 * (1 + 3 * 2)
        assert alive_at_score == [1] * len(plan_cells(cfg))
        assert all(ref() is None for ref in refs)


class TestPool:
    """Above ``parallelism: 1`` a pool sends the endpoint requests, and
    everything else runs on the calling thread."""

    def test_scoring_and_persistence_run_on_the_calling_thread(self, tmp_path,
                                                                monkeypatch):
        path = write_matrix_config(tmp_path, strategies=("Rephrase", "NL"),
                                   regimes=("QC", "C"),
                                   extra={"endpoint": {"embed_batch_size": 1, "retries": 0},
                                          "parallelism": 2})
        threads: dict[str, set[int]] = {}

        def on_thread(name, fn):
            def recording(*args, **kwargs):
                threads.setdefault(name, set()).add(threading.get_ident())
                return fn(*args, **kwargs)
            return recording

        for name in ("build_corpus", "score_arm", "write_cells"):
            monkeypatch.setattr(matrix, name, on_thread(name, getattr(matrix, name)))
        for owner, name in ((EncoderClient, "embed_batch"), (rewrite.RewriterClient, "complete")):
            monkeypatch.setattr(owner, name, on_thread("endpoint", getattr(owner, name)))
        before = set(threading.enumerate())
        result = run_matrix(load_config(path))
        assert result.exit_status == 0
        caller = threading.get_ident()
        assert threads.pop("endpoint") - {caller}  # the pool's threads
        assert threads == {name: {caller} for name in
                           ("build_corpus", "score_arm", "write_cells")}
        assert set(threading.enumerate()) == before  # no thread outlives the run


class TestTableRewriter:
    def _config(self, tmp_path, table_path):
        return write_matrix_config(
            tmp_path, regimes=("QC", "C"),
            rewriters=[{"rewriter_id": "tab", "url": f"mock://table?file={table_path}"},
                       {"rewriter_id": "ident", "url": "mock://identity"}])

    def test_warm_run_never_reads_the_table(self, tmp_path, monkeypatch):
        table_path = tmp_path / "table.json"
        table_path.write_text(json.dumps({"unused": "x"}), encoding="utf-8")
        path = self._config(tmp_path, table_path)
        cold = run_matrix(load_config(path, out_dir=str(tmp_path / "out1")))
        assert cold.exit_status == 0 and cold.endpoint_calls["rewriter:tab"] > 0
        # a warm run hashes the table's bytes but never parses them
        monkeypatch.setattr(rewrite.RewriterClient, "_table_lookup",
                            lambda client, user: pytest.fail("the table was read"))
        warm = run_matrix(load_config(path, out_dir=str(tmp_path / "out2")))
        assert warm.exit_status == 0
        assert all(v == 0 for v in warm.endpoint_calls.values())
        assert tree_bytes(tmp_path / "out1") == tree_bytes(tmp_path / "out2")

    def test_changed_table_asks_its_rewriter_again(self, tmp_path):
        table_path = tmp_path / "table.json"
        table_path.write_text(json.dumps({"unused": "x"}), encoding="utf-8")
        path = self._config(tmp_path, table_path)
        cold = run_matrix(load_config(path))
        table_path.write_text(json.dumps({TOY_DOCS[0]["text"]: "mapped"}), encoding="utf-8")
        warm = run_matrix(load_config(path))
        assert warm.exit_status == 0
        assert warm.endpoint_calls == {"encoder:bow": 1, "rewriter:ident": 0,
                                       "rewriter:tab": cold.endpoint_calls["rewriter:tab"]}
        corpus = (tmp_path / "out" / "cells" / "bow__toy__tab__NL__C" / "rewrites.jsonl")
        assert json.loads(corpus.read_text().splitlines()[0])["output_text"] == "mapped"

    def test_an_entry_that_does_not_encode_fails_only_its_cells(self, tmp_path):
        # json.dumps escapes the lone surrogate as "\ud800": the table parses,
        # but no UTF-8 file can hold that output, so the table is refused
        runs = {}
        for name, output in (("clean", "mapped"), ("broken", "mapped \ud800")):
            table_path = tmp_path / name / "table.json"
            table_path.parent.mkdir()
            table_path.write_text(json.dumps({TOY_DOCS[0]["text"]: output}),
                                  encoding="utf-8")
            runs[name] = run_matrix(load_config(self._config(tmp_path / name, table_path)))
        broken = runs["broken"]
        assert runs["clean"].exit_status == 0 and broken.exit_status == 1
        assert {c.rewriter_id for c in broken.failures} == {"tab"}
        assert {c.rewriter_id for c in broken.results} == {"", "ident"}
        assert all("does not encode as UTF-8" in msg for msg in broken.failures.values())
        # the healthy cells' files are the clean run's (meta.json holds the
        # config hash, which the table's path enters)
        for cell in broken.results:
            trees = [tree_bytes(tmp_path / name / "out" / "cells" / cell.cell_id, True)
                     for name in runs]
            for tree in trees:
                del tree["meta.json"]
            assert trees[0] == trees[1] and "record.json" in trees[1]
        cached = (tmp_path / "broken" / "cache" / "rewrites.jsonl").read_bytes()
        assert b"mapped" not in cached
        cached.decode("utf-8")

    def test_table_that_does_not_parse_fails_only_its_cells(self, tmp_path):
        table_path = tmp_path / "table.json"
        table_path.write_text("{not json", encoding="utf-8")
        result = run_matrix(load_config(self._config(tmp_path, table_path)))
        assert result.exit_status == 1
        assert {c.rewriter_id for c in result.failures} == {"tab"}
        assert {c.rewriter_id for c in result.results} == {"", "ident"}
        assert all(str(table_path) in msg for msg in result.failures.values())
