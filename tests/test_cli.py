import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import write_matrix_config
from rewritebench.cli import main
from rewritebench.embed import EncoderClient


def run_cli(config_path, *argv) -> int:
    return main(["--config", str(config_path), *argv])


@pytest.fixture
def offline_config(tmp_path):
    return write_matrix_config(tmp_path, strategies=("Rephrase", "NL"),
                               regimes=("QC", "C"))


class TestExitCodes:
    def test_missing_config_is_two(self, tmp_path):
        assert main(["--config", str(tmp_path / "none.yaml"), "run-matrix"]) == 2

    def test_invalid_config_is_two(self, tmp_path):
        path = write_matrix_config(tmp_path, extra={"tasks": []})
        assert run_cli(path, "run-matrix") == 2

    def test_cell_failure_is_one(self, tmp_path):
        path = write_matrix_config(
            tmp_path,
            encoders=[{"encoder_id": "dead", "url": "mock://fail",
                       "tokenizer": {"kind": "word"}}])
        assert run_cli(path, "run-matrix") == 1

    def test_missing_table_file_is_two(self, tmp_path):
        path = write_matrix_config(
            tmp_path, rewriters=[{"rewriter_id": "tab",
                                  "url": "mock://table?file=none.json"}])
        assert run_cli(path, "run-matrix") == 2

    def test_unknown_url_scheme_is_two(self, tmp_path):
        # rejected when the clients are built, before any call is retried
        for key, item in (("encoders", {"encoder_id": "enc", "url": "htp://127.0.0.1:9/v1",
                                        "tokenizer": {"kind": "word"}}),
                          ("rewriters", {"rewriter_id": "rw", "url": "htp://127.0.0.1:9/v1"})):
            path = write_matrix_config(tmp_path / key, **{key: [item]})
            assert run_cli(path, "run-matrix") == 2

    def test_success_is_zero(self, offline_config):
        assert run_cli(offline_config, "run-matrix") == 0


class TestSubcommands:
    def test_ingest_writes_report(self, tmp_path):
        path = write_matrix_config(tmp_path)
        assert run_cli(path, "ingest") == 0
        report = json.loads((tmp_path / "out" / "ingest_toy.json").read_text())
        assert report["n_documents"] == 3

    def test_rewrite_writes_outputs(self, tmp_path):
        path = write_matrix_config(tmp_path)
        assert run_cli(path, "rewrite", "--task", "toy", "--rewriter", "ident",
                       "--strategy", "NL", "--regime", "QC") == 0
        out = tmp_path / "out" / "rewritten" / "toy__ident__NL-QC"
        assert (out / "corpus.jsonl").exists()
        assert (out / "queries.jsonl").exists()
        assert (out / "records.jsonl").exists()

    def test_rewrite_c_regime_skips_queries(self, tmp_path):
        path = write_matrix_config(tmp_path)
        assert run_cli(path, "rewrite", "--task", "toy", "--rewriter", "ident",
                       "--strategy", "NL", "--regime", "C") == 0
        out = tmp_path / "out" / "rewritten" / "toy__ident__NL-C"
        assert (out / "corpus.jsonl").exists()
        assert not (out / "queries.jsonl").exists()

    def test_embed_and_retrieve(self, tmp_path, capsys):
        path = write_matrix_config(tmp_path)
        assert run_cli(path, "embed", "--task", "toy", "--encoder", "bow") == 0
        assert "corpus 3x128" in capsys.readouterr().out
        assert run_cli(path, "retrieve", "--task", "toy", "--encoder", "bow",
                       "--k", "2") == 0
        rankings = tmp_path / "out" / "rankings_toy__bow__Baseline.jsonl"
        lines = [json.loads(l) for l in rankings.read_text().splitlines()]
        assert len(lines) == 3
        assert len(lines[0]["entries"]) == 2

    def test_eval_baseline_and_arm(self, tmp_path, capsys):
        path = write_matrix_config(tmp_path)
        assert run_cli(path, "eval", "--task", "toy", "--encoder", "bow") == 0
        assert run_cli(path, "eval", "--task", "toy", "--encoder", "bow",
                       "--rewriter", "ident", "--strategy", "NL",
                       "--regime", "QC") == 0
        out = capsys.readouterr().out
        assert "delta +0.00000" in out
        runs = (tmp_path / "out" / "runs.jsonl").read_text().splitlines()
        assert len(runs) == 2

    def test_diagnose_appends_diagnostics(self, tmp_path, capsys):
        path = write_matrix_config(tmp_path)
        assert run_cli(path, "diagnose", "--task", "toy", "--encoder", "bow",
                       "--rewriter", "ident", "--strategy", "NL",
                       "--regime", "QC") == 0
        assert "delta +0.0000" in capsys.readouterr().out
        diag = (tmp_path / "out" / "diagnostics.jsonl").read_text().splitlines()
        assert len(diag) == 2

    def test_matrix_report_correlate_advise_audit(self, offline_config, tmp_path, capsys):
        assert run_cli(offline_config, "run-matrix") == 0
        assert run_cli(offline_config, "report") == 0
        report_dir = offline_config.parent / "out" / "report"
        assert (report_dir / "correlations.csv").exists()
        assert (report_dir / "lexical_table.csv").exists()
        assert (report_dir / "scatter.csv").exists()

        assert run_cli(offline_config, "correlate") == 0
        assert run_cli(offline_config, "advise") == 0
        advice = json.loads((report_dir / "advice.json").read_text())
        # identity rewriting shifts nothing: skip is the right call
        assert advice[0]["recommended"] == "Skip"

        capsys.readouterr()
        assert run_cli(offline_config, "audit", "--task", "toy",
                       "--sample-size", "4") == 0
        bundle = json.loads((offline_config.parent / "out" / "audit.json").read_text())
        assert len(bundle) == 4
        assert all(item["source_text"] == item["output_text"] for item in bundle)

    def test_report_after_rerun_and_rejects_a_duplicate_cell(self, tmp_path, capsys):
        path = write_matrix_config(tmp_path)
        assert run_cli(path, "run-matrix") == 0
        assert run_cli(path, "run-matrix") == 0
        assert run_cli(path, "report") == 0
        # eval appends: a second row for a cell the matrix already wrote
        assert run_cli(path, "eval", "--task", "toy", "--encoder", "bow") == 0
        capsys.readouterr()
        assert run_cli(path, "report") == 1
        assert "duplicate cell key ('bow', 'toy', '', 'Baseline')" in capsys.readouterr().err

    def test_audit_without_records_fails(self, tmp_path):
        path = write_matrix_config(tmp_path)
        assert run_cli(path, "audit", "--task", "toy", "--sample-size", "1") == 1

    def test_unknown_task_is_config_error(self, tmp_path):
        path = write_matrix_config(tmp_path)
        assert run_cli(path, "eval", "--task", "missing", "--encoder", "bow") == 2

    def test_strategy_needs_regime_and_rewriter(self, tmp_path):
        path = write_matrix_config(tmp_path)
        assert run_cli(path, "eval", "--task", "toy", "--encoder", "bow",
                       "--strategy", "NL") == 2


@pytest.mark.parametrize("regime", ["QC", "C"])
def test_eval_and_diagnose_equal_the_matrix_cell(tmp_path, regime):
    path = write_matrix_config(tmp_path, regimes=("QC", "C"))
    assert run_cli(path, "run-matrix") == 0
    fresh = tmp_path / "fresh"
    flags = ["--task", "toy", "--encoder", "bow", "--rewriter", "ident",
             "--strategy", "NL", "--regime", regime]
    assert run_cli(path, "--out-dir", str(fresh), "eval", *flags) == 0
    assert run_cli(path, "--out-dir", str(fresh), "diagnose", *flags) == 0

    cell_dir = tmp_path / "out" / "cells" / f"bow__toy__ident__NL__{regime}"
    (run,) = [json.loads(line) for line in (fresh / "runs.jsonl").read_text().splitlines()]
    del run["v"], run["run_id"]
    assert run == json.loads((cell_dir / "record.json").read_text())
    reports = {}
    for line in (fresh / "diagnostics.jsonl").read_text().splitlines():
        row = json.loads(line)
        del row["v"]
        reports[row.pop("kind")] = row
    assert sorted(reports) == ["geometry", "lexical"]
    for kind, report in reports.items():
        assert report == json.loads((cell_dir / f"{kind}.json").read_text())


def test_eval_on_a_cold_cache_equals_the_matrix_cell(tmp_path, monkeypatch):
    path = write_matrix_config(tmp_path)
    assert run_cli(path, "run-matrix") == 0
    calls = []
    embed_batch = EncoderClient.embed_batch
    monkeypatch.setattr(EncoderClient, "embed_batch",
                        lambda self, texts: calls.append(texts) or embed_batch(self, texts))
    cold = ["--cache-dir", str(tmp_path / "cold"), "--out-dir", str(tmp_path / "fresh")]
    assert run_cli(path, *cold, "eval", "--task", "toy", "--encoder", "bow",
                   "--rewriter", "ident", "--strategy", "NL", "--regime", "QC") == 0
    # the fetch stage asks once for the distinct texts of the Baseline and the arm
    assert len(calls) == 1
    (run,) = [json.loads(line)
              for line in (tmp_path / "fresh" / "runs.jsonl").read_text().splitlines()]
    del run["v"], run["run_id"]
    cell_dir = tmp_path / "out" / "cells" / "bow__toy__ident__NL__QC"
    assert run == json.loads((cell_dir / "record.json").read_text())


def test_eval_with_a_dead_encoder_reports_its_fetch(tmp_path, capsys):
    path = write_matrix_config(tmp_path, encoders=[
        {"encoder_id": "dead", "url": "mock://fail", "tokenizer": {"kind": "word"}}])
    assert run_cli(path, "eval", "--task", "toy", "--encoder", "dead") == 1
    assert "failed after 2 attempts" in capsys.readouterr().err


def test_cli_import_leaves_scipy_out():
    # scipy takes about a second to import; only the t-approximation needs it
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, rewritebench.cli; print('scipy' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_cli_import_leaves_requests_out():
    # the endpoint clients speak HTTP through the standard library
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, rewritebench.cli; "
         "print(sorted({'requests', 'urllib3'} & set(sys.modules)))"],
        env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
