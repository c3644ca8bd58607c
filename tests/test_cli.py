import json
import math
import os
import re
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import pytest
import yaml

from conftest import (TOY_DOCS, TOY_QRELS, TOY_QUERIES, write_jsonl, write_matrix_config,
                      write_qrels)
from rewritebench.cli import main
from rewritebench.embed import EncoderClient
from rewritebench.rewrite import RewriterClient
from rewritebench.stores import RunStore


def run_cli(config_path, *argv) -> int:
    return main(["--config", str(config_path), *argv])


def run_edited(tmp_path, where, key, value) -> int:
    """``run-matrix``'s exit code on the toy config with the entry *key* of
    the section that the steps *where* lead to set to *value*."""
    path = write_matrix_config(tmp_path)
    cfg = yaml.safe_load(path.read_text(encoding="utf-8"))
    section = cfg
    for step in where:
        section = section[step]
    section[key] = value
    path.write_text(yaml.safe_dump(cfg), encoding="utf-8")
    return run_cli(path, "run-matrix")


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

    def test_bad_template_front_matter_is_two(self, tmp_path, capsys):
        templates = tmp_path / "templates"
        templates.mkdir()
        (templates / "nl.md").write_text(
            "---\ntemplate_id: nl\nstrategy: NL\ntask_family: CodeToCode\n"
            "max_output_tokens: lots\n---\n{input}\n", encoding="utf-8")
        path = write_matrix_config(tmp_path, template_catalog="templates")
        assert run_cli(path, "run-matrix") == 2
        err = capsys.readouterr().err
        assert "nl.md field 'max_output_tokens'" in err and "Traceback" not in err

    @pytest.mark.parametrize("key, url, message", [
        ("encoders", "mock://bogus", "unknown mock encoder kind 'bogus'"),
        ("encoders", "mock://bow?dim=abc", "dim must be a positive integer, got 'abc'"),
        ("encoders", "mock://hash?dim=0", "dim must be a positive integer, got '0'"),
        ("rewriters", "mock://tabel", "unknown mock rewriter kind 'tabel'")])
    def test_bad_mock_url_is_two(self, tmp_path, capsys, key, url, message):
        item = ({"encoder_id": "enc", "url": url, "tokenizer": {"kind": "word"}}
                if key == "encoders" else {"rewriter_id": "rw", "url": url})
        path = write_matrix_config(tmp_path, **{key: [item]})
        assert run_cli(path, "run-matrix") == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out" / "cells").exists()

    def test_success_is_zero(self, offline_config):
        assert run_cli(offline_config, "run-matrix") == 0

    def test_colliding_cell_directories_are_two(self, tmp_path, capsys):
        # "a/b" and "a_b" would both write the cells under a_b__toy__...
        encoders = [{"encoder_id": name, "url": "mock://bow?dim=16",
                     "tokenizer": {"kind": "word"}} for name in ("a/b", "a_b")]
        path = write_matrix_config(tmp_path, encoders=encoders)
        assert run_cli(path, "run-matrix") == 2
        err = capsys.readouterr().err
        assert "configuration error: ids ['a/b', 'a_b']" in err and "a_b__toy__Baseline" in err
        assert not (tmp_path / "out").exists()

    def test_audit_of_an_unknown_rewriter_is_two(self, offline_config, capsys):
        assert run_cli(offline_config, "run-matrix") == 0
        assert run_cli(offline_config, "audit", "--task", "toy", "--rewriter", "nope",
                       "--sample-size", "1") == 2
        assert "configuration error: rewriter 'nope' not in config" in capsys.readouterr().err

    @pytest.mark.parametrize("where, key, value", [
        ((), "seed", "abc"), (("eval",), "k", "six"), ((), "parallelism", "two"),
        ((), "skip_threshold", "low"), (("endpoint",), "retries", "many"),
        (("endpoint",), "backoff_s", "fast"), (("endpoint",), "embed_batch_size", [8]),
        (("encoders", 0), "batch_size", "big"), (("encoders", 0), "retries", "x"),
        (("rewriters", 0), "backoff_s", "slow"),
        (("encoders", 0, "tokenizer"), "vocab_size", "lots")])
    def test_non_numeric_value_is_two_naming_its_key(self, tmp_path, capsys, where, key,
                                                     value):
        assert run_edited(tmp_path, where, key, value) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ")
        assert f"field {key!r} must be a number, got {value!r}" in err

    @pytest.mark.parametrize("where, key, value, name", [
        ((), "eval", 6, "eval"), ((), "endpoint", 3, "endpoint"), ((), "tasks", 5, "tasks"),
        (("tasks",), 0, 5, "task"), ((), "encoders", "bow", "encoders"),
        (("encoders",), 0, 5, "encoder"), (("encoders", 0), "tokenizer", "word", "tokenizer"),
        (("rewriters",), 0, "ident", "rewriter"), ((), "regimes", 5, "regimes")])
    def test_section_of_the_wrong_shape_is_two_naming_it(self, tmp_path, capsys, where,
                                                          key, value, name):
        assert run_edited(tmp_path, where, key, value) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: {name} must be a ")
        assert f"got {value!r}" in err


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
        scored = tmp_path / "out" / "scored"
        assert sorted(p.name for p in scored.iterdir()) == \
            ["bow__toy__Baseline", "bow__toy__ident__NL__QC"]
        assert not (tmp_path / "out" / "runs.jsonl").exists()

    def test_diagnose_writes_its_cell_under_scored(self, tmp_path, capsys):
        path = write_matrix_config(tmp_path)
        assert run_cli(path, "diagnose", "--task", "toy", "--encoder", "bow",
                       "--rewriter", "ident", "--strategy", "NL",
                       "--regime", "QC") == 0
        assert "delta +0.0000" in capsys.readouterr().out
        cell_dir = tmp_path / "out" / "scored" / "bow__toy__ident__NL__QC"
        assert json.loads((cell_dir / "lexical.json").read_text())["delta_h_bits"] == 0.0
        assert json.loads((cell_dir / "geometry.json").read_text())["delta_s_bar"] == 0.0
        assert not (tmp_path / "out" / "diagnostics.jsonl").exists()

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
        runs = RunStore(tmp_path / "out" / "runs.jsonl")
        records = runs.records()
        runs.write([*records, records[0]])  # the Baseline's row twice
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


@pytest.mark.parametrize("argv", [
    ["audit", "--task", "toy", "--sample-size", "-1"],
    ["audit", "--task", "toy", "--sample-size", "0"],
    ["retrieve", "--task", "toy", "--encoder", "bow", "--k", "0"],
    ["retrieve", "--task", "toy", "--encoder", "bow", "--k", "-2"],
    ["advise", "--skip-threshold", "nan"],
    ["advise", "--skip-threshold", "inf"],
])
def test_a_number_out_of_range_is_a_usage_error(tmp_path, capsys, argv):
    path = write_matrix_config(tmp_path)
    assert run_cli(path, "run-matrix") == 0
    with pytest.raises(SystemExit) as exit_info:
        run_cli(path, *argv)
    assert exit_info.value.code == 2
    assert f"argument {argv[-2]}: must be" in capsys.readouterr().err


def _masked_tree(root: Path) -> dict[str, bytes]:
    """The files under *root*, with every rewrite record's timestamp blanked."""
    return {str(p.relative_to(root)): re.sub(rb'"timestamp": "[^"]*"', b'"timestamp": ""',
                                             p.read_bytes())
            for p in sorted(root.rglob("*")) if p.is_file()}


def test_a_renamed_rewriter_leaves_no_stale_cells(tmp_path):
    assert run_cli(write_matrix_config(tmp_path, regimes=("QC", "C")), "run-matrix") == 0
    path = write_matrix_config(tmp_path, regimes=("QC", "C"), rewriters=[
        {"rewriter_id": "ident2", "url": "mock://identity"}])
    fresh = ["--out-dir", str(tmp_path / "fresh"), "--cache-dir", str(tmp_path / "cold")]
    for flags in ([], fresh):
        assert run_cli(path, *flags, "run-matrix") == 0
        assert run_cli(path, *flags, "audit", "--task", "toy", "--sample-size", "50") == 0
    bundle = json.loads((tmp_path / "out" / "audit.json").read_text(encoding="utf-8"))
    assert len(bundle) == 2 * len(TOY_DOCS) + len(TOY_QUERIES)  # the NL-QC and NL-C cells'
    assert _masked_tree(tmp_path / "out") == _masked_tree(tmp_path / "fresh")


def test_audit_samples_only_the_records_of_its_task(tmp_path):
    # two tasks over one collection: the same ids, each task's records apart
    tasks = [{"task_id": task_id, "family": "CodeToCode", "corpus": "corpus.jsonl",
              "queries": "queries.jsonl", "qrels": "qrels.tsv"} for task_id in ("toy", "toy2")]
    write_matrix_config(tmp_path)  # writes the collection
    path = write_matrix_config(tmp_path, tasks=tasks)
    assert run_cli(path, "run-matrix") == 0
    assert run_cli(path, "audit", "--task", "toy", "--sample-size", "50") == 0
    bundle = json.loads((tmp_path / "out" / "audit.json").read_text(encoding="utf-8"))
    assert len(bundle) == len(TOY_DOCS) + len(TOY_QUERIES)  # the NL-QC cell's of "toy"


def _files(cell_dir: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(cell_dir.iterdir())}


@pytest.mark.parametrize("regime", ["QC", "C"])
def test_eval_and_diagnose_equal_the_matrix_cell(tmp_path, regime):
    path = write_matrix_config(tmp_path, regimes=("QC", "C"))
    assert run_cli(path, "run-matrix") == 0
    flags = ["--task", "toy", "--encoder", "bow", "--rewriter", "ident",
             "--strategy", "NL", "--regime", regime]
    cell = f"bow__toy__ident__NL__{regime}"
    matrix_files = _files(tmp_path / "out" / "cells" / cell)
    assert sorted(matrix_files) == ["geometry.json", "lexical.json", "meta.json",
                                    "record.json", "rewrites.jsonl"]
    for command in ("eval", "diagnose"):
        fresh = tmp_path / f"fresh_{command}"
        assert run_cli(path, "--out-dir", str(fresh), command, *flags) == 0
        assert [p.name for p in fresh.iterdir()] == ["scored"]
        assert _files(fresh / "scored" / cell) == matrix_files, command


@pytest.mark.parametrize("arm", [[], ["--rewriter", "ident", "--strategy", "NL", "--regime", "QC"],
                                 ["--rewriter", "ident", "--strategy", "NL", "--regime", "C"]],
                         ids=["Baseline", "QC", "C"])
def test_run_matrix_is_the_only_writer_of_the_stores(tmp_path, arm):
    path = write_matrix_config(tmp_path, regimes=("QC", "C"))
    out = tmp_path / "out"
    assert run_cli(path, "run-matrix") == 0
    assert run_cli(path, "report") == 0
    stores = {name: (out / name).read_bytes()
              for name in ("runs.jsonl", "diagnostics.jsonl", "summary.json")}
    reports = _report_files(out)
    cell = "bow__toy__" + ("__".join(arm[1::2]) if arm else "Baseline")
    for command in ("rewrite", "embed", "retrieve", "eval", "diagnose"):
        if command == "rewrite":
            if not arm:
                continue  # rewrite names an arm
            assert run_cli(path, command, "--task", "toy", *arm) == 0
        else:
            assert run_cli(path, command, "--task", "toy", "--encoder", "bow", *arm) == 0
        assert {name: (out / name).read_bytes() for name in stores} == stores, command
        assert run_cli(path, "report") == 0
        assert _report_files(out) == reports, command
        if command in ("eval", "diagnose"):
            assert _files(out / "scored" / cell) == _files(out / "cells" / cell), command


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
    # the cold run stamps its rewrite records anew
    assert _masked_tree(tmp_path / "fresh" / "scored" / "bow__toy__ident__NL__QC") == \
        _masked_tree(tmp_path / "out" / "cells" / "bow__toy__ident__NL__QC")


def test_eval_at_parallelism_two_on_a_cold_cache_equals_the_matrix_cell(tmp_path,
                                                                        monkeypatch):
    flags = ["eval", "--task", "toy", "--encoder", "bow", "--rewriter", "ident",
             "--strategy", "NL", "--regime", "C"]
    calls, threads = [], {}  # the thread id of each endpoint call
    for owner, name in ((EncoderClient, "embed_batch"), (RewriterClient, "complete")):
        def recording(self, *args, _call=getattr(owner, name)):
            calls.append(threading.get_ident())
            return _call(self, *args)
        monkeypatch.setattr(owner, name, recording)
    for parallelism in (1, 2):
        calls.clear()
        path = write_matrix_config(tmp_path, regimes=("QC", "C"), extra={
            "parallelism": parallelism, "endpoint": {"embed_batch_size": 1, "retries": 0}})
        before = set(threading.enumerate())
        cold = [f"--cache-dir={tmp_path / f'cold{parallelism}'}",
                f"--out-dir={tmp_path / f'fresh{parallelism}'}"]
        assert run_cli(path, *cold, *flags) == 0
        assert set(threading.enumerate()) == before  # the pool is shut down
        threads[parallelism] = list(calls)
    assert len(threads[1]) == len(threads[2]) > 1
    assert set(threads[1]) == {threading.get_ident()} != set(threads[2])
    assert run_cli(path, "run-matrix") == 0
    cell = "bow__toy__ident__NL__C"
    assert (tmp_path / "fresh2" / "scored" / cell / "record.json").read_bytes() == \
        (tmp_path / "out" / "cells" / cell / "record.json").read_bytes()


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


def test_report_leaves_scipy_stats_out(tmp_path):
    # ten rewriters that each add a different number of tokens to the corpus:
    # ten C rows, so the report's correlations take the t approximation
    rewriters = []
    for i in range(10):
        table = tmp_path / f"table{i}.json"
        table.write_text(json.dumps({d["text"]: d["text"] + " pad" * (i + 1) + f" x{i}"
                                     for d in TOY_DOCS[:2]}), encoding="utf-8")
        rewriters.append({"rewriter_id": f"rw{i}", "url": f"mock://table?file={table}"})
    path = write_matrix_config(tmp_path, rewriters=rewriters, regimes=("C",))
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys; from rewritebench.cli import main; "
         f"assert main(['--config', {str(path)!r}, 'run-matrix']) == 0; "
         f"assert main(['--config', {str(path)!r}, 'report']) == 0; "
         "print(sorted({'scipy.special', 'scipy.stats'} & set(sys.modules)))"],
        env=env, capture_output=True, text=True, check=True)
    assert out.stdout.splitlines()[-1] == "['scipy.special']"
    correlations = (tmp_path / "out" / "report" / "correlations.csv").read_text()
    assert ",C,10,t_approx," in correlations


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


def test_a_mock_run_leaves_the_http_stack_out(tmp_path):
    # the HTTP stack is imported by the first transport built, and a run whose
    # endpoints are all mock:// builds none; report and audit build none either
    demo = tmp_path / "demo"
    shutil.copytree(Path(__file__).resolve().parent.parent / "demo", demo,
                    ignore=shutil.ignore_patterns("out", "cache"))
    config = str(demo / "config.yaml")
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys; from rewritebench.cli import main; "
         f"assert main(['--config', {config!r}, 'run-matrix']) == 0; "
         f"assert main(['--config', {config!r}, 'report']) == 0; "
         f"assert main(['--config', {config!r}, 'audit', '--task', 'demo', "
         "'--sample-size', '3']) == 0; "
         "print(sorted({'http.client', 'ssl', 'urllib.request'} & set(sys.modules)))"],
        env=env, capture_output=True, text=True, check=True)
    assert out.stdout.splitlines()[-1] == "[]"


def test_retrieve_names_the_rewriter_of_an_arm(tmp_path):
    table = tmp_path / "table.json"
    table.write_text(json.dumps({d["text"]: "mirror_flip" for d in TOY_DOCS}),
                     encoding="utf-8")
    path = write_matrix_config(tmp_path, rewriters=[
        {"rewriter_id": "ident", "url": "mock://identity"},
        {"rewriter_id": "other", "url": f"mock://table?file={table}"}])
    rankings = {}
    for rewriter in ("ident", "other"):
        assert run_cli(path, "retrieve", "--task", "toy", "--encoder", "bow",
                       "--rewriter", rewriter, "--strategy", "NL", "--regime", "QC") == 0
        out = tmp_path / "out" / f"rankings_toy__bow__{rewriter}__NL-QC.jsonl"
        rankings[rewriter] = out.read_text(encoding="utf-8")
    assert rankings["ident"] != rankings["other"]  # neither overwrote the other


def _path_name(*parts):
    return "__".join(p.replace("/", "_").replace(" ", "_") for p in parts)


@pytest.mark.parametrize("ids", [("org/bow", "toy/v2", "Qwen/nl"),
                                 ("x/../../../escaped", "y/../../../task", "z/../../../rw"),
                                 ("my bow", "my toy", "my rw")],
                         ids=["slash", "dot-dot", "space"])
@pytest.mark.parametrize("command", ["ingest", "rewrite", "retrieve", "retrieve-arm", "eval",
                                     "diagnose"])
def test_a_stage_command_writes_its_one_name_under_out_dir(tmp_path, ids, command):
    # each id part goes through the cell directories' mapping, "/" and " "
    # to "_", in the documented order
    encoder, task, rewriter = ids
    root = tmp_path / "a" / "b" / "c"  # room above out/ for an id that climbs out of it
    root.mkdir(parents=True)
    write_jsonl(root / "corpus.jsonl", TOY_DOCS)
    write_jsonl(root / "queries.jsonl", TOY_QUERIES)
    write_qrels(root / "qrels.tsv", TOY_QRELS)
    path = write_matrix_config(
        root, tasks=[{"task_id": task, "family": "CodeToCode", "corpus": "corpus.jsonl",
                      "queries": "queries.jsonl", "qrels": "qrels.tsv"}],
        encoders=[{"encoder_id": encoder, "url": "mock://bow?dim=16",
                   "tokenizer": {"kind": "word"}}],
        rewriters=[{"rewriter_id": rewriter, "url": "mock://identity"}])
    arm = ["--rewriter", rewriter, "--strategy", "NL", "--regime", "QC"]
    argv, name = {
        "ingest": (["ingest"], f"ingest_{_path_name(task)}.json"),
        "rewrite": (["rewrite", "--task", task, *arm],
                    f"rewritten/{_path_name(task, rewriter, 'NL-QC')}"),
        "retrieve": (["retrieve", "--task", task, "--encoder", encoder],
                     f"rankings_{_path_name(task, encoder, 'Baseline')}.jsonl"),
        "retrieve-arm": (["retrieve", "--task", task, "--encoder", encoder, *arm],
                         f"rankings_{_path_name(task, encoder, rewriter, 'NL-QC')}.jsonl"),
        "eval": (["eval", "--task", task, "--encoder", encoder, *arm],
                 f"scored/{_path_name(encoder, task, rewriter, 'NL', 'QC')}"),
        "diagnose": (["diagnose", "--task", task, "--encoder", encoder],
                     f"scored/{_path_name(encoder, task, 'Baseline')}"),
    }[command]
    out, cache = root / "out", root / "cache"
    out.mkdir()
    before = set(tmp_path.rglob("*"))
    assert run_cli(path, *argv) == 0
    target = out / name
    made = {p for p in set(tmp_path.rglob("*")) - before if p != cache and cache not in p.parents}
    assert made == {target, *target.rglob("*"), *(p for p in target.parents if out in p.parents)}
    assert target.is_file() == (command in ("ingest", "retrieve", "retrieve-arm"))


def _report_files(out_dir):
    return {p.name: p.read_bytes() for p in sorted((out_dir / "report").iterdir())}


@pytest.mark.parametrize("store", ["runs.jsonl", "diagnostics.jsonl"])
def test_report_rejects_a_torn_store(tmp_path, capsys, store):
    # nothing appends to a store, so a torn last line is damage: an error
    path = write_matrix_config(tmp_path)
    assert run_cli(path, "run-matrix") == 0
    assert run_cli(path, "report") == 0
    before = _report_files(tmp_path / "out")
    file = tmp_path / "out" / store
    n_lines = len(file.read_text(encoding="utf-8").splitlines())
    with open(file, "a", encoding="utf-8") as fh:
        fh.write('{"v": 1, "kind": "lexi')
    for command in ("report", "correlate"):
        capsys.readouterr()
        assert run_cli(path, command) == 1
        assert capsys.readouterr().err == f"error: {file}: line {n_lines + 1} is torn\n"
    assert _report_files(tmp_path / "out") == before


@pytest.mark.parametrize("store, bad_line", [
    pytest.param("runs.jsonl", None, id="runs.jsonl"),
    pytest.param("diagnostics.jsonl", None, id="diagnostics.jsonl"),
    # rows that parse but lack a field
    pytest.param("runs.jsonl", '{"v": 1}', id="runs.jsonl-no-run-id"),
    pytest.param("diagnostics.jsonl", '{"v": 1, "kind": "lexical"}',
                 id="diagnostics.jsonl-no-coverage"),
    # rows that fail a check: the first row with these fields replaced
    pytest.param("diagnostics.jsonl", {"coverage_cdf": [[1, 1.0], [2, 0.5]]},
                 id="diagnostics.jsonl-decreasing-coverage"),
    pytest.param("diagnostics.jsonl", {"coverage_cdf": []}, id="diagnostics.jsonl-empty-coverage"),
    pytest.param("runs.jsonl", {"ndcg_per_query": {"q1": 1.5}}, id="runs.jsonl-ndcg-above-one"),
    pytest.param("runs.jsonl", {"plan": {"strategy": "Baseline", "regime": "QC",
                                         "rewriter_id": "", "task_family": "CodeToCode"}},
                 id="runs.jsonl-baseline-under-qc"),
])
def test_a_malformed_inner_line_of_a_store_is_an_error(tmp_path, capsys, store, bad_line):
    path = write_matrix_config(tmp_path)
    assert run_cli(path, "run-matrix") == 0
    file = tmp_path / "out" / store
    lines = file.read_text(encoding="utf-8").splitlines(keepends=True)
    if bad_line is None:
        bad_line = lines[0][:20]
    elif isinstance(bad_line, dict):
        bad_line = json.dumps({**json.loads(lines[0]), **bad_line})
    file.write_text(bad_line + "\n" + "".join(lines[1:]), encoding="utf-8")
    for command in ("report", "correlate", "advise"):
        capsys.readouterr()
        assert run_cli(path, command) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"{store}: line 1 is malformed" in err, command


@pytest.mark.parametrize("store, part, field", [
    ("runs.jsonl", "plan", "rewriter_id"),
    ("runs.jsonl", "plan", "task_family"),
    ("runs.jsonl", None, "k"),
    ("runs.jsonl", None, "gain"),
    ("runs.jsonl", None, "delta_ndcg"),
    ("diagnostics.jsonl", "lexical", "rewriter_id"),
    ("diagnostics.jsonl", "lexical", "delta_h_bits"),
    ("diagnostics.jsonl", "geometry", "rewriter_id"),
    ("diagnostics.jsonl", "geometry", "delta_s_bar"),
])
def test_a_stored_row_that_lacks_a_field_is_an_error(tmp_path, capsys, store, part, field):
    # *part*: the row's "plan", or the rows of one diagnostics kind
    path = write_matrix_config(tmp_path)
    assert run_cli(path, "run-matrix") == 0
    file = tmp_path / "out" / store
    rows = [json.loads(line) for line in file.read_text(encoding="utf-8").splitlines()]
    for row in rows:
        if part == "plan":
            del row["plan"][field]
        elif row.get("kind") == part:
            del row[field]
    file.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
    capsys.readouterr()
    assert run_cli(path, "report") == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    assert err.startswith("error: ") and f"{store}: line " in err and "is malformed" in err


@pytest.mark.parametrize("last", [False, True], ids=["first-line", "last-line"])
@pytest.mark.parametrize("store, kind, field, value", [
    ("diagnostics.jsonl", "lexical", "coverage_cdf", math.nan),  # its first fraction
    ("diagnostics.jsonl", "lexical", "h_bits", math.nan),
    ("diagnostics.jsonl", "lexical", "ttr", math.nan),
    ("diagnostics.jsonl", "lexical", "top20_mass", math.nan),
    ("runs.jsonl", None, "mean_ndcg", math.nan),
    ("runs.jsonl", None, "delta_ndcg", math.inf),
])
def test_a_stored_number_that_is_not_finite_is_an_error(tmp_path, capsys, store, kind, field,
                                                         value, last):
    # json.dumps writes NaN and Infinity and json.loads reads them back, but
    # the program writes neither: a row that holds one is malformed, on the
    # last line too, where a line that does not parse reads as torn
    path = write_matrix_config(tmp_path)
    assert run_cli(path, "run-matrix") == 0
    file = tmp_path / "out" / store
    rows = [json.loads(line) for line in file.read_text(encoding="utf-8").splitlines()]
    row = rows.pop(max(i for i, row in enumerate(rows)  # the arm's, which has deltas
                       if row.get("kind") == kind and row.get(field) is not None))
    if field == "coverage_cdf":
        row[field][0][1] = value
    else:
        row[field] = value
    rows.insert(len(rows) if last else 0, row)
    file.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
    line = len(rows) if last else 1
    for command in ("report", "correlate", "advise"):
        capsys.readouterr()
        assert run_cli(path, command) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {file}: line {line} is malformed: "), command
        assert "is not a finite number" in err and len(err.splitlines()) == 1, command


@pytest.mark.parametrize("last", [False, True], ids=["first-line", "last-line"])
@pytest.mark.parametrize("store, kind, field, literal", [
    ("runs.jsonl", None, "delta_ndcg", "1e999"),
    ("runs.jsonl", None, "k", "1e999"),
    ("diagnostics.jsonl", "lexical", "coverage_cdf", "-1e999"),  # its first fraction
    ("diagnostics.jsonl", "lexical", "curve_rank", "1e999"),  # its first rank
    ("diagnostics.jsonl", "lexical", "k80", "1e999"),
    ("diagnostics.jsonl", "lexical", "top20_mass", "1e999"),
    ("diagnostics.jsonl", "lexical", "hapax_type_rate", "-1e999"),
    ("diagnostics.jsonl", "lexical", "hapax_token_rate", "1e999"),
    ("diagnostics.jsonl", "lexical", "delta_h_bits", "1e999"),
    ("diagnostics.jsonl", "geometry", "delta_s_bar", "-1e999"),
    ("diagnostics.jsonl", "geometry", "batch_size_used", "1e999"),
])
def test_a_stored_number_literal_that_overflows_is_an_error(tmp_path, capsys, store, kind,
                                                            field, literal, last):
    # json reads a literal past the float range as an infinity, which no
    # range check of the row may let through, and int() cannot convert
    path = write_matrix_config(tmp_path)
    assert run_cli(path, "run-matrix") == 0
    file = tmp_path / "out" / store
    rows = [json.loads(line) for line in file.read_text(encoding="utf-8").splitlines()]
    row = rows.pop(max(i for i, row in enumerate(rows)  # the arm's, which has deltas
                       if row.get("kind") == kind))
    marker = 123456.789  # a number the row holds nowhere else
    if field == "coverage_cdf":
        row[field][0][1] = marker
    elif field == "curve_rank":
        row["coverage_cdf"][0][0] = marker
    else:
        assert row[field] is not None
        row[field] = marker
    rows.insert(len(rows) if last else 0, row)
    text = "".join(json.dumps(row) + "\n" for row in rows)
    assert text.count(repr(marker)) == 1
    file.write_text(text.replace(repr(marker), literal), encoding="utf-8")
    line = len(rows) if last else 1
    for command in ("report", "correlate", "advise"):
        capsys.readouterr()
        assert run_cli(path, command) == 1, command
        err = capsys.readouterr().err
        assert err.startswith(f"error: {file}: line {line} is malformed: "), command
        assert len(err.splitlines()) == 1 and "Traceback" not in err, command


def test_report_names_the_k_of_its_runs_and_rejects_more_than_one(tmp_path, capsys):
    path = write_matrix_config(tmp_path)
    assert run_cli(path, "run-matrix") == 0
    assert run_cli(path, "report") == 0
    header = (tmp_path / "out" / "report" / "runs.csv").read_text(encoding="utf-8").splitlines()[0]
    assert header == "encoder,task,rewriter,strategy,regime,ndcg@3,delta_ndcg"
    file = tmp_path / "out" / "runs.jsonl"
    lines = file.read_text(encoding="utf-8").splitlines(keepends=True)
    lines[-1] = json.dumps({**json.loads(lines[-1]), "k": 10}) + "\n"
    file.write_text("".join(lines), encoding="utf-8")
    capsys.readouterr()
    assert run_cli(path, "report") == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "runs.jsonl: [3, 10]" in err


def _audit_after(tmp_path, capsys, edit) -> tuple[int, str]:
    """``audit``'s exit status and stderr after *edit* rewrote the lines
    of the NL-QC cell's ``rewrites.jsonl``."""
    path = write_matrix_config(tmp_path)
    assert run_cli(path, "run-matrix") == 0
    file = tmp_path / "out" / "cells" / "bow__toy__ident__NL__QC" / "rewrites.jsonl"
    lines = file.read_text(encoding="utf-8").splitlines(keepends=True)
    file.write_text("".join(edit(lines)), encoding="utf-8")
    capsys.readouterr()
    return (run_cli(path, "audit", "--task", "toy", "--sample-size", "10"),
            capsys.readouterr().err)


def test_audit_skips_a_torn_last_rewrite_record(tmp_path, capsys):
    status, err = _audit_after(tmp_path, capsys, lambda lines: lines + ['{"source_id": "d'])
    assert status == 0 and err == ""
    bundle = json.loads((tmp_path / "out" / "audit.json").read_text(encoding="utf-8"))
    assert len(bundle) == len(TOY_DOCS) + len(TOY_QUERIES)  # the NL-QC cell's records


@pytest.mark.parametrize("edit", [
    lambda lines: ['{"source_id": "d\n', *lines],
    lambda lines: ['{"source_id": "d1"}\n', *lines],
    lambda lines: [json.dumps({**json.loads(lines[0]), "output_text": "", "failed": False}) + "\n",
                   *lines[1:]],
], ids=["malformed", "no-arm", "empty-output-not-failed"])
def test_audit_rejects_a_bad_inner_rewrite_record(tmp_path, capsys, edit):
    status, err = _audit_after(tmp_path, capsys, edit)
    assert status == 1
    assert err.startswith("error: ") and "rewrites.jsonl: line 1 is malformed" in err


@pytest.mark.parametrize("command, blocked", [
    ("report", "report"),  # a regular file where the report directory goes
    ("run-matrix", "cells/bow__toy__Baseline"),  # ... where a cell directory goes
    ("eval", "scored/bow__toy__Baseline"),
    ("retrieve", "rankings_toy__bow__Baseline.jsonl")])  # a directory at the file's path
def test_a_file_that_cannot_be_written_is_one_naming_it(tmp_path, capsys, command, blocked):
    path = write_matrix_config(tmp_path)
    out = tmp_path / "out"
    if command == "report":
        assert run_cli(path, "run-matrix") == 0
    (out / blocked).parent.mkdir(parents=True, exist_ok=True)
    if command == "retrieve":
        (out / blocked).mkdir()
    else:
        (out / blocked).write_text("in the way\n", encoding="utf-8")
    capsys.readouterr()
    argv = ["--task", "toy", "--encoder", "bow"] if command in ("retrieve", "eval") else []
    assert run_cli(path, command, *argv) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    # run-matrix fails the one cell whose files it cannot write
    failed = "  FAILED bow__toy__Baseline: " if command == "run-matrix" else "error: "
    assert err.startswith(f"{failed}cannot write {out / blocked}")
    assert not list(out.rglob("*.tmp"))


@pytest.mark.parametrize("command, blocked, content, named", [
    ("ingest", "corpus.jsonl", None, "corpus.jsonl"),  # a task file that is missing
    ("run-matrix", "cache/embeddings", "in the way\n", "cache/embeddings/vectors.bin"),
    ("run-matrix", "cache", "in the way\n", "cache/embeddings/vectors.bin"),
    ("report", "out/summary.json", "{not json", "out/summary.json"),
    ("report", "out/summary.json", "[1, 2]\n", "out/summary.json"),
    ("report", "out/summary.json", '{"seed": 0}\n', "out/summary.json"),
    ("report", "out/summary.json", "a directory", "out/summary.json")],
    ids=["missing-task-file", "embeddings-a-file", "cache-a-file", "summary-not-json",
         "summary-not-an-object", "summary-without-config-hash", "summary-a-directory"])
def test_a_file_that_cannot_be_read_is_one_naming_it(tmp_path, capsys, command, blocked,
                                                     content, named):
    path = write_matrix_config(tmp_path)
    if command == "report":
        assert run_cli(path, "run-matrix") == 0
    target = tmp_path / blocked
    target.unlink(missing_ok=True)
    target.parent.mkdir(parents=True, exist_ok=True)
    if content == "a directory":
        target.mkdir()
    elif content is not None:
        target.write_text(content, encoding="utf-8")
    capsys.readouterr()
    assert run_cli(path, command) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    assert err.startswith("error: ") and str(tmp_path / named) in err


@pytest.mark.parametrize("blocked, content", [
    ("config.yaml", b"seed: \xff\n"),
    ("templates/nl.md", b"---\ntemplate_id: nl\n---\n\xff{input}\n"),
    ("templates/nl.md", None),  # a directory
    ("vocab.txt", b"def\n\xff\n")],
    ids=["config-not-utf8", "template-not-utf8", "template-a-directory", "vocab-not-utf8"])
def test_an_input_file_that_cannot_be_read_is_two_naming_it(tmp_path, capsys, blocked,
                                                           content):
    encoders = [{"encoder_id": "bow", "url": "mock://bow?dim=16",
                 "tokenizer": {"kind": "vocab", "vocab_file": "vocab.txt"}}]
    path = write_matrix_config(tmp_path, encoders=encoders if blocked == "vocab.txt" else None,
                               template_catalog=Path(blocked).parent.name or "identity")
    target = tmp_path / blocked
    target.parent.mkdir(exist_ok=True)
    if content is None:
        target.mkdir()
    else:
        target.write_bytes(content)
    assert run_cli(path, "run-matrix") == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    assert err.startswith("configuration error: ") and str(target) in err
