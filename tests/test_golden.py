"""Byte-for-byte guards on outputs that refactors must not change.

The fixtures under ``fixtures/golden_demo/`` and
``fixtures/lexical_report_golden.json`` were written by the code as it
stood before the tokenizer memo, the partitioned top-k, the bulk cache
read and the single-count lexical report went in.
"""

import json
from pathlib import Path

import pytest

from conftest import FIXTURES
from rewritebench.cli import main
from rewritebench.lexical import build_lexical_report
from rewritebench.tokenizers import WordTokenizer

DEMO = Path(__file__).resolve().parent.parent / "demo"
GOLDEN = FIXTURES / "golden_demo"
CELL_FILES = ("record.json", "lexical.json", "geometry.json")


def _golden_files() -> list[str]:
    names = sorted(p.relative_to(GOLDEN).as_posix() for p in GOLDEN.rglob("*")
                   if p.is_file())
    assert names, "golden fixtures are missing"
    return names


@pytest.fixture(scope="module")
def demo_out(tmp_path_factory):
    root = tmp_path_factory.mktemp("demo")
    argv = ["--config", str(DEMO / "config.yaml"),
            "--out-dir", str(root / "out"), "--cache-dir", str(root / "cache")]
    assert main([*argv, "run-matrix"]) == 0
    assert main([*argv, "report"]) == 0
    return root / "out"


def test_golden_covers_every_compared_output(demo_out):
    produced = sorted(
        [p.relative_to(demo_out).as_posix() for p in (demo_out / "report").glob("*.csv")]
        + ["runs.jsonl"]
        + [p.relative_to(demo_out).as_posix() for name in CELL_FILES
           for p in (demo_out / "cells").glob(f"*/{name}")])
    assert produced == _golden_files()


@pytest.mark.parametrize("name", _golden_files())
def test_demo_output_bytes_match_golden(demo_out, name):
    assert (demo_out / name).read_bytes() == (GOLDEN / name).read_bytes()


def test_lexical_report_matches_golden():
    texts = [json.loads(line)["text"] for line in
             (FIXTURES / "lexical_corpus.jsonl").read_text().splitlines()]
    golden = json.loads((FIXTURES / "lexical_report_golden.json").read_text())
    for vocab_size, expected in golden.items():
        report = build_lexical_report(texts, WordTokenizer(vocab_size=int(vocab_size)),
                                      encoder_id="bow", task_id="lex", arm="Baseline")
        assert report.to_dict() == expected
