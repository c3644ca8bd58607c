"""Byte-for-byte guards on outputs that refactors must not change.

The fixtures under ``fixtures/golden_demo/`` and
``fixtures/lexical_report_golden.json`` were written by the code as it
stood before the tokenizer memo, the partitioned top-k, the bulk cache
read and the single-count lexical report went in. The rest of what the
demo's ``run-matrix`` + ``report`` writes, the caches under ``cache/``
included, was pinned before the rewrite-record serialiser, the ``indent=1``
writer and the batched embedding-cache append went in; its ``timestamp``
values are masked. ``cache/rewrites.jsonl`` and
``cache/embeddings/manifest.jsonl`` were written again when the caches
were keyed by content. The demo runs from a copy of ``demo/``, so the
cache keys are pinned not to depend on where the checkout lies.
"""

import json
import re
import shutil
from pathlib import Path

import pytest

from conftest import FIXTURES
from rewritebench.cli import main
from rewritebench.lexical import build_lexical_report
from rewritebench.tokenizers import WordTokenizer

DEMO = Path(__file__).resolve().parent.parent / "demo"
GOLDEN = FIXTURES / "golden_demo"


def _mask(data: bytes) -> bytes:
    return re.sub(rb'"timestamp": "[^"]*"', b'"timestamp": "MASKED"', data)


def _golden_files() -> list[str]:
    names = sorted(p.relative_to(GOLDEN).as_posix() for p in GOLDEN.rglob("*")
                   if p.is_file())
    assert names, "golden fixtures are missing"
    return names


@pytest.fixture(scope="module")
def demo_root(tmp_path_factory):
    root = tmp_path_factory.mktemp("copy") / "demo"
    shutil.copytree(DEMO, root, ignore=shutil.ignore_patterns("out", "cache"))
    argv = ["--config", str(root / "config.yaml")]  # out/ and cache/ under root
    assert main([*argv, "run-matrix"]) == 0
    assert main([*argv, "report"]) == 0
    return root


def _produced(root: Path, name: str) -> Path:
    """Where the demo wrote golden file *name*: caches under ``cache/``,
    the rest under ``out/``."""
    return root / name if name.startswith("cache/") else root / "out" / name


def test_golden_covers_every_compared_output(demo_root):
    """Every file the demo writes, outputs and caches, has a fixture."""
    out = demo_root / "out"
    produced = sorted(
        [p.relative_to(out).as_posix() for p in out.rglob("*") if p.is_file()]
        + [p.relative_to(demo_root).as_posix() for p in (demo_root / "cache").rglob("*")
           if p.is_file()])
    assert produced == _golden_files()


@pytest.mark.parametrize("name", _golden_files())
def test_demo_output_bytes_match_golden(demo_root, name):
    assert _mask(_produced(demo_root, name).read_bytes()) == (GOLDEN / name).read_bytes()


def test_lexical_report_matches_golden():
    texts = [json.loads(line)["text"] for line in
             (FIXTURES / "lexical_corpus.jsonl").read_text().splitlines()]
    golden = json.loads((FIXTURES / "lexical_report_golden.json").read_text())
    for vocab_size, expected in golden.items():
        report = build_lexical_report(texts, WordTokenizer(vocab_size=int(vocab_size)),
                                      encoder_id="bow", task_id="lex", arm="Baseline")
        assert report.to_dict() == expected
