"""Each cache is keyed by what determines its answers: an embedding by the
encoder's fingerprint (model id and URL) and the text, a rewrite by the
rewriter's fingerprint, the template's system text, user text and token
limit, and the source. A ``mock://table`` URL is fingerprinted by the
table's bytes, not its path. So an edit to any of these is asked for
again, a moved checkout is not, and a cache written under the old keys
reads as all misses. A changed table is covered in ``test_matrix.py``
(``TestTableRewriter``).
"""

import json
import re
import shutil
from collections import Counter
from pathlib import Path

from conftest import FIXTURES
from rewritebench import embed
from rewritebench.config import load_config
from rewritebench.matrix import run_matrix

DEMO = Path(__file__).resolve().parent.parent / "demo"
TEMPLATES = Path(__file__).resolve().parent.parent / "src" / "rewritebench" / "templates_data"
N_TEXTS = 24  # the demo's 6 docs and 6 queries, each as given and rewritten


def demo_copy(root: Path) -> Path:
    """A copy of ``demo/`` under *root*, without outputs or caches; its
    config writes ``out/`` and ``cache/`` beside itself."""
    shutil.copytree(DEMO, root, ignore=shutil.ignore_patterns("out", "cache"))
    return root / "config.yaml"


def edit(path: Path, old: str, new: str) -> None:
    text = path.read_text(encoding="utf-8")
    assert old in text
    path.write_text(text.replace(old, new), encoding="utf-8")


def run(config: Path) -> dict[str, int]:
    result = run_matrix(load_config(config))
    assert result.exit_status == 0, result.failures
    return result.endpoint_calls


def masked_tree(root: Path) -> dict[str, bytes]:
    return {p.relative_to(root).as_posix():
            re.sub(rb'"timestamp": "[^"]*"', b'"timestamp": ""', p.read_bytes())
            for p in sorted(root.rglob("*")) if p.is_file()}


def test_changed_encoder_dim_is_fetched_again(tmp_path):
    config = demo_copy(tmp_path / "demo")
    assert run(config)["encoder:bow"] == 3
    edit(config, "mock://bow?dim=512", "mock://bow?dim=128")
    calls = run(config)
    # 24 distinct texts at embed_batch_size 8, and no rewrite asked again
    assert calls == {"encoder:bow": 3, "rewriter:nlmock": 0}
    manifest = (tmp_path / "demo" / "cache" / "embeddings" / "manifest.jsonl")
    dims = [json.loads(line)["dim"] for line in manifest.read_text().splitlines()]
    assert dims == [512] * N_TEXTS + [128] * N_TEXTS
    fresh = demo_copy(tmp_path / "fresh")
    edit(fresh, "mock://bow?dim=512", "mock://bow?dim=128")
    run(fresh)
    assert masked_tree(tmp_path / "demo" / "out") == masked_tree(tmp_path / "fresh" / "out")


def test_changed_template_body_asks_for_that_template_again(tmp_path):
    config = demo_copy(tmp_path / "demo")
    shutil.copytree(TEMPLATES, tmp_path / "demo" / "templates")
    edit(config, "template_catalog: identity", "template_catalog: templates")
    first = run(config)
    assert first["rewriter:nlmock"] == 12
    edit(tmp_path / "demo" / "templates" / "nl_t2c_query.md",
         "Return only the restated request.", "Return the restated request alone.")
    calls = run(config)
    # the 6 query prompts under the edited template, and their 6 new rewrites
    assert calls == {"encoder:bow": 1, "rewriter:nlmock": 6}
    assert run(config) == {"encoder:bow": 0, "rewriter:nlmock": 0}


def test_moved_checkout_keeps_its_warm_cache(tmp_path):
    run(demo_copy(tmp_path / "a"))
    shutil.copytree(tmp_path / "a", tmp_path / "b")
    shutil.rmtree(tmp_path / "b" / "out")
    assert run(tmp_path / "b" / "config.yaml") == {"encoder:bow": 0, "rewriter:nlmock": 0}
    assert masked_tree(tmp_path / "b" / "out") == masked_tree(tmp_path / "a" / "out")


def test_cache_of_the_old_keys_reads_as_all_misses(tmp_path):
    fresh = demo_copy(tmp_path / "fresh")
    run(fresh)
    config = demo_copy(tmp_path / "old")
    cache = tmp_path / "old" / "cache"
    shutil.copytree(FIXTURES / "legacy_cache", cache)
    shutil.copy(FIXTURES / "golden_demo" / "cache" / "embeddings" / "vectors.bin",
                cache / "embeddings" / "vectors.bin")
    assert run(config) == {"encoder:bow": 3, "rewriter:nlmock": 12}
    assert masked_tree(tmp_path / "old" / "out") == masked_tree(tmp_path / "fresh" / "out")


def test_each_text_is_keyed_once_per_run(tmp_path, monkeypatch):
    # the fetch stage keys each distinct (encoder, text) once and hands the
    # keys of a text set to every gather of it, on a cold run and a warm one
    config = demo_copy(tmp_path / "demo")
    keyed: Counter = Counter()
    content_key = embed.content_key

    def counting(fingerprint: str, text: str) -> str:
        keyed[fingerprint, text] += 1
        return content_key(fingerprint, text)

    monkeypatch.setattr(embed, "content_key", counting)
    for temperature in ("cold", "warm"):
        keyed.clear()
        calls = run(config)
        assert calls["encoder:bow"] == (0 if temperature == "warm" else 3)
        assert len(keyed) == N_TEXTS and set(keyed.values()) == {1}, temperature
