import json
import os
import sys
import threading
from pathlib import Path

import pytest

from rewritebench.ingest import ingest_collection

FIXTURES = Path(__file__).parent / "fixtures"


def pytest_runtest_logreport(report):
    """One visible pass/fail line per acceptance criterion."""
    if report.when == "call" and "test_acceptance" in report.nodeid:
        status = "PASS" if report.passed else "FAIL"
        name = report.nodeid.split("::")[-1]
        print(f"\n[{status}] {name}")


@pytest.fixture
def closing():
    """``closing(cache)`` hands *cache* back and closes it when the test
    ends: a cache that has been written to keeps its append handles open
    until it is closed."""
    caches = []

    def keep(cache):
        caches.append(cache)
        return cache

    yield keep
    for cache in caches:
        cache.close()


def assert_calls_counted_under_threads(client, call, n_calls: int = 200) -> None:
    """Make *n_calls* ``call(client, i)`` calls from each of many threads at
    once, with a 1 us switch interval, and check ``client.call_count``.

    This guards the client's count lock; it does not reproduce the lost
    update, which CPython 3.11 did not show even without the lock.
    """
    n_threads = min(2 * (os.cpu_count() or 1) + 1, 32)
    barrier = threading.Barrier(n_threads)

    def worker():
        barrier.wait()
        for i in range(n_calls):
            call(client, i)

    threads = [threading.Thread(target=worker) for _ in range(n_threads)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert client.call_count == n_threads * n_calls


class FailingWrites:
    """A file whose writes raise ``OSError`` while ``failing`` is set, after
    writing their first ``prefix`` bytes, as a write cut short by a full
    disk does; every other attribute is the wrapped file's."""

    def __init__(self, fh):
        self._fh, self.failing, self.prefix = fh, False, 0

    def write(self, data):
        if self.failing:
            self._fh.write(data[:self.prefix])
            raise OSError(28, "No space left on device")
        return self._fh.write(data)

    def __getattr__(self, name):
        return getattr(self._fh, name)


def open_failing_writes(monkeypatch) -> list[FailingWrites]:
    """Make ``open`` wrap every file it opens to append in
    :class:`FailingWrites`; the returned list collects them in opening order."""
    opened, real_open = [], open

    def wrapping_open(file, mode="r", *args, **kwargs):
        fh = real_open(file, mode, *args, **kwargs)
        if "a" not in mode:
            return fh
        opened.append(FailingWrites(fh))
        return opened[-1]

    monkeypatch.setattr("builtins.open", wrapping_open)
    return opened


def write_jsonl(path: Path, rows: list[dict]) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row, ensure_ascii=False) + "\n")
    return path


def write_qrels(path: Path, rows: list[tuple[str, str, int]], header: bool = False) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        if header:
            fh.write("query-id\tcorpus-id\tscore\n")
        for qid, did, score in rows:
            fh.write(f"{qid}\t{did}\t{score}\n")
    return path


def make_collection(tmp_path: Path, docs: list[dict], queries: list[dict],
                    qrels: list[tuple[str, str, int]], task_id: str = "toy"):
    corpus = write_jsonl(tmp_path / "corpus.jsonl", docs)
    qfile = write_jsonl(tmp_path / "queries.jsonl", queries)
    qrels_file = write_qrels(tmp_path / "qrels.tsv", qrels)
    return ingest_collection(corpus, qfile, qrels_file, task_id=task_id)


@pytest.fixture
def tiny_collection(tmp_path):
    return make_collection(
        tmp_path,
        docs=[{"_id": "d1", "text": "def add(a, b): return a + b"},
              {"_id": "d2", "text": "def mul(a, b): return a * b"}],
        queries=[{"_id": "q1", "text": "sum two numbers add"}],
        qrels=[("q1", "d1", 1)],
    )


def score_after_baseline(baseline_report, report):
    """``score_arm``'s result for an NL-QC cell whose corpus carries
    *report*, scored after a Baseline whose corpus carries
    *baseline_report*: two lexical or two geometry reports of encoder "enc"
    and task "t", each paired with one fixed report of the other kind."""
    from dataclasses import replace

    import numpy as np

    from rewritebench.geometry import EmbeddingMatrix, GeometryReport, l2_normalize
    from rewritebench.ingest import Collection, IngestReport
    from rewritebench.lexical import CoverageCurve, LexicalReport
    from rewritebench.models import CellKey, Query, Regime, Strategy
    from rewritebench.pipeline import Corpus, score_arm

    collection = Collection(task_id="t", documents=[], queries=[Query(id="q1", text="q")],
                            qrels={"q1": {"d1": 1}}, report=IngestReport())
    docs = l2_normalize(EmbeddingMatrix("enc", ("d1", "d2"), np.eye(2)))
    queries = l2_normalize(EmbeddingMatrix("enc", ("q1",), [[1.0, 0.0]]))
    if isinstance(report, LexicalReport):
        other = GeometryReport(encoder_id="enc", task_id="t", arm="corpus",
                               rewriter_id="rw", s_bar=0.5, batch_size_used=2)
    else:
        other = LexicalReport(
            encoder_id="enc", task_id="t", arm="corpus", rewriter_id="rw", vocab_size=10,
            h_bits=1.0, unique_types=2, total_tokens=4, ttr=0.5, top20_mass=0.5,
            hapax_type_rate=0.0, hapax_token_rate=0.0,
            coverage=CoverageCurve(points=((1, 0.5), (2, 1.0)), k80=2))

    def corpus(r) -> Corpus:
        return Corpus(docs, *((r, other) if isinstance(r, LexicalReport) else (other, r)))

    cell = CellKey(encoder_id="enc", task_id="t")
    baseline = score_arm(collection, cell, corpus(baseline_report), queries, k=2)
    arm = replace(cell, rewriter_id="rw", strategy=Strategy.NL, regime=Regime.QC)
    return score_arm(collection, arm, corpus(report), queries, baseline=baseline, k=2)


TOY_DOCS = [
    {"_id": "d1", "text": "def alpha_one(): return rotate_left(grid_state)"},
    {"_id": "d2", "text": "def beta_two(): return rotate_right(grid_state)"},
    {"_id": "d3", "text": "def gamma_three(): return mirror_flip(grid_state)"},
]
TOY_QUERIES = [
    {"_id": "q1", "text": "rotate_left the grid_state alpha_one"},
    {"_id": "q2", "text": "rotate_right the grid_state beta_two"},
    {"_id": "q3", "text": "mirror_flip the grid_state gamma_three"},
]
TOY_QRELS = [("q1", "d1", 1), ("q2", "d2", 1), ("q3", "d3", 1)]


def write_matrix_config(root: Path, *, encoders=None, rewriters=None,
                        strategies=("NL",), regimes=("QC",), tasks=None,
                        template_catalog="identity", seed=7,
                        cache_dir="cache", out_dir="out", extra=None) -> Path:
    """Write a complete offline experiment environment under *root*."""
    import yaml

    root.mkdir(parents=True, exist_ok=True)
    if tasks is None:
        write_jsonl(root / "corpus.jsonl", TOY_DOCS)
        write_jsonl(root / "queries.jsonl", TOY_QUERIES)
        write_qrels(root / "qrels.tsv", TOY_QRELS)
        tasks = [{"task_id": "toy", "family": "CodeToCode",
                  "corpus": "corpus.jsonl", "queries": "queries.jsonl",
                  "qrels": "qrels.tsv"}]
    if encoders is None:
        encoders = [{"encoder_id": "bow", "url": "mock://bow?dim=128",
                     "tokenizer": {"kind": "word"}}]
    if rewriters is None:
        rewriters = [{"rewriter_id": "ident", "url": "mock://identity"}]
    cfg = {
        "seed": seed,
        "cache_dir": cache_dir,
        "out_dir": out_dir,
        "template_catalog": template_catalog,
        "eval": {"k": 3, "gain": "linear"},
        "endpoint": {"embed_batch_size": 8, "retries": 1, "backoff_s": 0.0},
        "tasks": tasks,
        "encoders": encoders,
        "rewriters": rewriters,
        "strategies": list(strategies),
        "regimes": list(regimes),
    }
    if extra:
        cfg.update(extra)
    path = root / "config.yaml"
    path.write_text(yaml.safe_dump(cfg, sort_keys=True), encoding="utf-8")
    return path
