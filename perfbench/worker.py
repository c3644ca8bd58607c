"""The timed part of one benchmark run, in a process of its own.

    python3 perfbench/worker.py --config CFG --work DIR --seconds S \
        --trace 0|1 --result OUT.json [--cold]

Run from the root of a checkout: the program is imported from ``src`` and
driven through its own entry point, ``rewritebench.cli.main``. Each
iteration runs ``run-matrix`` into a fresh output directory and then
``report`` on it ``REPORT_REPEATS`` times, until ``--seconds`` have passed.
``--cold`` gives every iteration an empty cache; otherwise all iterations
share the cache that set-up filled. Before each ``run-matrix`` the worker
times the reference work of ``reference.py``, so that the summary can scale
the iteration's times by the host's speed at that moment.

With ``--trace 1`` untraced and traced iterations alternate; a traced one
has every layer wrapped (see ``spans.py``). Both kinds see the same drift
in machine speed, so the difference of their medians is the tracing
overhead. Either way the endpoint clients are wrapped, to count upstream
calls.

After the loop the worker checks the outputs and writes everything to
``--result`` as JSON.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import random
import resource
import shutil
import sys
import time
from collections import defaultdict
from pathlib import Path

import gen
import reference
import spans

CHECK_QUERIES = 20  # queries per cell compared with the NDCG oracle
REPORT_REPEATS = 5  # reports timed on the stores of each run-matrix


def layer_metrics(recorded: list[spans.Span], matrix_s: float) -> dict[str, float]:
    """Per-layer figures of one iteration, named as in BENCHMARK.json. The
    report layers are per report."""
    by: dict[str, list[spans.Span]] = defaultdict(list)
    for s in recorded:
        by[s.layer].append(s)

    def total(layer):
        return sum(s.duration for s in by[layer])

    def own(layer):
        return sum(s.self_time for s in by[layer])

    def ratio(num, den):
        return num / den if den else 0.0

    rewrites = [s.count for s in by["rewrite"] if s.count is not None]
    prompts = {s.count for s in by["rewrite.endpoint"]}
    return {
        "tokenizers.s": total("tokenizers"),
        "tokenizers.tokens": sum(s.count or 0 for s in by["tokenizers"]),
        "lexical.s": own("lexical"),
        "retrieval.topk_s": total("retrieval.topk"),
        "retrieval.queries": sum(s.count or 0 for s in by["retrieval.topk"]),
        "retrieval.ndcg_s": total("retrieval.ndcg"),
        "embed.s": own("embed"),
        "embed.texts": sum(s.count or 0 for s in by["embed"]),
        "embed.cache_get_s": total("embed.cache_get"),
        "embed.cache_hit_ratio": ratio(sum(s.count or 0 for s in by["embed.cache_get"]),
                                       len(by["embed.cache_get"])),
        "embed.cache_put_s": total("embed.cache_put"),
        "embed.cache_puts": len(by["embed.cache_put"]),
        "embed.endpoint_calls": len(by["embed.endpoint"]),
        "embed.endpoint_wait_s": total("embed.endpoint"),
        "rewrite.s": own("rewrite"),
        "rewrite.items": sum(n for n, _ in rewrites),
        "rewrite.endpoint_calls": len(by["rewrite.endpoint"]),
        "rewrite.endpoint_wait_s": total("rewrite.endpoint"),
        "rewrite.calls_per_unique": ratio(len(by["rewrite.endpoint"]), len(prompts)),
        "rewrite.cache_hit_ratio": ratio(sum(s.count or 0 for s in by["rewrite.cache_get"]),
                                         len(by["rewrite.cache_get"])),
        "rewrite.fallbacks": sum(f for _, f in rewrites),
        "geometry.s": total("geometry"),
        "ingest.s": total("ingest"),
        "ingest.items": sum(s.count or 0 for s in by["ingest"]),
        "pipeline.s": own("pipeline"),
        "pipeline.cells": len(by["pipeline"]),
        "matrix.self_s": own("matrix"),
        "stores.append_s": total("stores"),
        "stores.appends": len(by["stores"]),
        "report.s": own("report") / REPORT_REPEATS,
        "stats.s": total("stats") / REPORT_REPEATS,
        "stats.pairs": len(by["stats.pair"]) / REPORT_REPEATS,
        "trace.coverage": ratio(sum(s.covered() for s in by["matrix"]), matrix_s),
    }


def read_outcome(out: Path) -> dict:
    """Failure counts, run-store shape and report bytes of one iteration."""
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    rewrites = fallbacks = 0
    for path in (out / "cells").glob("*/rewrites.jsonl"):
        for line in path.read_text(encoding="utf-8").splitlines():
            rewrites += 1
            fallbacks += bool(json.loads(line)["failed"])
    rows = [json.loads(line) for line in
            (out / "runs.jsonl").read_text(encoding="utf-8").splitlines() if line.strip()]
    keys = {(r["encoder_id"], r["task_id"], r["plan"]["rewriter_id"],
             r["plan"]["strategy"], r["plan"]["regime"]) for r in rows}
    ok_cells = summary["n_cells"] - len(summary["failures"])
    return {
        "cells": summary["n_cells"],
        "failed_cells": len(summary["failures"]),
        "rewrites": rewrites,
        "fallbacks": fallbacks,
        "runs_rows_ok": len(rows) == len(keys) == ok_cells,
        "report": {p.name: p.read_bytes() for p in sorted(out.glob("report/*.csv"))},
    }


def _read_jsonl(path: Path) -> list[tuple[str, str]]:
    rows = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()
            if line.strip()]
    return [(r["_id"], r["text"]) for r in rows]


def _oracle_ndcg(scores: list[float], doc_ids: list[str], grades: dict[str, int],
                 k: int) -> float:
    """NDCG@k after a full sort by score descending, then doc id ascending."""
    order = sorted(range(len(doc_ids)), key=lambda j: (-scores[j], doc_ids[j]))
    dcg = sum(grades.get(doc_ids[j], 0) / math.log2(i + 2)
              for i, j in enumerate(order[:k]) if grades.get(doc_ids[j], 0) > 0)
    ideal = sorted((g for g in grades.values() if g > 0), reverse=True)[:k]
    return dcg / sum(g / math.log2(i + 2) for i, g in enumerate(ideal))


def check_ndcg(config: Path, out: Path, cache: Path, seed: int) -> list[str]:
    """Compare each cell's stored NDCG on a sample of queries with the oracle,
    over the vectors the run used (read back through the embedding cache)."""
    from rewritebench.config import load_config
    from rewritebench.embed import EmbeddingCache, EncoderClient, embed_texts

    cfg = load_config(config, cache_dir=str(cache))
    client = EncoderClient(cfg.encoders[0].endpoint)
    vectors = EmbeddingCache(cfg.cache_dir / "embeddings")
    table = json.loads((config.parent / "rewrites.json").read_text(encoding="utf-8"))
    rows = [json.loads(line) for line in
            (out / "runs.jsonl").read_text(encoding="utf-8").splitlines() if line.strip()]
    rng = random.Random(seed)
    errors = []
    for task in cfg.tasks:
        docs, queries = _read_jsonl(task.corpus), _read_jsonl(task.queries)
        qrels: dict[str, dict[str, int]] = defaultdict(dict)
        for line in task.qrels.read_text(encoding="utf-8").splitlines():
            q, d, g = line.split("\t")
            qrels[q][d] = int(g)
        doc_ids = [i for i, _ in docs]
        for row in (r for r in rows if r["task_id"] == task.task_id):
            strategy, regime = row["plan"]["strategy"], row["plan"]["regime"]
            label = f"{task.task_id}/{strategy}-{regime}"

            def texts(items, rewritten):
                return [table[gen.prompt(strategy, x)] if rewritten else x
                        for _, x in items]

            dmat = embed_texts(doc_ids, texts(docs, strategy != "Baseline"),
                               client, vectors)
            qmat = embed_texts([i for i, _ in queries], texts(queries, regime == "QC"),
                               client, vectors)
            scores = qmat.vectors @ dmat.vectors.T
            stored = row["ndcg_per_query"]
            if set(stored) != set(qrels):
                errors.append(f"{label}: scored queries differ from the judged ones")
                continue
            for qi in rng.sample(range(len(queries)), min(CHECK_QUERIES, len(queries))):
                qid = queries[qi][0]
                want = _oracle_ndcg(scores[qi].tolist(), doc_ids, qrels[qid], cfg.k)
                if abs(stored[qid] - want) > 1e-12:
                    errors.append(f"{label}/{qid}: stored NDCG {stored[qid]!r}, "
                                  f"oracle {want!r}")
    return errors


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", required=True, type=Path)
    parser.add_argument("--work", required=True, type=Path)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--result", required=True, type=Path)
    parser.add_argument("--cold", action="store_true")
    args = parser.parse_args()

    sys.path.insert(0, str(Path("src").resolve()))
    from rewritebench.cli import main as cli_main

    tracer = spans.Tracer()
    tracer.install(spans.ENDPOINTS)
    endpoints_missing = list(tracer.missing)
    iterations: list[dict] = []
    shared_cache = args.work / "cache"

    start = time.perf_counter()
    # At least two iterations of each kind, whatever --seconds is.
    while len(iterations) < 2 + 2 * args.trace or time.perf_counter() - start < args.seconds:
        i = len(iterations)
        traced = bool(args.trace and i % 2)
        out = args.work / f"out{i}"
        cache = args.work / f"cache{i}" if args.cold else shared_cache
        base = ["--config", str(args.config), "--out-dir", str(out)]
        gc.collect()
        ref_s = reference.seconds()
        if traced:
            tracer.install(spans.STAGES)
        # Every timed command starts from a collected heap, as a fresh CLI
        # process would; otherwise garbage left by the previous command is
        # collected inside some timed commands and not others.
        gc.collect()
        t0 = time.perf_counter()
        rc = [cli_main(base + ["--cache-dir", str(cache), "run-matrix"])]
        matrix_s = time.perf_counter() - t0
        report_s: list[float] = []
        for _ in range(REPORT_REPEATS):
            gc.collect()
            t1 = time.perf_counter()
            rc.append(cli_main(base + ["report"]))
            report_s.append(time.perf_counter() - t1)
        if traced:
            tracer.uninstall(spans.STAGES)
        recorded = tracer.drain()
        it = {"matrix_s": matrix_s, "report_s": report_s, "ref_s": ref_s,
              "traced": traced, "rc": rc,
              "endpoint_calls": sum(s.layer.endswith(".endpoint") for s in recorded),
              **read_outcome(out)}
        if traced:
            it["layers"] = layer_metrics(recorded, matrix_s)
        if iterations:  # keep the latest outputs only
            shutil.rmtree(args.work / f"out{i - 1}", ignore_errors=True)
            if args.cold:
                shutil.rmtree(args.work / f"cache{i - 1}", ignore_errors=True)
        iterations.append(it)

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    tracer.uninstall(spans.ENDPOINTS)

    last = len(iterations) - 1
    cache = args.work / f"cache{last}" if args.cold else shared_cache
    reports = [it["report"] for it in iterations]
    checks = {
        "exit codes 0": all(rc == 0 for it in iterations for rc in it["rc"]),
        "endpoint clients wrapped": not endpoints_missing,
        "warm runs make 0 endpoint calls": args.cold or all(
            it["endpoint_calls"] == 0 for it in iterations),
        "report/*.csv bytes equal across runs": bool(reports[0]) and all(
            r == reports[0] for r in reports),
        "runs.jsonl has one row per successful cell": all(
            it["runs_rows_ok"] for it in iterations),
    }
    ndcg_errors = check_ndcg(args.config, args.work / f"out{last}", cache, args.seed)
    checks["per-query NDCG equals the brute-force oracle"] = not ndcg_errors
    for msg in ndcg_errors[:10] + [f"not wrapped: {m}" for m in tracer.missing]:
        print(msg, file=sys.stderr)

    for it in iterations:
        del it["report"]
    args.result.write_text(json.dumps({
        "iterations": iterations,
        "peak_rss_mb": peak_rss_mb,
        "checks": checks,
    }, indent=1), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
