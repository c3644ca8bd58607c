"""Command-line surface.

Subcommands map one-to-one onto pipeline stages (ingest, rewrite, embed,
retrieve, eval, diagnose), analyses (correlate, advise), and the drivers
(run-matrix, report, audit); the stage commands run the matrix's stages
for one cell. Exit codes: 0 success, 1 when any cell or data operation
failed, 2 for configuration errors.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, replace
from pathlib import Path

from .config import ExperimentConfig, load_config
from .errors import ConfigError, WorkbenchError
from .ingest import ingest_collection
from .matrix import CellKey, Stages, plan_cells, run_matrix, write_cells
from .models import Regime, Strategy, path_name
from .pipeline import ArmResult
from .report import (advise_from_reports, correlation_report, join_rows,
                     load_stores, write_csv, write_reports)
from .retrieval import retrieve_topk
from .rewrite import RewriteRecord, audit_sample, write_records
from .stores import JsonlLog, replacing, write_json
from .templates import SIDES


def _task_spec(config: ExperimentConfig, task_id: str):
    for t in config.tasks:
        if t.task_id == task_id:
            return t
    raise ConfigError(f"task {task_id!r} not in config")


def _cells(config: ExperimentConfig, args) -> list[CellKey]:
    """The cells a stage command's flags name: the (encoder, task) Baseline,
    then the arm cell when ``--strategy`` is given."""
    task = _task_spec(config, args.task)
    encoder = getattr(args, "encoder", "")
    if encoder and encoder not in {e.encoder_id for e in config.encoders}:
        raise ConfigError(f"encoder {encoder!r} not in config")
    baseline = CellKey(encoder_id=encoder, task_id=args.task, task_family=task.family)
    if not args.strategy:
        return [baseline]
    if not args.regime or not args.rewriter:
        raise ConfigError("--strategy requires --regime and --rewriter")
    if args.rewriter not in {r.rewriter_id for r in config.rewriters}:
        raise ConfigError(f"rewriter {args.rewriter!r} not in config")
    return [baseline, replace(baseline, rewriter_id=args.rewriter,
                              strategy=Strategy(args.strategy),
                              regime=Regime(args.regime))]


def cmd_ingest(config: ExperimentConfig, args) -> int:
    tasks = [t for t in config.tasks if args.task in (None, t.task_id)]
    if not tasks:
        raise ConfigError(f"task {args.task!r} not in config")
    for t in tasks:
        collection = ingest_collection(t.corpus, t.queries, t.qrels, task_id=t.task_id)
        report = collection.report.to_dict()
        write_json(config.out_dir / f"ingest_{path_name(t.task_id)}.json", report)
        print(f"{t.task_id}: {report['n_documents']} docs, {report['n_queries']} queries, "
              f"{report['n_qrels_rows']} qrels rows, {report['warning_count']} warnings")
    return 0


def cmd_rewrite(config: ExperimentConfig, args) -> int:
    cell = _cells(config, args)[-1]
    with Stages(config, [cell]) as stages:
        stages.rewrite()
        done = {side: stages.side(cell, side) for side in SIDES}
    collection = stages.collections[cell.task_id]
    out = config.out_dir / "rewritten" / path_name(args.task, cell.rewriter_id, cell.arm_label)
    for side, name in zip(SIDES, ("corpus", "queries")):
        if cell.rewrites(side):
            with replacing(out / f"{name}.jsonl") as fh:
                for item, text in zip(getattr(collection, side), done[side].texts):
                    fh.write(json.dumps({"_id": item.id, "text": text},
                                        ensure_ascii=False) + "\n")
    with replacing(out / "records.jsonl") as fh:
        for side in SIDES:
            write_records(fh, cell.arm_label, done[side].record_bodies())
    failed = [not answer.output_text for side in SIDES for answer in done[side].answers]
    print(f"{cell.arm_label}: {len(failed)} rewrites, {sum(failed)} fallbacks -> {out}")
    return 0


def _matrices(config: ExperimentConfig, args):
    """(arm label, corpus matrix, query matrix) of the cell the flags name."""
    cell = _cells(config, args)[-1]
    with Stages(config, [cell]) as stages:
        stages.rewrite()
        stages.fetch(cell.encoder_id)
        return cell.arm_label, stages.corpus(cell).matrix, stages.queries(cell)


def cmd_embed(config: ExperimentConfig, args) -> int:
    arm_label, corpus, qmat = _matrices(config, args)
    print(f"{arm_label}: corpus {corpus.n_rows}x{corpus.dim}, "
          f"queries {qmat.n_rows}x{qmat.dim} (cache warm)")
    return 0


def cmd_retrieve(config: ExperimentConfig, args) -> int:
    arm_label, corpus, qmat = _matrices(config, args)
    ranked = retrieve_topk(qmat, corpus, k=config.k if args.k is None else args.k)
    rewriter = [args.rewriter] if args.strategy else []  # the Baseline has none
    name = path_name(args.task, args.encoder, *rewriter, arm_label)
    out = config.out_dir / f"rankings_{name}.jsonl"
    with replacing(out) as fh:
        for r in ranked:
            fh.write(json.dumps({"query_id": r.query_id,
                                 "entries": [[d, s] for d, s in r.entries]},
                                ensure_ascii=False) + "\n")
    print(f"{len(ranked)} ranked lists -> {out}")
    return 0


def _score(config: ExperimentConfig, args) -> tuple[ArmResult, Path]:
    """The result of the cell the flags name, scored against its Baseline,
    and the directory it writes that cell's files to: ``scored/<cell_id>/``,
    the files ``run-matrix`` writes to ``cells/<cell_id>/``."""
    cells = _cells(config, args)
    arm = None
    with Stages(config, cells) as stages:
        stages.rewrite()
        stages.fetch(cells[0].encoder_id)
        for cell in cells:  # the Baseline, then the arm the flags name, if any
            arm = stages.score(cell, stages.corpus(cell), arm)
    (outcome,) = write_cells(stages, [(cells[-1], arm)], config.out_dir / "scored")
    if isinstance(outcome, WorkbenchError):
        raise outcome
    return arm, config.out_dir / "scored" / cells[-1].cell_id


def cmd_eval(config: ExperimentConfig, args) -> int:
    arm, out = _score(config, args)
    delta = "" if arm.run_record.delta_ndcg is None else \
        f" (delta {arm.run_record.delta_ndcg:+.5f})"
    print(f"{arm.run_record.plan.arm_label}: mean NDCG@{config.k} "
          f"{arm.run_record.mean_ndcg:.5f}{delta}, "
          f"{arm.excluded_queries} queries excluded -> {out}")
    return 0


def cmd_diagnose(config: ExperimentConfig, args) -> int:
    arm, out = _score(config, args)
    dh = arm.lexical.delta_h_bits
    ds = arm.geometry.delta_s_bar
    print(f"{arm.run_record.plan.arm_label}: H {arm.lexical.h_bits:.4f} bits"
          + ("" if dh is None else f" (delta {dh:+.4f})")
          + f", s_bar {arm.geometry.s_bar:+.5f}"
          + ("" if ds is None else f" (delta {ds:+.5f})") + f" -> {out}")
    return 0


def cmd_correlate(config: ExperimentConfig, args) -> int:
    runs, lexical, geometry = load_stores(config.out_dir)
    rows = join_rows(runs, lexical, geometry)
    header, table = correlation_report(rows)
    out = config.out_dir / "report" / "correlations.csv"
    write_csv(out, header, table)
    for row in table:
        print(", ".join("" if v is None else str(v) for v in row[:2] + row[4:7]))
    print(f"-> {out}")
    return 0


def cmd_advise(config: ExperimentConfig, args) -> int:
    _, lexical, _ = load_stores(config.out_dir)
    advices = advise_from_reports(lexical, skip_threshold=args.skip_threshold
                                  if args.skip_threshold is not None
                                  else config.skip_threshold)
    if not advices:
        print("no rewrite-arm diagnostics in the store yet")
        return 1
    write_json(config.out_dir / "report" / "advice.json", [a.to_dict() for a in advices])
    for a in advices:
        print(f"{a.task_id} [{a.rewriter_id}]: {a.recommended} -- {a.rationale}")
    return 0


def cmd_run_matrix(config: ExperimentConfig, args) -> int:
    result = run_matrix(config)
    n_ok = len(result.results)
    print(f"{n_ok} cells ok, {len(result.failures)} failed -> {result.out_dir}")
    for cell, msg in sorted(result.failures.items(), key=lambda kv: kv[0].cell_id):
        print(f"  FAILED {cell.cell_id}: {msg}", file=sys.stderr)
    return result.exit_status


def cmd_report(config: ExperimentConfig, args) -> int:
    written = write_reports(config.out_dir, skip_threshold=config.skip_threshold)
    for path in written:
        print(path)
    return 0


def cmd_audit(config: ExperimentConfig, args) -> int:
    task = _task_spec(config, args.task)
    if args.rewriter not in (None, *(r.rewriter_id for r in config.rewriters)):
        raise ConfigError(f"rewriter {args.rewriter!r} not in config")
    collection = ingest_collection(task.corpus, task.queries, task.qrels,
                                   task_id=task.task_id)
    sources = {d.id: d.text for d in collection.documents}
    sources.update({q.id: q.text for q in collection.queries})
    records: list[RewriteRecord] = []
    cells_dir = config.out_dir / "cells"
    for cell in sorted(plan_cells(config), key=lambda c: c.cell_id):  # by directory name
        if cell.task_id == task.task_id and args.rewriter in (None, cell.rewriter_id):
            JsonlLog(cells_dir / cell.cell_id / "rewrites.jsonl",
                     lambda row: records.append(RewriteRecord(**row)))
    if not records:
        print("no rewrite records found under", cells_dir, file=sys.stderr)
        return 1
    bundle = audit_sample(records, sources, min(args.sample_size, len(records)),
                          args.seed if args.seed is not None else config.seed)
    out = config.out_dir / "audit.json"
    write_json(out, [asdict(item) for item in bundle])
    print(f"{len(bundle)} rewrites sampled -> {out}")
    return 0


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rewritebench",
        description="Rewriting-augmented code retrieval workbench")
    parser.add_argument("--config", required=True, help="experiment config (YAML)")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--cache-dir", default=None)
    parser.add_argument("--out-dir", default=None)
    sub = parser.add_subparsers(dest="command", required=True)

    def arm_flags(p, rewrite=False):
        """The flags naming one cell; ``rewrite`` names an arm, and no encoder."""
        p.add_argument("--task", required=True)
        if not rewrite:
            p.add_argument("--encoder", required=True)
        p.add_argument("--rewriter", required=rewrite)
        p.add_argument("--strategy", required=rewrite,
                       choices=[s.value for s in Strategy if s is not Strategy.BASELINE])
        p.add_argument("--regime", required=rewrite,
                       choices=[Regime.QC.value, Regime.C.value])

    p = sub.add_parser("ingest", help="validate a collection and emit its report")
    p.add_argument("--task", default=None)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("rewrite", help="rewrite one arm's corpus (and queries under QC)")
    arm_flags(p, rewrite=True)
    p.set_defaults(func=cmd_rewrite)

    p = sub.add_parser("embed", help="embed one arm's texts (warms the cache)")
    arm_flags(p)
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("retrieve", help="rank the corpus for every query")
    arm_flags(p)
    p.add_argument("--k", type=_positive_int, default=None)
    p.set_defaults(func=cmd_retrieve)

    p = sub.add_parser("eval", help="score one arm and write its cell's files")
    arm_flags(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("diagnose", help="score one arm's entropy and cosine shift and "
                       "write its cell's files")
    arm_flags(p)
    p.set_defaults(func=cmd_diagnose)

    p = sub.add_parser("correlate", help="correlate shift diagnostics with NDCG deltas")
    p.set_defaults(func=cmd_correlate)

    p = sub.add_parser("advise", help="recommend a strategy (or Skip) per task")
    p.add_argument("--skip-threshold", type=_finite_float, default=None)
    p.set_defaults(func=cmd_advise)

    p = sub.add_parser("run-matrix", help="run every configured cell plus baselines")
    p.set_defaults(func=cmd_run_matrix)

    p = sub.add_parser("report", help="emit the report files from the stores")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("audit", help="sample rewrites for human review")
    p.add_argument("--task", required=True)
    p.add_argument("--rewriter", default=None)
    p.add_argument("--sample-size", type=_positive_int, required=True)
    p.set_defaults(func=cmd_audit)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = load_config(args.config, seed=args.seed,
                             cache_dir=args.cache_dir, out_dir=args.out_dir)
        return args.func(config, args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except WorkbenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
