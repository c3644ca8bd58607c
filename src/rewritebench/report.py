"""Report emission from the run and diagnostics stores.

Every file is generated with stable ordering and stable float formatting,
so identical stores produce identical bytes. Missing baselines surface as
gaps in the summary; nothing is interpolated or fabricated.
"""

from __future__ import annotations

import csv
import json
from collections import defaultdict
from pathlib import Path

from .advisor import Advice, advise
from .errors import DomainError
from .lexical import LexicalReport
from .geometry import GeometryReport
from .models import Regime, RunRecord, Strategy
from .stats import JoinedRow, correlation_table, stars
from .stores import DiagnosticsStore, RunStore, write_json

# correlations.csv's method for a pair whose correlation is undefined; its
# statistic fields are empty
METHOD_UNDEFINED = "undefined"

LEXICAL_TABLE_COLUMNS = ("Vocab", "Unique", "H_bits", "Delta_H", "TTR",
                         "Top20_mass", "Hapax_pct")


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float):
        return repr(x)
    return str(x)


def write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    """Write *header* and *rows* to *path*; the caller makes the directory."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _arm_strategy(arm: str) -> str:
    return arm.split("-")[0]


def _reject_duplicates(path: Path, keys) -> None:
    seen = set()
    for key in keys:
        if key in seen:
            raise DomainError(f"duplicate cell key {key!r} in {path}")
        seen.add(key)


_REPORTS = {"lexical": LexicalReport.from_dict, "geometry": GeometryReport.from_dict}


def load_stores(out_dir: str | Path) -> tuple[list[RunRecord], list[LexicalReport],
                                              list[GeometryReport]]:
    """The stores' records; a cell key stored twice (say, by an ``eval``
    after ``run-matrix``) is a DomainError, and a row that lacks a field a
    StoreError."""
    out_dir = Path(out_dir)
    run_store = RunStore(out_dir / "runs.jsonl")
    runs = run_store.records()
    _reject_duplicates(run_store.path, ((r.plan.encoder_id, r.plan.task_id, r.plan.rewriter_id,
                                         r.plan.arm_label) for r in runs))
    diag = DiagnosticsStore(out_dir / "diagnostics.jsonl")
    reports = diag.read(lambda d: (d["kind"], _REPORTS[d["kind"]](d)))
    _reject_duplicates(diag.path, ((kind, r.encoder_id, r.task_id, r.rewriter_id, r.arm)
                                   for kind, r in reports))
    lexical = [r for kind, r in reports if kind == "lexical"]
    geometry = [r for kind, r in reports if kind == "geometry"]
    return runs, lexical, geometry


def join_rows(runs: list[RunRecord], lexical: list[LexicalReport],
              geometry: list[GeometryReport]) -> list[JoinedRow]:
    """Join arm records with both diagnostics on the full cell key."""
    lex = {(r.encoder_id, r.task_id, r.rewriter_id, r.arm): r for r in lexical}
    geo = {(r.encoder_id, r.task_id, r.rewriter_id, r.arm): r for r in geometry}
    rows = []
    for rec in runs:
        if rec.plan.is_baseline or rec.delta_ndcg is None:
            continue
        key = (rec.plan.encoder_id, rec.plan.task_id, rec.plan.rewriter_id, rec.plan.arm_label)
        lx, ge = lex.get(key), geo.get(key)
        if lx is None or ge is None or lx.delta_h_bits is None or ge.delta_s_bar is None:
            continue
        rows.append(JoinedRow(
            encoder_id=rec.plan.encoder_id, task_id=rec.plan.task_id,
            rewriter_id=rec.plan.rewriter_id,
            strategy=rec.plan.strategy.value, regime=rec.plan.regime.value,
            delta_h=lx.delta_h_bits, delta_s=ge.delta_s_bar,
            delta_ndcg=rec.delta_ndcg))
    rows.sort(key=lambda r: (r.encoder_id, r.task_id, r.rewriter_id,
                             r.strategy, r.regime))
    return rows


def ndcg_table(runs: list[RunRecord]) -> tuple[list[str], list[list]]:
    """Per-task NDCG pivot: one row per (encoder, rewriter, regime, technique)."""
    tasks = sorted({r.plan.task_id for r in runs})
    cells: dict[tuple[str, str, str, str], dict[str, float]] = defaultdict(dict)
    for r in runs:
        key = (r.plan.encoder_id, r.plan.rewriter_id, r.plan.regime.value,
               r.plan.strategy.value)
        cells[key][r.plan.task_id] = r.mean_ndcg
    header = ["encoder", "rewriter", "regime", "technique", *tasks, "Avg"]
    rows = []
    for key in sorted(cells):
        present = cells[key]
        values = [present.get(t) for t in tasks]
        known = [v for v in values if v is not None]
        avg = sum(known) / len(known) if known else None
        rows.append([*key, *values, avg])
    return header, rows


def lexical_table(lexical: list[LexicalReport]) -> tuple[list[str], list[list]]:
    """Aggregate lexical statistics per (encoder, rewriter, strategy),
    averaged across tasks (and regimes, whose corpus-side stats coincide)."""
    groups: dict[tuple[str, str, str], list[LexicalReport]] = defaultdict(list)
    for r in lexical:
        groups[(r.encoder_id, r.rewriter_id, _arm_strategy(r.arm))].append(r)
    header = ["encoder", "rewriter", "strategy", *LEXICAL_TABLE_COLUMNS]
    rows = []
    for key in sorted(groups):
        rs = groups[key]
        deltas = [r.delta_h_bits for r in rs if r.delta_h_bits is not None]
        mean = lambda vals: sum(vals) / len(vals)  # noqa: E731
        rows.append([
            *key,
            rs[0].vocab_size,
            mean([r.unique_types for r in rs]),
            mean([r.h_bits for r in rs]),
            mean(deltas) if deltas else None,
            mean([r.ttr for r in rs]),
            mean([r.top20_mass for r in rs]),
            mean([100.0 * r.hapax_type_rate for r in rs]),
        ])
    return header, rows


def shift_table(lexical: list[LexicalReport], geometry: list[GeometryReport],
                ) -> tuple[list[str], list[list]]:
    """Mean entropy and cosine shift per (encoder, rewriter, strategy)."""
    lex: dict[tuple[str, str, str], list[float]] = defaultdict(list)
    geo: dict[tuple[str, str, str], list[float]] = defaultdict(list)
    for r in lexical:
        if r.delta_h_bits is not None:
            lex[(r.encoder_id, r.rewriter_id, _arm_strategy(r.arm))].append(r.delta_h_bits)
    for g in geometry:
        if g.delta_s_bar is not None:
            geo[(g.encoder_id, g.rewriter_id, _arm_strategy(g.arm))].append(g.delta_s_bar)
    header = ["encoder", "rewriter", "strategy", "delta_H", "delta_s_bar"]
    rows = []
    for key in sorted(set(lex) | set(geo)):
        dh = lex.get(key)
        ds = geo.get(key)
        rows.append([*key,
                     sum(dh) / len(dh) if dh else None,
                     sum(ds) / len(ds) if ds else None])
    return header, rows


def correlation_report(rows: list[JoinedRow]) -> tuple[list[str], list[list]]:
    header = ["pair", "regime", "n", "method",
              "spearman_rho", "spearman_p", "spearman_stars",
              "pearson_r", "pearson_p", "pearson_stars"]
    out = []
    for regime in (Regime.C, Regime.QC):
        in_regime = [r for r in rows if r.regime == regime.value]
        if len(in_regime) < 3:
            continue
        for x_label, y_label, res in correlation_table(rows, regime):
            pair = f"{x_label} vs {y_label}"
            if isinstance(res, DomainError):  # e.g. every arm has one delta
                out.append([pair, regime.value, len(in_regime), METHOD_UNDEFINED,
                            *[None] * 6])
                continue
            out.append([pair, regime.value, res.n, res.method,
                        res.spearman_rho, res.spearman_p, stars(res.spearman_p),
                        res.pearson_r, res.pearson_p, stars(res.pearson_p)])
    return header, out


def dominance_counts(runs: list[RunRecord]) -> dict:
    """QC-vs-C paired wins and C-regime degradation counts."""
    by_key: dict[tuple[str, str, str, str], dict[str, float]] = defaultdict(dict)
    for r in runs:
        if r.plan.is_baseline:
            continue
        key = (r.plan.encoder_id, r.plan.task_id, r.plan.rewriter_id, r.plan.strategy.value)
        by_key[key][r.plan.regime.value] = r.mean_ndcg
    pairs = {k: v for k, v in by_key.items() if "QC" in v and "C" in v}
    qc_wins = sum(1 for v in pairs.values() if v["QC"] > v["C"])

    c_arms = [r for r in runs
              if not r.plan.is_baseline and r.plan.regime is Regime.C
              and r.delta_ndcg is not None]
    degraded = sum(1 for r in c_arms if r.delta_ndcg < 0)

    def ratio(k: int, n: int) -> str:
        return f"{k}/{n} ({100.0 * k / n:.1f}%)" if n else "0/0 (n/a)"

    return {
        "qc_dominates_c": ratio(qc_wins, len(pairs)),
        "qc_dominates_c_wins": qc_wins,
        "qc_vs_c_pairs": len(pairs),
        "c_degradation": ratio(degraded, len(c_arms)),
        "c_degraded_count": degraded,
        "c_arm_count": len(c_arms),
    }


def find_gaps(runs: list[RunRecord]) -> list[str]:
    """Arms whose baseline was unavailable, so deltas are missing."""
    return sorted(
        f"{r.plan.encoder_id}/{r.plan.task_id}/{r.plan.rewriter_id}/{r.plan.arm_label}: "
        "no baseline delta" for r in runs if not r.plan.is_baseline and r.delta_ndcg is None)


def advise_from_reports(lexical: list[LexicalReport],
                        skip_threshold: float = 0.0) -> list[Advice]:
    """One recommendation per (task, rewriter): mean entropy gain per
    strategy across encoders (regimes collapse; corpus stats coincide)."""
    groups: dict[tuple[str, str], dict[Strategy, list[float]]] = defaultdict(
        lambda: defaultdict(list))
    for r in lexical:
        if r.delta_h_bits is None:
            continue
        strategy = Strategy(_arm_strategy(r.arm))
        groups[(r.task_id, r.rewriter_id)][strategy].append(r.delta_h_bits)
    out = []
    for (task_id, rewriter_id) in sorted(groups):
        per_strategy = {s: sum(v) / len(v) for s, v in groups[(task_id, rewriter_id)].items()}
        out.append(advise(task_id, per_strategy, skip_threshold=skip_threshold,
                          rewriter_id=rewriter_id))
    return out


def write_reports(out_dir: str | Path, *, skip_threshold: float = 0.0) -> list[Path]:
    """Emit the full report set from the stores under *out_dir*."""
    out_dir = Path(out_dir)
    runs, lexical, geometry = load_stores(out_dir)
    if not runs:
        raise DomainError(f"run store under {out_dir} is empty")
    report_dir = out_dir / "report"
    report_dir.mkdir(parents=True, exist_ok=True)
    written = []

    header, rows = ndcg_table(runs)
    write_csv(report_dir / "ndcg_by_task.csv", header, rows)
    written.append(report_dir / "ndcg_by_task.csv")

    write_csv(report_dir / "runs.csv",
               ["encoder", "task", "rewriter", "strategy", "regime",
                "ndcg@10", "delta_ndcg"],
               [[r.plan.encoder_id, r.plan.task_id, r.plan.rewriter_id,
                 r.plan.strategy.value, r.plan.regime.value,
                 r.mean_ndcg, r.delta_ndcg]
                for r in sorted(runs, key=lambda r: (
                    r.plan.encoder_id, r.plan.task_id, r.plan.rewriter_id,
                    r.plan.strategy.value, r.plan.regime.value))])
    written.append(report_dir / "runs.csv")

    header, rows = lexical_table(lexical)
    write_csv(report_dir / "lexical_table.csv", header, rows)
    written.append(report_dir / "lexical_table.csv")

    header, rows = shift_table(lexical, geometry)
    write_csv(report_dir / "shift_table.csv", header, rows)
    written.append(report_dir / "shift_table.csv")

    joined = join_rows(runs, lexical, geometry)
    header, rows = correlation_report(joined)
    write_csv(report_dir / "correlations.csv", header, rows)
    written.append(report_dir / "correlations.csv")

    write_csv(report_dir / "scatter.csv",
               ["encoder", "task", "rewriter", "strategy", "regime",
                "delta_H", "delta_s_bar", "delta_ndcg"],
               [[r.encoder_id, r.task_id, r.rewriter_id, r.strategy, r.regime,
                 r.delta_h, r.delta_s, r.delta_ndcg] for r in joined])
    written.append(report_dir / "scatter.csv")

    advices = advise_from_reports(lexical, skip_threshold=skip_threshold)
    advice_path = report_dir / "advice.json"
    write_json(advice_path, [a.to_dict() for a in advices])
    written.append(advice_path)

    summary = {"counts": dominance_counts(runs), "gaps": find_gaps(runs)}
    matrix_summary = out_dir / "summary.json"
    if matrix_summary.exists():
        meta = json.loads(matrix_summary.read_text(encoding="utf-8"))
        summary["config_hash"] = meta.get("config_hash")
        summary["seed"] = meta.get("seed")
    summary_path = report_dir / "summary.json"
    write_json(summary_path, summary)
    written.append(summary_path)
    return written
