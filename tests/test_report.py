import csv
import json
from pathlib import Path

import pytest

from conftest import write_matrix_config
from rewritebench.config import load_config
from rewritebench.errors import DomainError
from rewritebench.geometry import GeometryReport
from rewritebench.lexical import CoverageCurve, LexicalReport
from rewritebench.matrix import run_matrix
from rewritebench.models import CellKey, Regime, RunRecord, Strategy
from rewritebench.report import (LEXICAL_TABLE_COLUMNS, advise_from_reports,
                                 correlation_report, dominance_counts,
                                 find_gaps, join_rows, lexical_table,
                                 ndcg_table, write_reports)
from rewritebench.stats import JoinedRow
from rewritebench.stores import DiagnosticsStore, RunStore


def _lexical(encoder, task, arm, h=5.0, delta=None, rewriter="rw") -> LexicalReport:
    return LexicalReport(
        encoder_id=encoder, task_id=task, arm=arm, rewriter_id=rewriter,
        vocab_size=1000, h_bits=h, unique_types=64, total_tokens=640,
        ttr=0.1, top20_mass=0.5, hapax_type_rate=0.25, hapax_token_rate=0.025,
        coverage=CoverageCurve(points=((1, 1.0),), k80=1), delta_h_bits=delta)


def _geometry(encoder, task, arm, s=0.3, delta=None, rewriter="rw") -> GeometryReport:
    return GeometryReport(encoder_id=encoder, task_id=task, arm=arm,
                          rewriter_id=rewriter, s_bar=s, batch_size_used=64,
                          delta_s_bar=delta)


def _run(encoder, task, strategy, regime, mean, delta=None, rewriter="rw") -> RunRecord:
    if strategy is Strategy.BASELINE:
        rewriter = ""
    plan = CellKey(encoder_id=encoder, task_id=task, rewriter_id=rewriter,
                   strategy=strategy, regime=regime)
    return RunRecord(plan=plan, ndcg_per_query={"q": mean}, mean_ndcg=mean,
                     delta_ndcg=delta)


def build_synthetic_store(out_dir: Path, n_cells: int = 8) -> None:
    """Constructed ground truth: delta_ndcg == delta_H exactly and
    delta_s == -delta_H, under both regimes, for n_cells combos."""
    runs = RunStore(out_dir / "runs.jsonl")
    diag = DiagnosticsStore(out_dir / "diagnostics.jsonl")
    combos = [(f"e{i // 4}", f"t{i % 4}") for i in range(n_cells)]
    seen = set()
    for i, (enc, task) in enumerate(combos):
        if (enc, task) in seen:
            continue
        seen.add((enc, task))
        runs.append(_run(enc, task, Strategy.BASELINE, Regime.NONE, 0.1))
        diag.append("lexical", _lexical(enc, task, "Baseline", rewriter="").to_dict())
        diag.append("geometry", _geometry(enc, task, "Baseline", rewriter="").to_dict())
    for i, (enc, task) in enumerate(combos):
        d = 0.01 * (i + 1)
        for regime in (Regime.QC, Regime.C):
            arm = f"NL-{regime.value}"
            runs.append(_run(enc, task, Strategy.NL, regime, 0.1 + d, delta=d))
            diag.append("lexical",
                        _lexical(enc, task, arm, h=5.0 + d, delta=d).to_dict())
            diag.append("geometry",
                        _geometry(enc, task, arm, s=0.3 - d, delta=-d).to_dict())


class TestJoinRows:
    def test_joins_on_full_key(self, tmp_path):
        build_synthetic_store(tmp_path)
        runs = RunStore(tmp_path / "runs.jsonl").records()
        diag = DiagnosticsStore(tmp_path / "diagnostics.jsonl")
        lexical = [LexicalReport.from_dict(d) for d in diag.by_kind("lexical")]
        geometry = [GeometryReport.from_dict(d) for d in diag.by_kind("geometry")]
        rows = join_rows(runs, lexical, geometry)
        assert len(rows) == 16  # 8 combos x 2 regimes
        for row in rows:
            assert row.delta_ndcg == row.delta_h
            assert row.delta_s == -row.delta_h


class TestCorrelationReport:
    def test_constructed_rho_one_with_stars(self, tmp_path):
        build_synthetic_store(tmp_path, n_cells=8)
        runs = RunStore(tmp_path / "runs.jsonl").records()
        diag = DiagnosticsStore(tmp_path / "diagnostics.jsonl")
        lexical = [LexicalReport.from_dict(d) for d in diag.by_kind("lexical")]
        geometry = [GeometryReport.from_dict(d) for d in diag.by_kind("geometry")]
        header, rows = correlation_report(join_rows(runs, lexical, geometry))
        assert header[:4] == ["pair", "regime", "n", "method"]
        by_key = {(r[0], r[1]): r for r in rows}
        for regime in ("C", "QC"):
            row = by_key[("delta_h vs delta_ndcg", regime)]
            assert row[4] == 1.0          # spearman rho
            assert row[6] == "***"        # 2/8! < 0.001
            inverse = by_key[("delta_s vs delta_ndcg", regime)]
            assert inverse[4] == -1.0
            assert inverse[6] == "***"
            cross = by_key[("delta_h vs delta_s", regime)]
            assert cross[4] == -1.0

    def test_undefined_pair_gets_its_own_row(self):
        # delta_ndcg is constant: both pairs against it are undefined, the
        # delta_h vs delta_s pair is still reported
        rows = [JoinedRow(encoder_id="e", task_id=f"t{i}", rewriter_id="rw",
                          strategy="NL", regime="QC", delta_h=0.1 * i,
                          delta_s=-0.2 * i, delta_ndcg=0.0) for i in range(4)]
        header, out = correlation_report(rows)
        by_pair = {r[0]: r for r in out}
        assert list(by_pair) == ["delta_h vs delta_ndcg", "delta_s vs delta_ndcg",
                                 "delta_h vs delta_s"]
        for pair in ("delta_h vs delta_ndcg", "delta_s vs delta_ndcg"):
            assert by_pair[pair] == [pair, "QC", 4, "undefined"] + [None] * 6
        assert by_pair["delta_h vs delta_s"][3] == "permutation"
        assert by_pair["delta_h vs delta_s"][4] == -1.0

    def test_identity_rewrites_still_write_every_report(self, tmp_path):
        # every arm of an identity rewriter has the same (zero) deltas
        cfg = load_config(write_matrix_config(
            tmp_path, strategies=("Rephrase", "Pseudo", "NL"), regimes=("QC", "C")))
        assert run_matrix(cfg).exit_status == 0
        written = write_reports(cfg.out_dir)
        assert len(written) == 8
        with open(cfg.out_dir / "report" / "correlations.csv", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 1 + 2 * 3
        for row in rows[1:]:
            assert row[2:] == ["3", "undefined", "", "", "", "", "", ""]

    def test_sparse_regime_skipped(self):
        header, rows = correlation_report([])
        assert rows == []


class TestTables:
    def test_lexical_table_has_reference_columns(self, tmp_path):
        build_synthetic_store(tmp_path)
        diag = DiagnosticsStore(tmp_path / "diagnostics.jsonl")
        lexical = [LexicalReport.from_dict(d) for d in diag.by_kind("lexical")]
        header, rows = lexical_table(lexical)
        assert tuple(header[-7:]) == LEXICAL_TABLE_COLUMNS
        assert len(rows) > 0
        strategies = {r[2] for r in rows}
        assert strategies == {"Baseline", "NL"}
        # hapax is reported as a percentage
        hapax_col = header.index("Hapax_pct")
        assert rows[0][hapax_col] == pytest.approx(25.0)

    def test_ndcg_table_pivot(self, tmp_path):
        build_synthetic_store(tmp_path)
        runs = RunStore(tmp_path / "runs.jsonl").records()
        header, rows = ndcg_table(runs)
        assert header[:4] == ["encoder", "rewriter", "regime", "technique"]
        assert header[-1] == "Avg"
        tasks = [c for c in header[4:-1]]
        assert tasks == sorted(tasks)
        baseline_rows = [r for r in rows if r[3] == "Baseline"]
        assert len(baseline_rows) == 2  # one per encoder


class TestCounts:
    def test_dominance_and_degradation(self):
        runs = []
        # 3 pairs: QC wins twice, loses once; C degrades twice
        specs = [("e0", "t0", 0.5, 0.4, 0.45), ("e0", "t1", 0.6, 0.3, 0.5),
                 ("e1", "t0", 0.2, 0.3, 0.25)]
        for enc, task, qc, c, base in specs:
            runs.append(_run(enc, task, Strategy.BASELINE, Regime.NONE, base))
            runs.append(_run(enc, task, Strategy.NL, Regime.QC, qc, delta=qc - base))
            runs.append(_run(enc, task, Strategy.NL, Regime.C, c, delta=c - base))
        counts = dominance_counts(runs)
        assert counts["qc_dominates_c_wins"] == 2
        assert counts["qc_vs_c_pairs"] == 3
        assert counts["qc_dominates_c"] == "2/3 (66.7%)"
        assert counts["c_degraded_count"] == 2
        assert counts["c_degradation"] == "2/3 (66.7%)"

    def test_all_c_underperform_is_hundred_percent(self):
        runs = []
        for i in range(4):
            enc, task = f"e{i}", "t"
            runs.append(_run(enc, task, Strategy.BASELINE, Regime.NONE, 0.5))
            runs.append(_run(enc, task, Strategy.NL, Regime.C, 0.4, delta=-0.1))
        counts = dominance_counts(runs)
        assert counts["c_degradation"] == "4/4 (100.0%)"
        assert counts["qc_vs_c_pairs"] == 0

    def test_missing_baseline_is_gap(self):
        runs = [_run("e", "t", Strategy.NL, Regime.QC, 0.5, delta=None)]
        gaps = find_gaps(runs)
        assert len(gaps) == 1
        assert "no baseline delta" in gaps[0]


class TestAdviseFromReports:
    def test_mean_over_encoders(self):
        lex = [
            _lexical("e0", "t", "NL-QC", delta=0.4),
            _lexical("e1", "t", "NL-QC", delta=0.2),
            _lexical("e0", "t", "Rephrase-QC", delta=0.1),
            _lexical("e1", "t", "Rephrase-QC", delta=0.1),
        ]
        (advice,) = advise_from_reports(lex)
        assert advice.recommended == "NL"
        assert advice.delta_h[Strategy.NL] == pytest.approx(0.3)

    def test_skip_when_all_negative(self):
        lex = [_lexical("e0", "t", "NL-QC", delta=-0.2)]
        (advice,) = advise_from_reports(lex)
        assert advice.recommended == "Skip"


class TestWriteReports:
    def test_full_report_set(self, tmp_path):
        build_synthetic_store(tmp_path)
        written = write_reports(tmp_path)
        names = {p.name for p in written}
        assert names == {"ndcg_by_task.csv", "runs.csv", "lexical_table.csv",
                         "shift_table.csv", "correlations.csv", "scatter.csv",
                         "advice.json", "summary.json"}
        with open(tmp_path / "report" / "lexical_table.csv") as fh:
            header = next(csv.reader(fh))
        assert tuple(header[-7:]) == LEXICAL_TABLE_COLUMNS
        summary = json.loads((tmp_path / "report" / "summary.json").read_text())
        assert "counts" in summary and "gaps" in summary

    def test_deterministic_bytes(self, tmp_path):
        build_synthetic_store(tmp_path)
        write_reports(tmp_path)
        first = {p.name: p.read_bytes()
                 for p in (tmp_path / "report").iterdir()}
        write_reports(tmp_path)
        second = {p.name: p.read_bytes()
                  for p in (tmp_path / "report").iterdir()}
        assert first == second

    def test_duplicate_run_key_rejected(self, tmp_path):
        build_synthetic_store(tmp_path)
        RunStore(tmp_path / "runs.jsonl").append(
            _run("e0", "t1", Strategy.NL, Regime.C, 0.5, delta=0.4))
        with pytest.raises(DomainError, match=r"duplicate cell key "
                           r"\('e0', 't1', 'rw', 'NL-C'\) in .*runs\.jsonl"):
            write_reports(tmp_path)

    def test_duplicate_diagnostics_key_rejected(self, tmp_path):
        build_synthetic_store(tmp_path)
        DiagnosticsStore(tmp_path / "diagnostics.jsonl").append(
            "geometry", _geometry("e1", "t0", "Baseline", rewriter="").to_dict())
        with pytest.raises(DomainError, match=r"duplicate cell key "
                           r"\('geometry', 'e1', 't0', '', 'Baseline'\) in "
                           r".*diagnostics\.jsonl"):
            write_reports(tmp_path)

    def test_empty_store_rejected(self, tmp_path):
        with pytest.raises(DomainError):
            write_reports(tmp_path)
