import pytest

from conftest import (TOY_DOCS, TOY_QRELS, TOY_QUERIES, write_jsonl,
                      write_matrix_config, write_qrels)
from rewritebench.config import load_config
from rewritebench.matrix import CellKey, Stages
from rewritebench.models import Regime, Strategy, TaskFamily

BASELINE = CellKey(encoder_id="bow", task_id="toy")


def arm_cell(strategy: Strategy = Strategy.NL, regime: Regime = Regime.QC) -> CellKey:
    return CellKey(encoder_id="bow", task_id="toy", rewriter_id="ident",
                   strategy=strategy, regime=regime)


def scored(tmp_path, cells, docs=TOY_DOCS, queries=TOY_QUERIES, qrels=TOY_QRELS):
    """One Stages over a toy config (mock bow encoder, k=3, identity
    rewriter and templates) and each cell's result, scored in order by it."""
    write_jsonl(tmp_path / "corpus.jsonl", docs)
    write_jsonl(tmp_path / "queries.jsonl", queries)
    write_qrels(tmp_path / "qrels.tsv", qrels)
    cfg = load_config(write_matrix_config(tmp_path, tasks=[
        {"task_id": "toy", "family": "CodeToCode", "corpus": "corpus.jsonl",
         "queries": "queries.jsonl", "qrels": "qrels.tsv"}]))
    with Stages(cfg, cells) as stages:
        stages.rewrite()
        stages.fetch()
        return stages, [stages.score(cell, stages.corpus(cell)) for cell in cells]


def score_cells(tmp_path, cells, **inputs):
    """Each cell's result, as :func:`scored` scores it."""
    return scored(tmp_path, cells, **inputs)[1]


def n_records(stages: Stages, cell: CellKey) -> tuple[int, int]:
    """The numbers of rewrite records of the documents and the queries *cell* ranks."""
    return tuple(len(stages.side(cell, side).records) for side in ("documents", "queries"))


class TestBaselineArm:
    def test_query_matching_doc_scores_one(self, tmp_path):
        # queries are exact copies of their relevant docs: ideal retrieval
        stages, (arm,) = scored(
            tmp_path, [BASELINE],
            queries=[{"_id": f"q{i}", "text": d["text"]}
                     for i, d in enumerate(TOY_DOCS, 1)],
            qrels=[(f"q{i}", d["_id"], 1) for i, d in enumerate(TOY_DOCS, 1)])
        assert arm.run_record.mean_ndcg == 1.0
        assert arm.run_record.delta_ndcg is None
        assert arm.lexical.delta_h_bits is None
        assert arm.geometry.delta_s_bar is None
        assert n_records(stages, BASELINE) == (0, 0)

    def test_diagnostics_attached(self, tmp_path):
        (arm,) = score_cells(tmp_path, [BASELINE])
        assert arm.lexical.arm == "Baseline"
        assert arm.geometry.batch_size_used == len(TOY_DOCS)
        assert arm.lexical.task_id == "toy"


class TestIdentityNoOp:
    @pytest.mark.parametrize("strategy", [Strategy.REPHRASE, Strategy.PSEUDO,
                                          Strategy.NL])
    def test_identity_qc_equals_baseline(self, tmp_path, strategy):
        stages, (base, arm) = scored(tmp_path, [BASELINE, arm_cell(strategy)])
        assert arm.run_record.ndcg_per_query == base.run_record.ndcg_per_query
        assert arm.run_record.mean_ndcg == base.run_record.mean_ndcg
        assert arm.run_record.delta_ndcg == 0.0
        assert arm.lexical.delta_h_bits == pytest.approx(0.0, abs=1e-12)
        assert arm.geometry.delta_s_bar == pytest.approx(0.0, abs=1e-12)
        assert n_records(stages, arm_cell(strategy)) == (len(TOY_DOCS), len(TOY_QUERIES))

    def test_identity_c_regime_rewrites_corpus_only(self, tmp_path):
        stages, (arm,) = scored(tmp_path, [arm_cell(regime=Regime.C)])
        assert n_records(stages, arm_cell(regime=Regime.C)) == (len(TOY_DOCS), 0)
        assert arm.run_record.delta_ndcg is None  # no Baseline was scored


class TestEvaluateArm:
    def test_returns_run_record_with_delta(self, tmp_path):
        cell = arm_cell()
        _, arm = score_cells(tmp_path, [BASELINE, cell])
        assert arm.run_record.delta_ndcg == 0.0
        assert arm.run_record.plan == cell
        assert arm.run_record.plan.task_family is TaskFamily.CODE_TO_CODE

    def test_excluded_queries_counted(self, tmp_path):
        (arm,) = score_cells(
            tmp_path, [BASELINE],
            queries=TOY_QUERIES + [{"_id": "q_nopos", "text": "unjudged query text"}])
        assert arm.excluded_queries == 1
        assert "q_nopos" not in arm.run_record.ndcg_per_query
