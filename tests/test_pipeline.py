import gc

import pytest

from conftest import (TOY_DOCS, TOY_QRELS, TOY_QUERIES, write_jsonl,
                      write_matrix_config, write_qrels)
from rewritebench.config import load_config
from rewritebench.errors import ContractError
from rewritebench.matrix import CellKey, Stages
from rewritebench.models import Regime, Strategy, TaskFamily
from rewritebench.retrieval import Judgments
from rewritebench.rewrite import RewriteCache

BASELINE = CellKey(encoder_id="bow", task_id="toy")


def arm_cell(strategy: Strategy = Strategy.NL, regime: Regime = Regime.QC) -> CellKey:
    return CellKey(encoder_id="bow", task_id="toy", rewriter_id="ident",
                   strategy=strategy, regime=regime)


def toy_config(tmp_path, docs=TOY_DOCS, queries=TOY_QUERIES, qrels=TOY_QRELS):
    """A toy config: mock bow encoder, k=3, identity rewriter and templates."""
    write_jsonl(tmp_path / "corpus.jsonl", docs)
    write_jsonl(tmp_path / "queries.jsonl", queries)
    write_qrels(tmp_path / "qrels.tsv", qrels)
    return load_config(write_matrix_config(tmp_path, tasks=[
        {"task_id": "toy", "family": "CodeToCode", "corpus": "corpus.jsonl",
         "queries": "queries.jsonl", "qrels": "qrels.tsv"}]))


def scored(tmp_path, cells, docs=TOY_DOCS, queries=TOY_QUERIES, qrels=TOY_QRELS):
    """One Stages over a :func:`toy_config` and each cell's result, scored
    in order by it, an arm against the result of the last Baseline before
    it."""
    cfg = toy_config(tmp_path, docs, queries, qrels)
    results, baseline = [], None
    with Stages(cfg, cells) as stages:
        stages.rewrite()
        stages.fetch()
        for cell in cells:
            results.append(stages.score(cell, stages.corpus(cell), baseline))
            baseline = results[-1] if cell.is_baseline else baseline
        return stages, results


def score_cells(tmp_path, cells, **inputs):
    """Each cell's result, as :func:`scored` scores it."""
    return scored(tmp_path, cells, **inputs)[1]


def n_records(stages: Stages, cell: CellKey) -> tuple[int, int]:
    """The numbers of rewrite records of the documents and the queries *cell* ranks."""
    return tuple(len(stages.side(cell, side).answers) for side in ("documents", "queries"))


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


def test_the_rewrite_stage_releases_its_cache_and_runs_once(tmp_path):
    # the index of every cached answer is the rewrite stage's alone: once the
    # stage ends no RewriteCache is alive, while the sides keep their answers;
    # a second rewrite is refused rather than asking the endpoint again
    cfg = toy_config(tmp_path)
    for run in ("cold", "warm"):
        with Stages(cfg, [BASELINE, arm_cell()]) as stages:
            stages.rewrite()
            gc.collect()
            assert not [o for o in gc.get_objects() if isinstance(o, RewriteCache)], run
            assert n_records(stages, arm_cell()) == (len(TOY_DOCS), len(TOY_QUERIES))
            assert all(answer.output_text for side in ("documents", "queries")
                       for answer in stages.side(arm_cell(), side).answers)
            with pytest.raises(ContractError, match="already run"):
                stages.rewrite()
            assert stages.rewriters["ident"].call_count == (len(TOY_DOCS) + len(TOY_QUERIES)
                                                            if run == "cold" else 0)


def test_no_judgments_outlive_the_stages(tmp_path):
    # the per-task table is the stages': the results and the Stages object
    # itself, still referenced here, hold none of it once the block ends
    stages, results = scored(tmp_path, [BASELINE, arm_cell()])
    gc.collect()
    assert results and not [o for o in gc.get_objects() if isinstance(o, Judgments)]
