import pytest

from rewritebench.errors import ContractError, DomainError
from rewritebench.models import (CellKey, Document, Query, Regime, RunRecord,
                                 Strategy, TaskFamily)


class TestDocumentAndQuery:
    def test_rejects_empty_id(self):
        with pytest.raises(DomainError):
            Document(id="", text="x")

    def test_rejects_whitespace_text(self):
        with pytest.raises(DomainError):
            Document(id="d1", text="   \n\t ")
        with pytest.raises(DomainError):
            Query(id="q1", text="")

    def test_roundtrip_fields(self):
        d = Document(id="d1", text="body", title="t")
        assert (d.id, d.text, d.title) == ("d1", "body", "t")


BASELINE = CellKey(encoder_id="e", task_id="t")


def arm(strategy=Strategy.NL, regime=Regime.QC, **fields) -> CellKey:
    return CellKey(encoder_id="e", task_id="t", rewriter_id="rw", strategy=strategy,
                   regime=regime, **fields)


class TestCellKey:
    def test_baseline_requires_regime_none(self):
        with pytest.raises(ContractError):
            arm(strategy=Strategy.BASELINE)
        with pytest.raises(ContractError):
            arm(regime=Regime.NONE)

    def test_arm_labels(self):
        assert BASELINE.arm_label == "Baseline"
        assert arm().arm_label == "NL-QC"
        assert arm(Strategy.PSEUDO, Regime.C).arm_label == "Pseudo-C"

    def test_rewrites_corpus_in_every_arm_and_queries_under_qc_only(self):
        sides = ("documents", "queries")
        assert [BASELINE.rewrites(s) for s in sides] == [False, False]
        assert [arm(regime=Regime.QC).rewrites(s) for s in sides] == [True, True]
        assert [arm(regime=Regime.C).rewrites(s) for s in sides] == [True, False]

    def test_task_family_takes_no_part_in_equality(self):
        hybrid = arm(task_family=TaskFamily.HYBRID)
        assert hybrid == arm() and hash(hybrid) == hash(arm())
        assert hybrid.task_family is TaskFamily.HYBRID

    def test_dict_roundtrip(self):
        plan = arm(Strategy.REPHRASE, Regime.C, task_family=TaskFamily.HYBRID)
        rec = RunRecord(plan=plan, ndcg_per_query={"q1": 0.5}, mean_ndcg=0.5)
        back = RunRecord.from_dict(rec.to_dict()).plan
        assert back == plan
        assert (back.rewriter_id, back.task_family) == (plan.rewriter_id, TaskFamily.HYBRID)


class TestRunRecord:
    def _record(self, per_query, mean):
        return RunRecord(plan=BASELINE, ndcg_per_query=per_query, mean_ndcg=mean)

    def test_mean_must_match_per_query(self):
        self._record({"q1": 0.5, "q2": 1.0}, 0.75)
        with pytest.raises(DomainError):
            self._record({"q1": 0.5, "q2": 1.0}, 0.76)

    def test_values_bounded(self):
        with pytest.raises(DomainError):
            self._record({"q1": 1.5}, 1.5)

    def test_needs_at_least_one_query(self):
        with pytest.raises(DomainError):
            self._record({}, 0.0)

    def test_dict_roundtrip_is_identity(self):
        rec = RunRecord(
            plan=arm(Strategy.REPHRASE, Regime.C, task_family=TaskFamily.HYBRID),
            ndcg_per_query={"q1": 0.123456789012345, "q2": 1.0},
            mean_ndcg=(0.123456789012345 + 1.0) / 2,
            delta_ndcg=-0.0625, gain="linear", k=10)
        back = RunRecord.from_dict(rec.to_dict())
        assert back == rec
        assert back.to_dict() == rec.to_dict()  # the task family too
