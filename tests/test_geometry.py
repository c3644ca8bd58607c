import gc
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest

from conftest import score_after_baseline
from rewritebench import geometry
from rewritebench.errors import ConfigError, ContractError, DomainError
from rewritebench.geometry import (EmbeddingMatrix, GeometryReport,
                                   NORM_TOL, build_geometry_report, delta_s,
                                   l2_normalize, mean_offdiag_cosine)


def direct_offdiag_mean(vectors: np.ndarray) -> float:
    """Independent O(B^2 d) oracle: explicit double sum over ordered pairs."""
    b = vectors.shape[0]
    total = 0.0
    for i in range(b):
        for j in range(b):
            if i != j:
                total += float(vectors[i] @ vectors[j])
    return total / (b * (b - 1))


def unit_rows(rng: np.random.Generator, b: int, d: int) -> EmbeddingMatrix:
    mat = EmbeddingMatrix(encoder_id="e", ids=tuple(f"r{i}" for i in range(b)),
                          vectors=rng.standard_normal((b, d)))
    return l2_normalize(mat)


class TestEmbeddingMatrix:
    def test_row_id_alignment_enforced(self):
        with pytest.raises(ContractError):
            EmbeddingMatrix(encoder_id="e", ids=("a",), vectors=np.eye(2))

    def test_normalized_flag_checked(self):
        with pytest.raises(ContractError):
            EmbeddingMatrix(encoder_id="e", ids=("a", "b"),
                            vectors=np.array([[1.0, 0.0], [2.0, 0.0]]),
                            normalized=True)

    def test_normalized_check_agrees_with_linalg_norm(self):
        # rows scaled off unit length by 0.5 or 3 tolerances, far from the
        # boundary compared with the rounding of either way to sum the squares
        rng = np.random.default_rng(3)
        v = rng.standard_normal((200, 64))
        v /= np.linalg.norm(v, axis=1)[:, None]
        v *= 1.0 + rng.choice([-3.0, -0.5, 0.5, 3.0], size=200)[:, None] * NORM_TOL
        for i, row in enumerate(v):
            expected = abs(np.linalg.norm(row) - 1.0) <= NORM_TOL
            try:
                EmbeddingMatrix(encoder_id="e", ids=(f"r{i}",), vectors=row[None],
                                normalized=True)
                accepted = True
            except ContractError as exc:
                assert f"r{i}" in str(exc)
                accepted = False
            assert accepted == expected


class TestL2Normalize:
    def test_three_four_five(self):
        m = EmbeddingMatrix(encoder_id="e", ids=("a",),
                            vectors=np.array([[3.0, 4.0]]))
        out = l2_normalize(m)
        np.testing.assert_allclose(out.vectors, [[0.6, 0.8]], atol=1e-15)
        assert out.normalized

    def test_idempotent_on_unit_rows(self):
        rng = np.random.default_rng(0)
        m = unit_rows(rng, 20, 6)
        again = l2_normalize(m)
        np.testing.assert_allclose(again.vectors, m.vectors, atol=1e-12)

    def test_random_matrix_all_norms_one(self):
        rng = np.random.default_rng(1)
        m = unit_rows(rng, 50, 8)
        np.testing.assert_allclose(np.linalg.norm(m.vectors, axis=1), 1.0, atol=1e-9)

    def test_zero_row_names_id(self):
        m = EmbeddingMatrix(encoder_id="e", ids=("ok", "dead"),
                            vectors=np.array([[1.0, 0.0], [0.0, 0.0]]))
        with pytest.raises(DomainError, match="dead"):
            l2_normalize(m)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e200])
    def test_a_row_whose_norm_is_not_finite_names_its_id(self, bad):
        # 1e200 squares past the float range: the norm is inf
        v = np.ones((3, 4))
        v[1, 2] = bad
        m = EmbeddingMatrix(encoder_id="e", ids=("ok", "bad", "ok2"), vectors=v)
        with pytest.raises(DomainError, match="'bad'"):
            l2_normalize(m)


class TestMeanOffdiagCosine:
    def test_identical_rows_give_one(self):
        v = np.tile(np.array([[0.6, 0.8]]), (5, 1))
        m = EmbeddingMatrix(encoder_id="e", ids=tuple("abcde"), vectors=v,
                            normalized=True)
        assert mean_offdiag_cosine(m) == pytest.approx(1.0, abs=1e-12)

    def test_two_orthogonal_rows_give_zero(self):
        m = EmbeddingMatrix(encoder_id="e", ids=("a", "b"), vectors=np.eye(2),
                            normalized=True)
        assert mean_offdiag_cosine(m) == pytest.approx(0.0, abs=1e-15)

    def test_hand_enumerated_three_vectors(self):
        # pairs: (e1,e2)=0, (e1,e3)=-1, (e2,e3)=0 -> mean -1/3
        v = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
        m = EmbeddingMatrix(encoder_id="e", ids=("a", "b", "c"), vectors=v,
                            normalized=True)
        assert mean_offdiag_cosine(m) == pytest.approx(-1 / 3, abs=1e-12)

    def test_fast_identity_matches_direct_sum(self):
        rng = np.random.default_rng(42)
        for _ in range(30):
            b = int(rng.integers(2, 64))
            d = int(rng.integers(2, 32))
            m = unit_rows(rng, b, d)
            assert mean_offdiag_cosine(m) == pytest.approx(
                direct_offdiag_mean(m.vectors), abs=1e-9)

    def test_rotation_invariance(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            m = unit_rows(rng, 30, 8)
            q, _ = np.linalg.qr(rng.standard_normal((8, 8)))
            rotated = EmbeddingMatrix(encoder_id="e", ids=m.ids,
                                      vectors=m.vectors @ q, normalized=True)
            assert mean_offdiag_cosine(rotated) == pytest.approx(
                mean_offdiag_cosine(m), abs=1e-9)

    def test_row_permutation_invariance(self):
        rng = np.random.default_rng(8)
        m = unit_rows(rng, 25, 5)
        perm = rng.permutation(25)
        shuffled = EmbeddingMatrix(encoder_id="e",
                                   ids=tuple(m.ids[i] for i in perm),
                                   vectors=m.vectors[perm], normalized=True)
        assert mean_offdiag_cosine(shuffled) == pytest.approx(
            mean_offdiag_cosine(m), abs=1e-12)

    def test_gram_lower_bound(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            b = int(rng.integers(2, 40))
            m = unit_rows(rng, b, int(rng.integers(2, 16)))
            s = mean_offdiag_cosine(m)
            assert -1.0 / (b - 1) - 1e-9 <= s <= 1.0 + 1e-9

    def test_requires_normalized_flag(self):
        m = EmbeddingMatrix(encoder_id="e", ids=("a", "b"), vectors=np.eye(2))
        with pytest.raises(ContractError):
            mean_offdiag_cosine(m)

    def test_requires_two_rows(self):
        m = EmbeddingMatrix(encoder_id="e", ids=("a",),
                            vectors=np.array([[1.0, 0.0]]), normalized=True)
        with pytest.raises(DomainError):
            mean_offdiag_cosine(m)


def _traced_peak(fn, *args, **kwargs) -> int:
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _spread(rng: np.random.Generator, shape) -> np.ndarray:
    """Normal entries scaled over six decades, so that the order of the
    adds shows in the bits of a sum."""
    return rng.standard_normal(shape) * 10.0 ** rng.uniform(-3, 3, shape)


LEAF = geometry._LEAF


class TestBoundedScratch:
    """The norms in blocks of rows and the pairwise sum of squares in
    leaves give the bits of numpy's whole-matrix calls."""

    @pytest.mark.parametrize("seed", range(40))
    def test_blocked_norms_are_the_whole_matrix_norms(self, seed):
        rng = np.random.default_rng(seed)
        d = int(rng.choice([1, 7, 64, 160, 256, 1024, 5000]))
        rows = max(1, geometry._SCRATCH_BYTES // (8 * d))
        b = int(rng.integers(1, 4 * rows + 3))
        v = _spread(rng, (b, d))
        want = v / np.linalg.norm(v, axis=1)[:, None]
        m = EmbeddingMatrix(encoder_id="e", ids=tuple(f"r{i}" for i in range(b)), vectors=v)
        assert l2_normalize(m).vectors.tobytes() == want.tobytes()
        assert l2_normalize(m, out=v).vectors.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", sorted({
        1, 7, 8, 9, 127, 128, 129, 1000,
        *(LEAF + e for e in (-9, -8, -7, -1, 0, 1, 7, 8, 9)),
        *(2 * LEAF + e for e in (-17, -16, -15, -1, 0, 1, 15, 16, 17)),
        *(m * LEAF + e for m in (3, 5, 17) for e in (-8, -1, 1, 8)),
        1_000_003}))
    def test_pairwise_sum_of_squares_is_numpys(self, n):
        flat = _spread(np.random.default_rng(n), n)
        got = geometry._sum_of_squares(flat, np.empty(min(n, LEAF)), 0, n)
        assert got == float((flat * flat).sum())

    @pytest.mark.parametrize("seed", range(40))
    def test_mean_offdiag_cosine_keeps_the_sum_of_v_squared(self, seed):
        # the pre-leaf formula, bit for bit: b = 2, one leaf, many leaves,
        # and C-ordered, F-ordered and strided rows
        rng = np.random.default_rng(seed)
        b = 2 if seed % 4 == 0 else int(rng.integers(3, 3 * LEAF // 64))
        m = unit_rows(rng, b, int(rng.choice([8, 63, 64, 65, 256])))
        v = [m.vectors, np.asfortranarray(m.vectors), np.repeat(m.vectors, 2, axis=1)[:, ::2]
             ][seed % 3]
        v = EmbeddingMatrix(encoder_id="e", ids=m.ids, vectors=v, normalized=True).vectors
        total = v.sum(axis=0)
        want = (float(total @ total) - float((v * v).sum())) / (b * (b - 1))
        got = mean_offdiag_cosine(EmbeddingMatrix(encoder_id="e", ids=m.ids, vectors=v,
                                                  normalized=True))
        assert got == want

    def test_the_matrix_is_freed_once_the_last_reference_goes(self):
        # no reference cycle holds it until the cyclic collector runs: a
        # corpus group's matrix is gone before the next one is built
        m = unit_rows(np.random.default_rng(7), 3 * LEAF // 64, 64)  # three leaves
        vectors = weakref.ref(m.vectors)
        gc.disable()
        try:
            mean_offdiag_cosine(m)
            del m
            assert vectors() is None
        finally:
            gc.enable()

    def test_l2_normalize_takes_one_block_beyond_its_output(self):
        rng = np.random.default_rng(5)
        v = rng.standard_normal((1000, 1024))
        m = EmbeddingMatrix(encoder_id="e", ids=tuple(f"r{i}" for i in range(1000)),
                            vectors=v)
        slack = 64 * 1024  # the norms and the checks over them, 8 KB a vector
        assert _traced_peak(l2_normalize, m) < v.nbytes + geometry._SCRATCH_BYTES + slack
        assert _traced_peak(l2_normalize, m, out=v) < geometry._SCRATCH_BYTES + slack

    def test_mean_offdiag_cosine_takes_one_leaf(self):
        m = unit_rows(np.random.default_rng(6), 1000, 1024)
        peak = _traced_peak(mean_offdiag_cosine, m)
        assert peak < LEAF * 8 + 2 * 1024 * 8 + 16 * 1024  # the leaf, the column sums


def _geo(s_bar: float, encoder="enc", task="t", arm="NL-QC") -> GeometryReport:
    return GeometryReport(encoder_id=encoder, task_id=task, arm=arm,
                          rewriter_id="rw", s_bar=s_bar, batch_size_used=100)


class TestDeltaS:
    def test_identical_is_zero(self):
        assert delta_s(_geo(0.3, arm="Baseline"), _geo(0.3)) == 0.0

    def test_published_style_values(self):
        # reference aggregates: NL arm -0.15; Rephrase arm -0.133
        assert delta_s(_geo(0.42, arm="Baseline"), _geo(0.27)) == \
            pytest.approx(-0.15, abs=1e-12)
        assert delta_s(_geo(0.433, arm="Baseline"), _geo(0.3)) == \
            pytest.approx(-0.133, abs=1e-12)

    def test_mismatch_rejected(self):
        with pytest.raises(ConfigError):
            delta_s(_geo(0.3, encoder="a", arm="Baseline"), _geo(0.2, encoder="b"))
        with pytest.raises(ConfigError):
            delta_s(_geo(0.3, task="t1", arm="Baseline"), _geo(0.2, task="t2"))

    def test_with_delta_s_attaches(self):
        # score_arm attaches it, with the arm label, in one replace
        rewritten = _geo(0.25, arm="corpus")
        out = score_after_baseline(_geo(0.4, arm="Baseline"), rewritten).geometry
        assert out.delta_s_bar == pytest.approx(-0.15, abs=1e-15)
        assert out == replace(rewritten, arm="NL-QC", delta_s_bar=out.delta_s_bar)

    def test_report_roundtrip(self):
        rng = np.random.default_rng(3)
        m = unit_rows(rng, 12, 4)
        rep = build_geometry_report(m, task_id="t", arm="Baseline")
        assert GeometryReport.from_dict(rep.to_dict()) == rep
        assert rep.batch_size_used == 12
