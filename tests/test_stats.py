import math
import random
import tracemalloc
from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest
from scipy import stats as scipy_stats

from rewritebench.errors import ConfigError, DomainError
from rewritebench.models import Regime
from rewritebench.stats import (CorrelationResult, JoinedRow, _t_pvalue, average_ranks,
                                correlate_pair, correlation_table, pearson,
                                spearman, stars)


# --- independent oracles -------------------------------------------------

def frac_ranks(values) -> list[Fraction]:
    """Average ranks as exact rationals (independent of the implementation)."""
    out = []
    for v in values:
        less = sum(1 for w in values if w < v)
        equal = sum(1 for w in values if w == v)
        # mean of ranks less+1 .. less+equal
        out.append(Fraction(2 * less + equal + 1, 2))
    return out


def perm_pvalue_oracle(x, y, ranked: bool) -> float:
    """Exhaustive two-sided permutation p-value via exact rationals.

    |corr| comparisons reduce to squared-covariance comparisons because the
    variance terms are permutation-invariant; squares of Fractions compare
    exactly.
    """
    if ranked:
        fx, fy = frac_ranks(x), frac_ranks(y)
    else:
        fx = [Fraction(float(v)) for v in x]
        fy = [Fraction(float(v)) for v in y]
    n = len(fx)
    sx, sy = sum(fx), sum(fy)

    def cov_sq(perm):
        num = n * sum(a * b for a, b in zip(fx, perm)) - sx * sy
        return num * num

    observed = cov_sq(fy)
    count = sum(1 for perm in permutations(fy) if cov_sq(perm) >= observed)
    return count / math.factorial(n)


# --- ranks -----------------------------------------------------------------

class TestAverageRanks:
    def test_no_ties(self):
        np.testing.assert_array_equal(
            average_ranks(np.array([30.0, 10.0, 20.0])), [3.0, 1.0, 2.0])

    def test_ties_get_mean_rank(self):
        np.testing.assert_array_equal(
            average_ranks(np.array([5.0, 5.0, 1.0])), [2.5, 2.5, 1.0])

    def test_matches_scipy_rankdata(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            v = rng.integers(0, 6, size=rng.integers(3, 20)).astype(float)
            np.testing.assert_allclose(average_ranks(v),
                                       scipy_stats.rankdata(v), atol=0)


# --- coefficient values ------------------------------------------------------

class TestSpearmanValues:
    def test_perfect_monotone(self):
        rho, _ = spearman([1, 2, 3], [10, 20, 30])
        assert rho == 1.0

    def test_perfect_inverse(self):
        rho, _ = spearman([1, 2, 3], [3, 2, 1])
        assert rho == -1.0

    def test_hand_ranked_example(self):
        # d^2 = (0,1,1,0): rho = 1 - 6*2/(4*15) = 0.8
        rho, _ = spearman([1, 2, 3, 4], [1, 3, 2, 4])
        assert rho == pytest.approx(0.8, abs=1e-10)

    def test_matches_scipy(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            n = int(rng.integers(10, 40))
            x = rng.standard_normal(n)
            y = rng.standard_normal(n) + 0.5 * x
            rho, p = spearman(x, y)
            ref_rho, ref_p = scipy_stats.spearmanr(x, y)
            assert rho == pytest.approx(ref_rho, abs=1e-12)
            assert p == pytest.approx(ref_p, abs=1e-9)

    def test_ties_match_scipy(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            n = int(rng.integers(10, 30))
            x = rng.integers(0, 4, size=n).astype(float)
            y = rng.integers(0, 4, size=n).astype(float)
            if np.all(x == x[0]) or np.all(y == y[0]):
                continue
            rho, _ = spearman(x, y)
            ref_rho, _ = scipy_stats.spearmanr(x, y)
            assert rho == pytest.approx(ref_rho, abs=1e-12)


class TestPearsonValues:
    def test_affine_is_one(self):
        x = [0.0, 1.0, 2.0, 5.0]
        r, _ = pearson(x, [2 * v + 3 for v in x])
        assert r == pytest.approx(1.0, abs=1e-12)

    def test_negation_is_minus_one(self):
        x = [0.0, 1.0, 2.0]
        r, _ = pearson(x, [-v for v in x])
        assert r == pytest.approx(-1.0, abs=1e-12)

    def test_hand_covariance_example(self):
        r, _ = pearson([0, 1, 2], [0, 1, 4])
        expected = (4 / 3) / math.sqrt((2 / 3) * (26 / 9))
        assert r == pytest.approx(expected, abs=1e-10)
        assert r == pytest.approx(0.9608, abs=1e-4)

    def test_matches_scipy(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            n = int(rng.integers(10, 40))
            x = rng.standard_normal(n)
            y = rng.standard_normal(n) - 0.3 * x
            r, p = pearson(x, y)
            ref_r, ref_p = scipy_stats.pearsonr(x, y)
            assert r == pytest.approx(ref_r, abs=1e-12)
            assert p == pytest.approx(ref_p, rel=1e-8, abs=1e-12)


# --- domain and contract errors ---------------------------------------------

class TestErrors:
    def test_constant_input_is_domain_error(self):
        with pytest.raises(DomainError, match="constant"):
            spearman([1, 1, 1], [1, 2, 3])
        with pytest.raises(DomainError, match="constant"):
            pearson([1, 2, 3], [5, 5, 5])

    def test_length_mismatch_is_config_error(self):
        with pytest.raises(ConfigError, match="mismatch"):
            spearman([1, 2, 3], [1, 2])

    def test_too_few_points(self):
        with pytest.raises(DomainError):
            pearson([1, 2], [2, 1])


# --- permutation p-values -----------------------------------------------------

class TestPermutationPValues:
    def test_spearman_exhaustive_match(self):
        rng = random.Random(7)
        for n in (4, 5, 6, 7, 8):
            for _ in range(3):
                x = [rng.random() for _ in range(n)]
                y = [rng.random() for _ in range(n)]
                _, p = spearman(x, y)
                assert p == perm_pvalue_oracle(x, y, ranked=True)

    def test_spearman_exhaustive_match_with_ties(self):
        rng = random.Random(8)
        for n in (4, 5, 6):
            for _ in range(3):
                x = [rng.randint(0, 2) for _ in range(n)]
                y = [rng.randint(0, 2) for _ in range(n)]
                if len(set(x)) == 1 or len(set(y)) == 1:
                    continue
                _, p = spearman(x, y)
                assert p == perm_pvalue_oracle(x, y, ranked=True)

    def test_pearson_exhaustive_match(self):
        rng = random.Random(9)
        for n in (4, 5, 6, 7):
            x = [rng.random() for _ in range(n)]
            y = [rng.random() for _ in range(n)]
            _, p = pearson(x, y)
            assert p == perm_pvalue_oracle(x, y, ranked=False)

    def test_pearson_integer_data_exact(self):
        x = [1, 2, 3, 4, 5]
        y = [2, 1, 4, 3, 5]
        _, p = pearson(x, y)
        assert p == perm_pvalue_oracle(x, y, ranked=False)

    def test_perfect_monotone_small_n(self):
        # identity and reversal both reach |metric|max: p = 2/3! = 1/3
        _, p = spearman([1, 2, 3], [10, 20, 30])
        assert p == pytest.approx(1 / 3, abs=0)

    def test_pvalue_always_positive(self):
        _, p = spearman(list(range(8)), list(range(8)))
        assert p > 0.0

    def test_spearman_enumerates_without_holding_the_permutations(self):
        # 9! orderings of 9 int64 ranks take 25 MiB held at once
        tracemalloc.start()
        try:
            _, p = spearman(list(range(9)), [10 * v for v in range(9)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert p == 2 / math.factorial(9)  # only identity and reversal reach it


# --- invariances -------------------------------------------------------------

class TestInvariances:
    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(11)
        sizes = [int(rng.integers(10, 30)) for _ in range(80)] + \
                [int(rng.integers(4, 7)) for _ in range(20)]
        for n in sizes:
            x = rng.uniform(-3, 3, size=n)
            y = rng.uniform(-3, 3, size=n)
            rho, p = spearman(x, y)
            for fx in (np.exp(x), x ** 3):
                rho2, p2 = spearman(fx, y)
                assert rho2 == rho
                assert p2 == p

    def test_symmetry(self):
        rng = np.random.default_rng(12)
        for _ in range(30):
            x = rng.standard_normal(12)
            y = rng.standard_normal(12)
            assert spearman(x, y) == spearman(y, x)
            assert pearson(x, y) == pearson(y, x)

    def test_spearman_equals_pearson_on_ranks(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            x = rng.integers(0, 8, size=15).astype(float)
            y = rng.integers(0, 8, size=15).astype(float)
            if np.all(x == x[0]) or np.all(y == y[0]):
                continue
            rho, _ = spearman(x, y)
            r_on_ranks, _ = pearson(scipy_stats.rankdata(x), scipy_stats.rankdata(y))
            assert rho == pytest.approx(r_on_ranks, abs=1e-12)


# --- result assembly ----------------------------------------------------------

class TestCorrelateAndStars:
    def test_method_recorded_by_n(self):
        small = correlate_pair([1, 2, 3, 4], [2, 1, 4, 3])
        assert small.method == "permutation"
        big = correlate_pair(list(range(12)), [v + 0.1 * (v % 3) for v in range(12)])
        assert big.method == "t_approx"

    def test_t_tail_equals_scipy_stats_bit_for_bit(self):
        # _t_pvalue's stdtr(df, -t) against scipy.stats.t.sf(t, df), on
        # every df from 1 to 399, 1000 and 5000, with t from 0 to 1e300
        from scipy.special import stdtr

        df, t = np.meshgrid(np.r_[1:400, 1000, 5000].astype(np.float64),
                            np.r_[0.0, np.logspace(-6, 300, 2400)])
        assert np.array_equal(stdtr(df, -t).view(np.int64),
                              scipy_stats.t.sf(t, df).view(np.int64))
        rng = np.random.default_rng(3)
        for n in (10, 11, 25, 400, 5002):
            for r in np.r_[rng.uniform(-1, 1, 20), 0.0, 1e-300, -0.999999]:
                t_stat = abs(r) * math.sqrt((n - 2) / (1.0 - r * r))
                want = min(1.0, max(5e-324, 2.0 * float(scipy_stats.t.sf(t_stat, n - 2))))
                assert _t_pvalue(float(r), n) == want

    def test_star_thresholds(self):
        assert stars(0.04) == "*"
        assert stars(0.009) == "**"
        assert stars(0.0009) == "***"
        assert stars(0.05) == ""
        assert stars(0.5) == ""

    def test_result_validates_p_range(self):
        with pytest.raises(DomainError):
            CorrelationResult(n=5, spearman_rho=0.5, spearman_p=0.0,
                              pearson_r=0.5, pearson_p=0.5, method="permutation")


def _rows(regime: str, delta_ndcg_from_h=lambda h: h) -> list[JoinedRow]:
    out = []
    for i, h in enumerate([-0.4, -0.1, 0.2, 0.5, 0.9, 1.3]):
        out.append(JoinedRow(encoder_id=f"e{i % 2}", task_id=f"t{i % 3}",
                             rewriter_id="rw", strategy="NL", regime=regime,
                             delta_h=h, delta_s=-0.01 * i,
                             delta_ndcg=delta_ndcg_from_h(h)))
    return out


class TestCorrelationTable:
    def test_identity_relation_gives_rho_one(self):
        rows = _rows("QC") + _rows("C")
        for regime in (Regime.QC, Regime.C):
            table = correlation_table(rows, regime)
            (x, y, res) = table[0]
            assert (x, y) == ("delta_h", "delta_ndcg")
            assert res.spearman_rho == 1.0
            assert res.pearson_r == pytest.approx(1.0, abs=1e-12)

    def test_three_pairs_reported(self):
        table = correlation_table(_rows("QC"), Regime.QC)
        assert [(x, y) for x, y, _ in table] == [
            ("delta_h", "delta_ndcg"), ("delta_s", "delta_ndcg"),
            ("delta_h", "delta_s")]

    def test_too_few_rows_is_domain_error(self):
        with pytest.raises(DomainError):
            correlation_table(_rows("QC")[:2], Regime.QC)
        with pytest.raises(DomainError):
            correlation_table(_rows("QC"), Regime.C)
