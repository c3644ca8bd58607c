"""Rank and product-moment correlations with two-sided p-values.

For n >= 10 the p-value uses the t approximation
t = r * sqrt((n-2)/(1-r^2)) with n-2 degrees of freedom; below that the
sampling distribution is enumerated exactly over all n! orderings. The
permutation count compares an integer (Spearman) or exact-rational
(Pearson) test statistic, so boundary cases cannot flip on float rounding.
Every result records which method produced its p-values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import permutations
from typing import Sequence

import numpy as np

from .errors import ConfigError, DomainError
from .models import Regime

T_APPROX_MIN_N = 10
METHOD_T = "t_approx"
METHOD_PERM = "permutation"

_P_FLOOR = 5e-324  # smallest positive double: keeps p in (0, 1]


def _as_pair(x: Sequence[float], y: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    xa = np.asarray(x, dtype=np.float64)
    ya = np.asarray(y, dtype=np.float64)
    if xa.ndim != 1 or ya.ndim != 1:
        raise ConfigError("correlation inputs must be 1-D")
    if len(xa) != len(ya):
        raise ConfigError(f"length mismatch: {len(xa)} vs {len(ya)}")
    if len(xa) < 3:
        raise DomainError(f"need at least 3 observations, got {len(xa)}")
    if np.all(xa == xa[0]) or np.all(ya == ya[0]):
        raise DomainError("correlation undefined on constant input")
    return xa, ya


def average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks; tied values share the mean of their rank span."""
    order = np.argsort(values, kind="stable")
    ranks = np.empty(len(values), dtype=np.float64)
    i = 0
    while i < len(values):
        j = i
        while j + 1 < len(values) and values[order[j + 1]] == values[order[i]]:
            j += 1
        mean_rank = (i + j) / 2 + 1
        for idx in order[i:j + 1]:
            ranks[idx] = mean_rank
        i = j + 1
    return ranks


def _pearson_r(x: np.ndarray, y: np.ndarray) -> float:
    xc = x - x.mean()
    yc = y - y.mean()
    denom = math.sqrt(float(xc @ xc) * float(yc @ yc))
    if denom == 0.0:
        raise DomainError("correlation undefined on constant input")
    r = float(xc @ yc) / denom
    return min(1.0, max(-1.0, r))


def _t_pvalue(r: float, n: int) -> float:
    if abs(r) >= 1.0:
        return _P_FLOOR
    # imported here: it takes about a second, and only n >= T_APPROX_MIN_N gets here
    from scipy import stats as scipy_stats

    t = abs(r) * math.sqrt((n - 2) / (1.0 - r * r))
    p = 2.0 * float(scipy_stats.t.sf(t, df=n - 2))
    return min(1.0, max(_P_FLOOR, p))


def _perm_pvalue_spearman(rx: np.ndarray, ry: np.ndarray) -> float:
    """Exact two-sided permutation p for rank data.

    Ranks are half-integers, so doubling gives integers and the statistic
    |n * sum(a_i b_pi(i)) - sum(a) sum(b)| compares exactly in int64 (the
    variance terms are permutation-invariant and cancel).
    """
    n = len(rx)
    a = np.round(rx * 2).astype(np.int64)
    b = np.round(ry * 2).astype(np.int64)
    perms = np.array(list(permutations(range(n))), dtype=np.int64)
    dots = (b[perms] * a[None, :]).sum(axis=1)
    metrics = np.abs(n * dots - int(a.sum()) * int(b.sum()))
    observed = abs(n * int(a @ b) - int(a.sum()) * int(b.sum()))
    count = int((metrics >= observed).sum())
    return count / math.factorial(n)


def _dyadic_ints(values: np.ndarray) -> list[int]:
    """Scale float64 values to exact integers (common power-of-two factor).

    Uniform scaling of either vector scales the permutation statistic
    uniformly, so the counts below are unaffected.
    """
    ratios = [float(v).as_integer_ratio() for v in values]
    common = max(d for _, d in ratios)
    return [num * (common // den) for num, den in ratios]


def _perm_pvalue_pearson(x: np.ndarray, y: np.ndarray) -> float:
    """Exact two-sided permutation p via integer arithmetic.

    The statistic |n * sum(x_i y_pi(i)) - sum(x) sum(y)| is monotone in
    |r| because the variance terms are permutation-invariant; with both
    vectors scaled to integers every comparison is exact.
    """
    n = len(x)
    ax, by = _dyadic_ints(x), _dyadic_ints(y)
    sa, sb = sum(ax), sum(by)
    const = sa * sb
    prod = [[a * b for b in by] for a in ax]
    observed = abs(n * sum(prod[i][i] for i in range(n)) - const)
    count = 0
    for perm in permutations(range(n)):
        dot = 0
        for i, j in enumerate(perm):
            dot += prod[i][j]
        if abs(n * dot - const) >= observed:
            count += 1
    return count / math.factorial(n)


def spearman(x: Sequence[float], y: Sequence[float]) -> tuple[float, float]:
    """(rho, two-sided p): Pearson correlation of average ranks."""
    xa, ya = _as_pair(x, y)
    rx, ry = average_ranks(xa), average_ranks(ya)
    rho = _pearson_r(rx, ry)
    n = len(xa)
    p = _t_pvalue(rho, n) if n >= T_APPROX_MIN_N else _perm_pvalue_spearman(rx, ry)
    return rho, p


def pearson(x: Sequence[float], y: Sequence[float]) -> tuple[float, float]:
    """(r, two-sided p): product-moment correlation."""
    xa, ya = _as_pair(x, y)
    r = _pearson_r(xa, ya)
    n = len(xa)
    p = _t_pvalue(r, n) if n >= T_APPROX_MIN_N else _perm_pvalue_pearson(xa, ya)
    return r, p


@dataclass(frozen=True)
class CorrelationResult:
    n: int
    spearman_rho: float
    spearman_p: float
    pearson_r: float
    pearson_p: float
    method: str

    def __post_init__(self):
        if abs(self.spearman_rho) > 1 or abs(self.pearson_r) > 1:
            raise DomainError("correlation coefficients must lie in [-1, 1]")
        for p in (self.spearman_p, self.pearson_p):
            if not (0.0 < p <= 1.0):
                raise DomainError(f"p-value {p} outside (0, 1]")

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "spearman_rho": self.spearman_rho, "spearman_p": self.spearman_p,
            "pearson_r": self.pearson_r, "pearson_p": self.pearson_p,
            "method": self.method,
        }


def correlate_pair(x: Sequence[float], y: Sequence[float]) -> CorrelationResult:
    xa, ya = _as_pair(x, y)
    n = len(xa)
    rho, sp = spearman(xa, ya)
    r, pp = pearson(xa, ya)
    return CorrelationResult(n=n, spearman_rho=rho, spearman_p=sp,
                             pearson_r=r, pearson_p=pp,
                             method=METHOD_T if n >= T_APPROX_MIN_N else METHOD_PERM)


def stars(p: float) -> str:
    """Significance annotation: * p<0.05, ** p<0.01, *** p<0.001."""
    if p < 0.001:
        return "***"
    if p < 0.01:
        return "**"
    if p < 0.05:
        return "*"
    return ""


@dataclass(frozen=True)
class JoinedRow:
    """One (encoder, task, rewriter, strategy, regime) cell with its shift
    diagnostics and retrieval delta, ready for correlation analysis."""

    encoder_id: str
    task_id: str
    rewriter_id: str
    strategy: str
    regime: str
    delta_h: float
    delta_s: float
    delta_ndcg: float


PAIR_LABELS = (
    ("delta_h", "delta_ndcg"),
    ("delta_s", "delta_ndcg"),
    ("delta_h", "delta_s"),
)


def correlation_table(rows: Sequence[JoinedRow], regime: Regime,
                      ) -> list[tuple[str, str, CorrelationResult | DomainError]]:
    """Correlations between each diagnostic pair within one regime.

    Returns (x_label, y_label, result) triples for delta-H vs delta-NDCG,
    delta-s vs delta-NDCG, and the delta-H vs delta-s cross-correlation.
    A pair on which the correlation is undefined (constant input) gets its
    :class:`DomainError` in place of the result; the other pairs are
    unaffected.
    """
    filtered = [r for r in rows if r.regime == regime.value]
    if len(filtered) < 3:
        raise DomainError(
            f"need at least 3 rows for regime {regime.value}, got {len(filtered)}")
    out = []
    for x_label, y_label in PAIR_LABELS:
        xs = [getattr(r, x_label) for r in filtered]
        ys = [getattr(r, y_label) for r in filtered]
        try:
            out.append((x_label, y_label, correlate_pair(xs, ys)))
        except DomainError as exc:
            out.append((x_label, y_label, exc))
    return out
