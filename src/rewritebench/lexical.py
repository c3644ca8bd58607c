"""Input-side corpus diagnostics.

Token entropy H = -sum_v p(v) log2 p(v) over the empirical token-frequency
distribution measures the lexical diversity an encoder receives; the
companion statistics (type-token ratio, top-20% mass, hapax rates,
coverage curve) describe the shape of that distribution in more detail.
Everything here is a pure function of token counts, so results are
reproducible bit-for-bit given a tokenizer and a corpus.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Any, Mapping, Sequence

import numpy as np

from .errors import ConfigError, DomainError
from .models import finite
from .tokenizers import Tokenizer

COVERAGE_FINAL_TOL = 1e-9


def _validated_counts(token_counts: Mapping[int, int]) -> tuple[int, list[tuple[int, int]]]:
    if not token_counts:
        raise DomainError("entropy undefined on empty corpus")
    total = 0
    for tok, c in token_counts.items():
        if c <= 0:
            raise DomainError(f"token {tok} has non-positive count {c}")
        total += c
    return total, list(token_counts.items())


def token_entropy(token_counts: Mapping[int, int]) -> float:
    """Shannon entropy in bits of an observed token-count table.

    Terms are combined with exact summation, so the result depends only on
    the multiset of counts, never on dict iteration order.
    """
    total, items = _validated_counts(token_counts)
    terms = [(c / total) * math.log2(c / total) for _, c in items]
    return -math.fsum(terms) + 0.0


@dataclass(frozen=True)
class CoverageCurve:
    """Cumulative token fraction covered by the top-k vocabulary ranks."""

    points: tuple[tuple[int, float], ...]
    k80: int

    def __post_init__(self):
        if not self.points:
            raise DomainError("coverage curve needs at least one point")
        fracs = [f for _, f in self.points]
        if not math.isfinite(fracs[0]):  # with the checks below, every point is finite
            raise DomainError(f"coverage curve must start at a finite fraction, got {fracs[0]}")
        if any(b < a - 1e-12 for a, b in zip(fracs, fracs[1:])):
            raise DomainError("coverage curve must be non-decreasing")
        if abs(fracs[-1] - 1.0) > COVERAGE_FINAL_TOL:
            raise DomainError(f"coverage curve must end at 1.0, got {fracs[-1]}")

    def as_lists(self) -> list[list[float]]:
        return [[k, f] for k, f in self.points]


def coverage_cdf(token_counts: Mapping[int, int]) -> CoverageCurve:
    """Coverage curve over the types ranked by descending count, plus k80,
    the smallest k reaching 80% of total tokens (exact integer comparison,
    no float threshold). Tied types add the same count whatever their
    order, so the curve depends on the counts alone.

    One numpy pass: the running totals are exact int64 sums, and each
    point is one of them divided by the total, both exact in float64, so
    it is the correctly rounded quotient that ``cum / total`` gives on
    Python ints."""
    total, _ = _validated_counts(token_counts)
    counts = np.fromiter(token_counts.values(), dtype=np.int64, count=len(token_counts))
    cum = np.cumsum(np.sort(counts)[::-1])
    k80 = int(np.argmax(5 * cum >= 4 * total)) + 1
    return CoverageCurve(points=tuple(zip(range(1, len(cum) + 1), (cum / total).tolist())),
                         k80=k80)


@dataclass(frozen=True)
class BatchedEntropy:
    mean_bits: float
    per_batch_bits: tuple[float, ...]
    batch_size: int | None
    seed: int


def batched_entropy(texts: Sequence[str], tokenizer: Tokenizer,
                    batch_size: int | None = None, seed: int = 0) -> BatchedEntropy:
    """Mean per-batch token entropy under a seeded shuffle.

    With ``batch_size=None`` the whole corpus forms a single batch, which
    makes the result the pooled corpus entropy (the default convention for
    headline deltas: deterministic, no seed sensitivity).
    """
    if len(texts) == 0:
        raise DomainError("entropy undefined on empty corpus")
    if batch_size is not None and batch_size < 1:
        raise DomainError(f"batch_size must be >= 1, got {batch_size}")

    order = list(range(len(texts)))
    if batch_size is None:
        batches = [order]
    else:
        random.Random(seed).shuffle(order)
        batches = [order[i:i + batch_size] for i in range(0, len(order), batch_size)]

    per_batch = [token_entropy(tokenizer.count(texts[idx] for idx in batch))
                 for batch in batches]
    mean = sum(per_batch) / len(per_batch)
    return BatchedEntropy(mean_bits=mean, per_batch_bits=tuple(per_batch),
                          batch_size=batch_size, seed=seed)


@dataclass
class LexicalReport:
    """Lexical diagnostics for one (encoder, task, arm) corpus."""

    encoder_id: str
    task_id: str
    arm: str
    rewriter_id: str
    vocab_size: int
    h_bits: float
    unique_types: int
    total_tokens: int
    ttr: float
    top20_mass: float
    hapax_type_rate: float
    hapax_token_rate: float
    coverage: CoverageCurve
    delta_h_bits: float | None = None

    def __post_init__(self):
        if self.h_bits < -1e-12 or self.h_bits > math.log2(self.unique_types) + 1e-9:
            raise DomainError(
                f"entropy {self.h_bits} outside [0, log2({self.unique_types})]")
        if abs(self.ttr - self.unique_types / self.total_tokens) > 1e-12:
            raise DomainError("ttr inconsistent with unique/total counts")

    def to_dict(self, curve: Any = None) -> dict:
        """The report's fields. *curve*, when given, stands for the
        coverage curve's rows: the cells that rank one corpus share its
        curve, and the matrix encodes it once for all of them
        (``stores.Encoded``)."""
        return {
            "encoder_id": self.encoder_id,
            "task_id": self.task_id,
            "arm": self.arm,
            "rewriter_id": self.rewriter_id,
            "vocab_size": self.vocab_size,
            "h_bits": self.h_bits,
            "delta_h_bits": self.delta_h_bits,
            "unique_types": self.unique_types,
            "total_tokens": self.total_tokens,
            "ttr": self.ttr,
            "top20_mass": self.top20_mass,
            "hapax_type_rate": self.hapax_type_rate,
            "hapax_token_rate": self.hapax_token_rate,
            "coverage_cdf": self.coverage.as_lists() if curve is None else curve,
            "k80": self.coverage.k80,
        }

    @classmethod
    def from_dict(cls, d: Mapping) -> "LexicalReport":
        curve = CoverageCurve(
            points=tuple((int(k), float(f)) for k, f in d["coverage_cdf"]),
            k80=int(d["k80"]),
        )
        return cls(
            encoder_id=d["encoder_id"], task_id=d["task_id"], arm=d["arm"],
            rewriter_id=d["rewriter_id"], vocab_size=int(d["vocab_size"]),
            h_bits=finite("h_bits", d["h_bits"]),
            unique_types=int(d["unique_types"]), total_tokens=int(d["total_tokens"]),
            ttr=finite("ttr", d["ttr"]), top20_mass=finite("top20_mass", d["top20_mass"]),
            hapax_type_rate=finite("hapax_type_rate", d["hapax_type_rate"]),
            hapax_token_rate=finite("hapax_token_rate", d["hapax_token_rate"]),
            coverage=curve,
            delta_h_bits=(None if d["delta_h_bits"] is None
                          else finite("delta_h_bits", d["delta_h_bits"])),
        )


def build_lexical_report(texts: Sequence[str], tokenizer: Tokenizer, *,
                         encoder_id: str, task_id: str, arm: str,
                         rewriter_id: str = "") -> LexicalReport:
    """Pooled lexical diagnostics over a corpus of texts.

    The corpus is counted once; entropy and the coverage curve read that one
    table, and the statistics are read off the curve. Top-20% mass is the
    token fraction carried by the ceil(0.2 * types) most frequent types
    (count-descending, id-ascending tiebreak), the curve's point at that
    rank. Hapax rates come in two readings: the fraction of *types*
    occurring once and the fraction of *tokens* belonging to such types;
    the values coincide in numerator, not denominator.
    """
    if len(texts) == 0:
        raise DomainError("lexical report undefined on empty corpus")
    counts = tokenizer.count(texts)
    if not counts:
        raise DomainError("corpus produced no tokens under this tokenizer")
    curve = coverage_cdf(counts)
    unique, total = len(curve.points), sum(counts.values())
    hapax_types = sum(1 for c in counts.values() if c == 1)
    return LexicalReport(
        encoder_id=encoder_id, task_id=task_id, arm=arm, rewriter_id=rewriter_id,
        vocab_size=tokenizer.vocab_size, h_bits=token_entropy(counts),
        unique_types=unique, total_tokens=total, ttr=unique / total,
        top20_mass=curve.points[math.ceil(0.2 * unique) - 1][1],
        hapax_type_rate=hapax_types / unique, hapax_token_rate=hapax_types / total,
        coverage=curve,
    )


def delta_h(baseline: LexicalReport, rewritten: LexicalReport) -> float:
    """Signed entropy change in bits, rewritten minus baseline."""
    if baseline.encoder_id != rewritten.encoder_id or baseline.task_id != rewritten.task_id:
        raise ConfigError(
            "delta-H requires matching encoder and task: "
            f"({baseline.encoder_id}, {baseline.task_id}) vs "
            f"({rewritten.encoder_id}, {rewritten.task_id})")
    return rewritten.h_bits - baseline.h_bits
