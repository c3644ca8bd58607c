"""Embedding-side diagnostics: mean pairwise cosine as an isotropy probe.

Lower mean off-diagonal cosine means the corpus embeddings spread more
uniformly in direction; a rise signals anisotropic collapse. The mean is
computed over the full corpus set per arm (pooled), with the set size
recorded for provenance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import ConfigError, ContractError, DomainError
from .models import finite

NORM_TOL = 1e-6
# Bytes of scratch a dense step takes at once: l2_normalize's norms run on
# blocks of rows of about this size, and the sum of squares of
# mean_offdiag_cosine on leaves of this size. The bits do not depend on it.
_SCRATCH_BYTES = 128 * 1024
_LEAF = _SCRATCH_BYTES // 8  # float64 elements; more than numpy's pairwise block of 128


@dataclass
class EmbeddingMatrix:
    """Row-aligned (ids, vectors) for one encoder over one item set."""

    encoder_id: str
    ids: tuple[str, ...]
    vectors: np.ndarray
    normalized: bool = False

    def __post_init__(self):
        self.ids = tuple(self.ids)
        self.vectors = np.asarray(self.vectors, dtype=np.float64)
        if self.vectors.ndim != 2:
            raise ContractError(f"vectors must be 2-D, got shape {self.vectors.shape}")
        if len(self.ids) != self.vectors.shape[0]:
            raise ContractError(
                f"{len(self.ids)} ids but {self.vectors.shape[0]} vector rows")
        if self.normalized:
            # row-wise: np.linalg.norm would square the whole matrix into a temporary
            norms = np.sqrt(np.einsum("ij,ij->i", self.vectors, self.vectors))
            bad = np.flatnonzero(np.abs(norms - 1.0) > NORM_TOL)
            if bad.size:
                raise ContractError(
                    f"matrix flagged normalized but row {self.ids[bad[0]]!r} "
                    f"has norm {norms[bad[0]]!r}")

    @property
    def n_rows(self) -> int:
        return self.vectors.shape[0]

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]


def l2_normalize(matrix: EmbeddingMatrix, *, out: np.ndarray | None = None,
                 ) -> EmbeddingMatrix:
    """Scale every row to unit length, preserving direction. With *out*
    (which may be ``matrix.vectors`` itself) the rows are written there
    instead of into a new array; the bits are the same. A row whose norm
    is zero or not finite (a NaN or infinite entry, or squares past the
    float range) is a DomainError naming it, and nothing is written.

    ``np.linalg.norm`` squares its input into a temporary, so the norms are
    taken a block of rows at a time; each row is reduced on its own, so
    they are the bits of one call over the whole matrix."""
    v = matrix.vectors
    rows = max(1, _SCRATCH_BYTES // (v.itemsize * max(1, v.shape[1])))
    norms = np.empty(len(v))
    with np.errstate(over="ignore"):  # a norm past the float range is refused below
        for start in range(0, len(v), rows):
            norms[start:start + rows] = np.linalg.norm(v[start:start + rows], axis=1)
    bad = np.flatnonzero(~np.isfinite(norms) | (norms == 0.0))
    if bad.size:
        row, norm = matrix.ids[bad[0]], norms[bad[0]]
        if norm == 0.0:
            raise DomainError(f"cannot normalize zero-vector row {row!r}")
        raise DomainError(f"cannot normalize row {row!r}: its norm is {norm}")
    return EmbeddingMatrix(
        encoder_id=matrix.encoder_id,
        ids=matrix.ids,
        vectors=np.divide(v, norms[:, None], out=out),
        normalized=True,
    )


def _sum_of_squares(flat: np.ndarray, buf: np.ndarray, lo: int, n: int) -> float:
    """``(x * x).sum()`` of ``x = flat[lo:lo + n]``, a 1-D float64 array,
    bit for bit, with no temporary but *buf*, of at least ``min(n, _LEAF)``
    elements.

    numpy sums a contiguous float64 array pairwise: a run of more than 128
    elements is split at half its length, rounded down to a multiple of 8,
    and each half is summed the same way. The same splits are followed down
    to runs of at most ``_LEAF`` elements, each squared into *buf* and
    summed by numpy, and the halves are added back up the tree.
    """
    if n <= _LEAF:
        return float(np.square(flat[lo:lo + n], out=buf[:n]).sum())
    half = n // 2
    half -= half % 8
    return (_sum_of_squares(flat, buf, lo, half)
            + _sum_of_squares(flat, buf, lo + half, n - half))


def mean_offdiag_cosine(matrix: EmbeddingMatrix) -> float:
    """Mean of all off-diagonal pairwise inner products of unit rows.

    Uses the O(B*d) identity (||sum e_i||^2 - sum ||e_i||^2) / (B(B-1)),
    which equals the direct double sum exactly in exact arithmetic.
    """
    if not matrix.normalized:
        raise ContractError("mean off-diagonal cosine requires a normalized matrix")
    b = matrix.n_rows
    if b < 2:
        raise DomainError(f"need at least 2 rows, got {b}")
    v = matrix.vectors
    total = v.sum(axis=0)
    gram_total = float(total @ total)
    flat = v.ravel(order="K")  # the elements in memory order, as (v * v).sum() adds them
    diag = _sum_of_squares(flat, np.empty(min(flat.size, _LEAF)), 0, flat.size)
    return (gram_total - diag) / (b * (b - 1))


@dataclass
class GeometryReport:
    """Embedding-geometry diagnostics for one (encoder, task, arm) corpus."""

    encoder_id: str
    task_id: str
    arm: str
    rewriter_id: str
    s_bar: float
    batch_size_used: int
    delta_s_bar: float | None = None

    def __post_init__(self):
        if not (-1.0 - 1e-9 <= self.s_bar <= 1.0 + 1e-9):
            raise DomainError(f"mean cosine {self.s_bar} outside [-1, 1]")
        if self.batch_size_used < 1:
            raise DomainError("batch_size_used must be positive")

    def to_dict(self) -> dict:
        return {
            "encoder_id": self.encoder_id,
            "task_id": self.task_id,
            "arm": self.arm,
            "rewriter_id": self.rewriter_id,
            "s_bar": self.s_bar,
            "delta_s_bar": self.delta_s_bar,
            "batch_size_used": self.batch_size_used,
        }

    @classmethod
    def from_dict(cls, d: Mapping) -> "GeometryReport":
        return cls(
            encoder_id=d["encoder_id"], task_id=d["task_id"], arm=d["arm"],
            rewriter_id=d["rewriter_id"],
            s_bar=finite("s_bar", d["s_bar"]),
            batch_size_used=int(d["batch_size_used"]),
            delta_s_bar=(None if d["delta_s_bar"] is None
                         else finite("delta_s_bar", d["delta_s_bar"])),
        )


def build_geometry_report(matrix: EmbeddingMatrix, *, task_id: str, arm: str,
                          rewriter_id: str = "") -> GeometryReport:
    return GeometryReport(
        encoder_id=matrix.encoder_id, task_id=task_id, arm=arm,
        rewriter_id=rewriter_id,
        s_bar=mean_offdiag_cosine(matrix),
        batch_size_used=matrix.n_rows,
    )


def delta_s(baseline: GeometryReport, rewritten: GeometryReport) -> float:
    """Signed mean-cosine change, rewritten minus baseline."""
    if baseline.encoder_id != rewritten.encoder_id or baseline.task_id != rewritten.task_id:
        raise ConfigError(
            "delta-s requires matching encoder and task: "
            f"({baseline.encoder_id}, {baseline.task_id}) vs "
            f"({rewritten.encoder_id}, {rewritten.task_id})")
    return rewritten.s_bar - baseline.s_bar
