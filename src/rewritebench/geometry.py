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

NORM_TOL = 1e-6


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
    instead of into a new array; the bits are the same."""
    norms = np.linalg.norm(matrix.vectors, axis=1)
    zero = np.flatnonzero(norms == 0.0)
    if zero.size:
        raise DomainError(f"cannot normalize zero-vector row {matrix.ids[zero[0]]!r}")
    return EmbeddingMatrix(
        encoder_id=matrix.encoder_id,
        ids=matrix.ids,
        vectors=np.divide(matrix.vectors, norms[:, None], out=out),
        normalized=True,
    )


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
    diag = float((v * v).sum())
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
            s_bar=float(d["s_bar"]),
            batch_size_used=int(d["batch_size_used"]),
            delta_s_bar=None if d["delta_s_bar"] is None else float(d["delta_s_bar"]),
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
