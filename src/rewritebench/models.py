"""Domain types for collections, matrix cells, and evaluation records."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Mapping

from .errors import ContractError, DomainError

MEAN_NDCG_TOL = 1e-12


def finite(name: str, value: Any) -> float:
    """*value* as a float, which must be finite: a stored number literal
    past the float range reads as an infinity. A DomainError naming *name*
    otherwise."""
    number = float(value)
    if not math.isfinite(number):
        raise DomainError(f"{name} {number} is not a finite number")
    return number


class Strategy(str, Enum):
    REPHRASE = "Rephrase"
    PSEUDO = "Pseudo"
    NL = "NL"
    BASELINE = "Baseline"


class Regime(str, Enum):
    QC = "QC"
    C = "C"
    NONE = "None"


class TaskFamily(str, Enum):
    CODE_TO_CODE = "CodeToCode"
    TEXT_TO_CODE = "TextToCode"
    HYBRID = "Hybrid"


@dataclass(frozen=True)
class Document:
    """One corpus item. ``text`` is the canonical content handed to every
    downstream stage; when a title is present it has already been folded in
    at ingest time."""

    id: str
    text: str
    title: str | None = None

    def __post_init__(self):
        if not self.id:
            raise DomainError("document id must be non-empty")
        if not self.text.strip():
            raise DomainError(f"document {self.id!r} has empty text")


@dataclass(frozen=True)
class Query:
    id: str
    text: str

    def __post_init__(self):
        if not self.id:
            raise DomainError("query id must be non-empty")
        if not self.text.strip():
            raise DomainError(f"query {self.id!r} has empty text")


def path_name(*parts: str) -> str:
    """One file or directory name of *parts*, joined by ``__``, with each
    ``/`` and space made ``_`` so that no id names a directory: the name of
    a cell's directory and of every file a per-arm command writes."""
    return "__".join(p.replace("/", "_").replace(" ", "_") for p in parts)


@dataclass(frozen=True)
class CellKey:
    """One cell of the matrix: an (encoder, task, rewriter, strategy,
    regime) combination. ``task_family`` picks the cell's templates and
    takes no part in equality or hashing.

    ``Baseline`` is the untouched arm and is the only strategy allowed (and
    required) to carry regime ``None``.
    """

    encoder_id: str
    task_id: str
    rewriter_id: str = ""
    strategy: Strategy = Strategy.BASELINE
    regime: Regime = Regime.NONE
    task_family: TaskFamily = field(default=TaskFamily.CODE_TO_CODE, compare=False)

    def __post_init__(self):
        if (self.strategy is Strategy.BASELINE) != (self.regime is Regime.NONE):
            raise ContractError(
                f"strategy {self.strategy.value} is incompatible with regime "
                f"{self.regime.value}: Baseline pairs with None and nothing else does"
            )

    @property
    def is_baseline(self) -> bool:
        return self.strategy is Strategy.BASELINE

    @property
    def arm_label(self) -> str:
        if self.is_baseline:
            return "Baseline"
        return f"{self.strategy.value}-{self.regime.value}"

    @property
    def cell_id(self) -> str:
        parts = [self.encoder_id, self.task_id]
        if self.is_baseline:
            parts.append("Baseline")
        else:
            parts.extend([self.rewriter_id, self.strategy.value, self.regime.value])
        return path_name(*parts)

    def rewrites(self, side: str) -> bool:
        """Whether the cell ranks a rewrite of *side* ("documents" or
        "queries"): every arm rewrites the corpus, and only QC the queries."""
        return not self.is_baseline and (side == "documents" or self.regime is Regime.QC)


@dataclass
class RunRecord:
    """Per-query and mean NDCG@k for one cell, *plan*."""

    plan: CellKey
    ndcg_per_query: dict[str, float]
    mean_ndcg: float
    delta_ndcg: float | None = None
    gain: str = "linear"
    k: int = 10

    def __post_init__(self):
        if not self.ndcg_per_query:
            raise DomainError("run record needs at least one evaluated query")
        for qid, v in self.ndcg_per_query.items():
            if not (0.0 <= v <= 1.0):
                raise DomainError(f"ndcg for query {qid!r} outside [0,1]: {v}")
        expected = sum(self.ndcg_per_query.values()) / len(self.ndcg_per_query)
        if abs(expected - self.mean_ndcg) > MEAN_NDCG_TOL:
            raise DomainError(
                f"mean_ndcg {self.mean_ndcg} inconsistent with per-query values "
                f"(recomputed {expected})"
            )

    def to_dict(self) -> dict[str, Any]:
        plan = self.plan
        return {
            "encoder_id": plan.encoder_id,
            "task_id": plan.task_id,
            "plan": {"strategy": plan.strategy.value, "regime": plan.regime.value,
                     "rewriter_id": plan.rewriter_id,
                     "template_id": "",  # a field of the stored layout, always empty
                     "task_family": plan.task_family.value},
            "ndcg_per_query": dict(self.ndcg_per_query),
            "mean_ndcg": self.mean_ndcg,
            "delta_ndcg": self.delta_ndcg,
            "gain": self.gain,
            "k": self.k,
        }

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "RunRecord":
        plan = d["plan"]
        return cls(
            plan=CellKey(encoder_id=d["encoder_id"], task_id=d["task_id"],
                         rewriter_id=plan["rewriter_id"],
                         strategy=Strategy(plan["strategy"]), regime=Regime(plan["regime"]),
                         task_family=TaskFamily(plan["task_family"])),
            ndcg_per_query={str(k): float(v) for k, v in d["ndcg_per_query"].items()},
            mean_ndcg=finite("mean_ndcg", d["mean_ndcg"]),
            delta_ndcg=None if d["delta_ndcg"] is None else finite("delta_ndcg", d["delta_ndcg"]),
            gain=d["gain"],
            k=int(d["k"]),
        )
