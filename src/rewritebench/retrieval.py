"""Exact dense retrieval and NDCG@k scoring.

Search is brute-force inner product over the full corpus matrix (cosine,
since rows are unit length), with a deterministic tie-break by ascending
doc id so runs are byte-reproducible across platforms. Scores stay in
double precision end to end. A partition finds each query's k-th score,
and the exact (score, id) sort runs only on the docs that reach it.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

import numpy as np

from .errors import ContractError, DomainError
from .geometry import EmbeddingMatrix

GAIN_MODES = ("linear", "exp")
# Query rows partitioned at once; bounds the partition's scratch memory.
_TOPK_BLOCK_ROWS = 256


@dataclass
class RankedList:
    """Top-k result for one query: score-descending, id-ascending on ties."""

    query_id: str
    entries: tuple[tuple[str, float], ...]

    def __post_init__(self):
        self.entries = tuple((str(d), float(s)) for d, s in self.entries)
        ids = self.doc_ids
        if len(set(ids)) != len(ids):
            raise ContractError(f"ranked list for {self.query_id!r} repeats a doc id")
        for (d1, s1), (d2, s2) in zip(self.entries, self.entries[1:]):
            if s2 > s1 or (s2 == s1 and d2 < d1):
                raise ContractError(
                    f"ranked list for {self.query_id!r} violates ordering at "
                    f"({d1}, {s1}) -> ({d2}, {s2})")

    @property
    def doc_ids(self) -> tuple[str, ...]:
        return tuple(d for d, _ in self.entries)


def retrieve_topk(query_matrix: EmbeddingMatrix, corpus_matrix: EmbeddingMatrix,
                  k: int = 10) -> list[RankedList]:
    """Exact top-k corpus items per query by inner product."""
    if not query_matrix.normalized or not corpus_matrix.normalized:
        raise ContractError("retrieval requires normalized matrices on both sides")
    if query_matrix.encoder_id != corpus_matrix.encoder_id:
        raise ContractError(
            f"encoder mismatch: queries from {query_matrix.encoder_id!r}, "
            f"corpus from {corpus_matrix.encoder_id!r}")
    if query_matrix.dim != corpus_matrix.dim:
        raise ContractError(
            f"dimension mismatch: queries {query_matrix.dim}, corpus {corpus_matrix.dim}")
    if k < 1:
        raise ContractError(f"k must be >= 1, got {k}")
    n_docs = corpus_matrix.n_rows
    if k > n_docs:
        warnings.warn(f"k={k} exceeds corpus size {n_docs}; clamping", stacklevel=2)
        k = n_docs

    # rank of each row when doc ids are sorted ascending, for tie-breaking
    id_rank = np.empty(n_docs, dtype=np.int64)
    id_rank[sorted(range(n_docs), key=lambda i: corpus_matrix.ids[i])] = np.arange(n_docs)

    scores = query_matrix.vectors @ corpus_matrix.vectors.T
    out = []
    for start in range(0, query_matrix.n_rows, _TOPK_BLOCK_ROWS):
        stop = start + _TOPK_BLOCK_ROWS
        block = scores[start:stop]
        for qid, row, order in zip(query_matrix.ids[start:stop], block,
                                   _topk_rows(block, id_rank, k)):
            entries = tuple((corpus_matrix.ids[di], float(row[di])) for di in order)
            out.append(RankedList(query_id=qid, entries=entries))
    return out


def _topk_rows(block: np.ndarray, id_rank: np.ndarray, k: int) -> Iterator[np.ndarray]:
    """Column indices of each row's top k by (score desc, doc id asc).

    Only docs scoring at least the row's k-th largest score can make the
    cut, so the exact sort runs on those candidates alone. Ties straddling
    the boundary are all candidates, and the id tie-break settles them.
    """
    n_docs = block.shape[1]
    kth = np.partition(block, n_docs - k, axis=1)[:, n_docs - k]
    for row, bound in zip(block, kth):
        cand = np.flatnonzero(row >= bound)
        if cand.size < k:  # NaN scores never pass the bound: sort them all
            cand = np.arange(n_docs)
        yield cand[np.lexsort((id_rank[cand], -row[cand]))][:k]


def _gain(rel: int, mode: str) -> float:
    if mode == "linear":
        return float(rel)
    if mode == "exp":
        return float(2 ** rel - 1)
    raise ContractError(f"unknown gain mode {mode!r}")


def ndcg_at_k(ranked: RankedList, qrels_for_query: Mapping[str, int],
              k: int = 10, gain: str = "linear") -> float:
    """DCG over the top k ranked docs divided by the ideal DCG.

    DCG = sum_{i=1..k} gain(rel_i) / log2(i+1); documents absent from the
    qrels contribute zero. Callers must exclude queries with no positive
    grade before scoring.
    """
    if gain not in GAIN_MODES:
        raise ContractError(f"unknown gain mode {gain!r}")
    grades = [g for g in qrels_for_query.values() if g > 0]
    if not grades:
        raise ContractError(
            f"query {ranked.query_id!r} has no positive grade; it should have "
            "been excluded upstream")
    dcg = 0.0
    for i, (doc_id, _) in enumerate(ranked.entries[:k], start=1):
        rel = qrels_for_query.get(doc_id, 0)
        if rel > 0:
            dcg += _gain(rel, gain) / math.log2(i + 1)
    idcg = 0.0
    for i, rel in enumerate(sorted(grades, reverse=True)[:k], start=1):
        idcg += _gain(rel, gain) / math.log2(i + 1)
    return dcg / idcg


def score_ranked_lists(ranked_lists: Sequence[RankedList],
                       qrels: Mapping[str, Mapping[str, int]],
                       k: int = 10, gain: str = "linear") -> dict[str, float]:
    """NDCG@k per evaluable query (positive grades only)."""
    out: dict[str, float] = {}
    for ranked in ranked_lists:
        grades = qrels.get(ranked.query_id, {})
        if any(g > 0 for g in grades.values()):
            out[ranked.query_id] = ndcg_at_k(ranked, grades, k=k, gain=gain)
    if not out:
        raise DomainError("no evaluable query produced a score")
    return out
