"""Exact dense retrieval and NDCG@k scoring.

Search is brute-force inner product over the full corpus matrix (cosine,
since rows are unit length), with a deterministic tie-break by ascending
doc id so runs are byte-reproducible across platforms. Scores stay in
double precision end to end. The scores are one GEMM per fixed block of
query rows, so the scratch is bounded by the corpus size, not by the
number of queries. A partition finds each query's k-th score, and the
exact (score, id) sort runs only on the docs that reach it.
:func:`retrieve_topk` returns ranked lists; :func:`score_queries` scores
a cell from the same top-k rows without them, against the
:class:`Judgments` of its task.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import ContractError, DomainError
from .geometry import EmbeddingMatrix

GAIN_MODES = ("linear", "exp")
# Query rows per GEMM block. Every GEMM call packs the whole corpus matrix,
# so much smaller blocks re-read it too often; a task with at most this many
# queries is scored with one GEMM.
_GEMM_ROWS = 128
# Bytes of score rows partitioned at once: np.partition copies its block, so
# this bounds the scratch above the GEMM block. A block holds at least one row.
_TOPK_BLOCK_BYTES = 128 * 1024


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


def _clamped_k(query_matrix: EmbeddingMatrix, corpus_matrix: EmbeddingMatrix,
               k: int) -> int:
    """*k* clamped to the corpus size, once the two matrices are checked
    to be scored against each other."""
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
        warnings.warn(f"k={k} exceeds corpus size {n_docs}; clamping", stacklevel=3)
        k = n_docs
    return k


def _id_rank(doc_ids: Sequence[str]) -> np.ndarray:
    """Each row's rank when the doc ids are sorted ascending, for tie-breaking."""
    id_rank = np.empty(len(doc_ids), dtype=np.int64)
    id_rank[sorted(range(len(doc_ids)), key=doc_ids.__getitem__)] = np.arange(len(doc_ids))
    return id_rank


def retrieve_topk(query_matrix: EmbeddingMatrix, corpus_matrix: EmbeddingMatrix,
                  k: int = 10) -> list[RankedList]:
    """Exact top-k corpus items per query by inner product."""
    k = _clamped_k(query_matrix, corpus_matrix, k)
    ids = corpus_matrix.ids
    return [RankedList(query_id=qid, entries=tuple((ids[di], float(row[di])) for di in order))
            for qid, (row, order) in zip(query_matrix.ids, _topk_rows(
                query_matrix.vectors, corpus_matrix.vectors, _id_rank(ids), k))]


def _topk_rows(queries: np.ndarray, corpus: np.ndarray, id_rank: np.ndarray,
               k: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Each query's scores against every doc, and the column indices of
    its top k by (score desc, doc id asc).

    The scores are one GEMM per block of ``_GEMM_ROWS`` query rows, each
    written into the one buffer of the call, so a row of scores holds only
    until the next row is taken. Only docs scoring at least the row's k-th
    largest score can make the cut, so the exact sort runs on those
    candidates alone. Ties straddling the boundary are all candidates, and
    the id tie-break settles them.
    """
    n_docs = corpus.shape[0]
    buf = np.empty((min(_GEMM_ROWS, len(queries)), n_docs))
    rows = max(1, _TOPK_BLOCK_BYTES // (buf.itemsize * n_docs))
    for first in range(0, len(queries), _GEMM_ROWS):
        block = queries[first:first + _GEMM_ROWS]
        scores = np.matmul(block, corpus.T, out=buf[:len(block)])
        for start in range(0, len(scores), rows):
            part = scores[start:start + rows]
            kth = np.partition(part, n_docs - k, axis=1)[:, n_docs - k]
            for row, bound in zip(part, kth):
                cand = np.flatnonzero(row >= bound)
                if cand.size < k:  # NaN scores never pass the bound: sort them all
                    cand = np.arange(n_docs)
                yield row, cand[np.lexsort((id_rank[cand], -row[cand]))][:k]


def _gain(rel: int, mode: str) -> float:
    if mode == "linear":
        return float(rel)
    if mode == "exp":
        return float(2 ** rel - 1)
    raise ContractError(f"unknown gain mode {mode!r}")


def _dcg(rels: Iterable[int], gain: str) -> float:
    """sum_{i>=1} gain(rel_i) / log2(i+1) over *rels* in rank order; grades
    that are not positive contribute zero."""
    dcg = 0.0
    for i, rel in enumerate(rels, start=1):
        if rel > 0:
            dcg += _gain(rel, gain) / math.log2(i + 1)
    return dcg


def _ideal(qrels_for_query: Mapping[str, int]) -> list[int]:
    """The positive grades of one query, best first: the ideal ranking's."""
    return sorted((g for g in qrels_for_query.values() if g > 0), reverse=True)


def ndcg_at_k(ranked: RankedList, qrels_for_query: Mapping[str, int],
              k: int = 10, gain: str = "linear") -> float:
    """DCG over the top k ranked docs divided by the ideal DCG.

    DCG = sum_{i=1..k} gain(rel_i) / log2(i+1); documents absent from the
    qrels contribute zero. Callers must exclude queries with no positive
    grade before scoring.
    """
    if gain not in GAIN_MODES:
        raise ContractError(f"unknown gain mode {gain!r}")
    ideal = _ideal(qrels_for_query)
    if not ideal:
        raise ContractError(
            f"query {ranked.query_id!r} has no positive grade; it should have "
            "been excluded upstream")
    return (_dcg([qrels_for_query.get(doc_id, 0) for doc_id, _ in ranked.entries[:k]], gain)
            / _dcg(ideal[:k], gain))


@dataclass(frozen=True)
class Judgments:
    """A task's qrels laid over its corpus rows, shared by every cell that
    scores the task: the rows' ``id_rank``, and for each query with a
    positive grade, its positive grades by corpus row and its ideal DCG@k.
    Grades on doc ids the corpus lacks count in the ideal DCG only."""

    doc_ids: tuple[str, ...]
    id_rank: np.ndarray
    queries: dict[str, tuple[dict[int, int], float]]
    k: int
    gain: str


def build_judgments(doc_ids: Sequence[str], qrels: Mapping[str, Mapping[str, int]],
                    k: int = 10, gain: str = "linear") -> Judgments:
    """The :class:`Judgments` of a corpus whose rows are *doc_ids*."""
    if gain not in GAIN_MODES:
        raise ContractError(f"unknown gain mode {gain!r}")
    row = {doc_id: i for i, doc_id in enumerate(doc_ids)}
    queries = {}
    for qid, grades in qrels.items():
        ideal = _ideal(grades)
        if ideal:
            queries[qid] = ({row[d]: g for d, g in grades.items() if g > 0 and d in row},
                            _dcg(ideal[:k], gain))
    return Judgments(doc_ids=tuple(doc_ids), id_rank=_id_rank(doc_ids), queries=queries,
                     k=k, gain=gain)


def score_queries(query_matrix: EmbeddingMatrix, corpus_matrix: EmbeddingMatrix,
                  judgments: Judgments) -> dict[str, float]:
    """NDCG@k of each query of *query_matrix* with a positive grade, in row
    order: :func:`ndcg_at_k` over :func:`retrieve_topk`, summed straight
    from each query's top-k rows."""
    k = _clamped_k(query_matrix, corpus_matrix, judgments.k)
    if corpus_matrix.ids != judgments.doc_ids:
        raise ContractError("the corpus rows are not the judged doc ids")
    out: dict[str, float] = {}
    for qid, (_, order) in zip(query_matrix.ids, _topk_rows(
            query_matrix.vectors, corpus_matrix.vectors, judgments.id_rank, k)):
        judged = judgments.queries.get(qid)
        if judged is not None:
            grades, ideal_dcg = judged
            out[qid] = _dcg([grades.get(i, 0) for i in order.tolist()], judgments.gain) / ideal_dcg
    if not out:
        raise DomainError("no evaluable query produced a score")
    return out
