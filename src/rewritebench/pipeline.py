"""The stages of an evaluation cell after its texts are rewritten: build
the corpus it ranks (lexical report, embedding matrix, geometry), then
score its queries against that corpus.

The corpus depends on the (encoder, task, rewriter, strategy) only, so it
is built once for QC and C. ``matrix.Stages`` composes these stages, for
the matrix and the per-arm commands alike, and keeps the rewrite records.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

from .embed import EmbeddingCache, EncoderClient, embed_texts
from .geometry import EmbeddingMatrix, GeometryReport, build_geometry_report, delta_s
from .ingest import Collection
from .lexical import LexicalReport, build_lexical_report, delta_h
from .models import CellKey, Document, Query, RunRecord
from .retrieval import Judgments, score_queries
from .tokenizers import Tokenizer


@dataclass
class ArmResult:
    """A cell's scores and reports; its rewrite records stay in ``matrix.Stages``."""

    run_record: RunRecord
    lexical: LexicalReport
    geometry: GeometryReport
    excluded_queries: int = 0


@dataclass
class Corpus:
    """One corpus as one encoder sees it, shared by the cells that rank it.
    Its reports carry the arm label they were built under; each cell
    relabels them."""

    matrix: EmbeddingMatrix
    lexical: LexicalReport
    geometry: GeometryReport


def embed_items(items: Sequence[Document | Query], texts: Sequence[str],
                encoder: EncoderClient, embedding_cache: EmbeddingCache,
                keys: Sequence[str]) -> EmbeddingMatrix:
    """The matrix of *texts*, one per item of a collection side, with the
    items' ids as row ids, gathered from the cache the fetch stage filled
    by the texts' content *keys*."""
    return embed_texts([x.id for x in items], texts, encoder, embedding_cache, keys=keys)


def build_corpus(collection: Collection, texts: Sequence[str], cell: CellKey, *,
                 encoder: EncoderClient, tokenizer: Tokenizer,
                 embedding_cache: EmbeddingCache, keys: Sequence[str]) -> Corpus:
    """Lexical report, embedding matrix and geometry of one (rewritten)
    corpus, labelled with *cell*'s arm; *keys* as :func:`embed_items` takes them."""
    lexical = build_lexical_report(
        texts, tokenizer, encoder_id=encoder.encoder_id,
        task_id=collection.task_id, arm=cell.arm_label,
        rewriter_id=cell.rewriter_id)
    matrix = embed_items(collection.documents, texts, encoder, embedding_cache, keys)
    geometry = build_geometry_report(matrix, task_id=collection.task_id,
                                     arm=cell.arm_label, rewriter_id=cell.rewriter_id)
    return Corpus(matrix=matrix, lexical=lexical, geometry=geometry)


def score_arm(judgments: Judgments, cell: CellKey, corpus: Corpus,
              query_matrix: EmbeddingMatrix, *, baseline: ArmResult | None = None) -> ArmResult:
    """Rank the corpus for every query, score NDCG@k against *judgments*
    and label the corpus reports with this cell's arm. Deltas (NDCG, entropy,
    cosine) are attached when the matching baseline result is supplied."""
    per_query = score_queries(query_matrix, corpus.matrix, judgments)
    mean = sum(per_query.values()) / len(per_query)

    delta = delta_h_bits = delta_s_bar = None
    if baseline is not None and not cell.is_baseline:
        delta = mean - baseline.run_record.mean_ndcg
        delta_h_bits = delta_h(baseline.lexical, corpus.lexical)
        delta_s_bar = delta_s(baseline.geometry, corpus.geometry)
    lexical = replace(corpus.lexical, arm=cell.arm_label, delta_h_bits=delta_h_bits)
    geometry = replace(corpus.geometry, arm=cell.arm_label, delta_s_bar=delta_s_bar)

    record = RunRecord(plan=cell, ndcg_per_query=per_query, mean_ndcg=mean,
                       delta_ndcg=delta, gain=judgments.gain, k=judgments.k)
    return ArmResult(run_record=record, lexical=lexical, geometry=geometry,
                     excluded_queries=query_matrix.n_rows - len(per_query))
