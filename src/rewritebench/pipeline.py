"""The stages of an evaluation cell after its texts are rewritten: build
the corpus it ranks (lexical report, embedding matrix, geometry), then
score its queries against that corpus.

The corpus depends on the (encoder, task, rewriter, strategy) only, so it
is built once for QC and C; ``matrix.Stages`` composes these stages for
the matrix and for the per-arm commands alike.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Sequence

from .embed import EmbeddingCache, EncoderClient, embed_texts
from .geometry import EmbeddingMatrix, GeometryReport, build_geometry_report, with_delta_s
from .ingest import Collection
from .lexical import LexicalReport, build_lexical_report, with_delta_h
from .models import Document, Query, RewritePlan, RunRecord
from .retrieval import retrieve_topk, score_ranked_lists
from .rewrite import RewriteRecord
from .tokenizers import Tokenizer


@dataclass
class ArmResult:
    """Everything one (encoder, task, arm) cell produces."""

    plan: RewritePlan
    run_record: RunRecord
    lexical: LexicalReport
    geometry: GeometryReport
    rewrite_records: list[RewriteRecord] = field(default_factory=list)
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
                encoder: EncoderClient, embedding_cache: EmbeddingCache) -> EmbeddingMatrix:
    """The matrix of *texts*, one per item of a collection side, with the
    items' ids as row ids, gathered from the cache the fetch stage filled."""
    return embed_texts([x.id for x in items], texts, encoder, embedding_cache)


def build_corpus(collection: Collection, texts: Sequence[str], plan: RewritePlan, *,
                 encoder: EncoderClient, tokenizer: Tokenizer,
                 embedding_cache: EmbeddingCache) -> Corpus:
    """Lexical report, embedding matrix and geometry of one (rewritten)
    corpus, labelled with *plan*'s arm."""
    lexical = build_lexical_report(
        texts, tokenizer, encoder_id=encoder.encoder_id,
        task_id=collection.task_id, arm=plan.arm_label,
        rewriter_id=plan.rewriter_id)
    matrix = embed_items(collection.documents, texts, encoder, embedding_cache)
    geometry = build_geometry_report(matrix, task_id=collection.task_id,
                                     arm=plan.arm_label, rewriter_id=plan.rewriter_id)
    return Corpus(matrix=matrix, lexical=lexical, geometry=geometry)


def score_arm(collection: Collection, plan: RewritePlan, corpus: Corpus,
              query_matrix: EmbeddingMatrix, *,
              rewrite_records: Sequence[RewriteRecord] = (),
              baseline: ArmResult | None = None,
              k: int = 10, gain: str = "linear") -> ArmResult:
    """Rank the corpus for every query, score NDCG@k and label the corpus
    reports with this cell's arm. Deltas (NDCG, entropy, cosine) are
    attached when the matching baseline result is supplied."""
    ranked = retrieve_topk(query_matrix, corpus.matrix, k=k)
    per_query = score_ranked_lists(ranked, collection.qrels, k=k, gain=gain)
    mean = sum(per_query.values()) / len(per_query)

    lexical, geometry = corpus.lexical, corpus.geometry
    if lexical.arm != plan.arm_label:
        lexical = replace(lexical, arm=plan.arm_label)
        geometry = replace(geometry, arm=plan.arm_label)
    delta = None
    if baseline is not None and not plan.is_baseline:
        delta = mean - baseline.run_record.mean_ndcg
        lexical = with_delta_h(baseline.lexical, lexical)
        geometry = with_delta_s(baseline.geometry, geometry)

    record = RunRecord(
        encoder_id=query_matrix.encoder_id, task_id=collection.task_id, plan=plan,
        ndcg_per_query=per_query, mean_ndcg=mean, delta_ndcg=delta,
        gain=gain, k=k)
    return ArmResult(plan=plan, run_record=record, lexical=lexical,
                     geometry=geometry, rewrite_records=list(rewrite_records),
                     excluded_queries=query_matrix.n_rows - len(per_query))
