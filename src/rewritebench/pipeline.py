"""The stages of an evaluation cell: rewrite the arm's texts, build the
corpus it ranks (lexical report, embedding matrix, geometry), then score
its queries against that corpus.

The corpus depends on the (encoder, task, rewriter, strategy) only, so the
matrix builds it once for QC and C; :func:`run_arm` composes the same
stages for one cell.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Sequence

from .embed import EmbeddingCache, EncoderClient, embed_texts
from .errors import ContractError, WorkbenchError
from .geometry import EmbeddingMatrix, GeometryReport, build_geometry_report, with_delta_s
from .ingest import Collection
from .lexical import LexicalReport, build_lexical_report, with_delta_h
from .models import Regime, RewritePlan, RunRecord
from .retrieval import retrieve_topk, score_ranked_lists
from .rewrite import (RewriteCache, RewriteRecord, RewriterClient, documents_job,
                      queries_job, rewrite_jobs)
from .templates import TemplateCatalog
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


def arm_texts(collection: Collection, plan: RewritePlan,
              rewriter: RewriterClient | None, catalog: TemplateCatalog | None,
              rewrite_cache: RewriteCache | None = None,
              ) -> tuple[list[str], list[str], list[RewriteRecord]]:
    """(document texts, query texts, rewrite records) one cell ranks.

    For the Baseline plan nothing is rewritten. Otherwise the corpus is
    always rewritten and the queries only under QC.
    """
    doc_texts = [d.text for d in collection.documents]
    query_texts = [q.text for q in collection.queries]
    if plan.is_baseline:
        return doc_texts, query_texts, []
    if rewriter is None or catalog is None:
        raise ContractError("rewrite arms need a rewriter client and a template catalog")
    jobs = [documents_job(collection.documents, plan, rewriter, catalog)]
    if plan.regime is Regime.QC:
        jobs.append(queries_job(collection.queries, plan, rewriter, catalog))
    done = rewrite_jobs(jobs, rewrite_cache)
    for result in done:
        if isinstance(result, WorkbenchError):
            raise result
    if plan.regime is Regime.QC:
        query_texts = done[1].texts
    return done[0].texts, query_texts, [r for d in done for r in d.records]


def embed_corpus(collection: Collection, texts: Sequence[str], encoder: EncoderClient,
                 embedding_cache: EmbeddingCache | None = None) -> EmbeddingMatrix:
    return embed_texts([d.id for d in collection.documents], texts, encoder, embedding_cache)


def embed_queries(collection: Collection, texts: Sequence[str], encoder: EncoderClient,
                  embedding_cache: EmbeddingCache | None = None) -> EmbeddingMatrix:
    return embed_texts([q.id for q in collection.queries], texts, encoder, embedding_cache)


def build_corpus(collection: Collection, texts: Sequence[str], plan: RewritePlan, *,
                 encoder: EncoderClient, tokenizer: Tokenizer,
                 embedding_cache: EmbeddingCache | None = None) -> Corpus:
    """Lexical report, embedding matrix and geometry of one (rewritten)
    corpus, labelled with *plan*'s arm."""
    lexical = build_lexical_report(
        texts, tokenizer, encoder_id=encoder.encoder_id,
        task_id=collection.task_id, arm=plan.arm_label,
        rewriter_id=plan.rewriter_id)
    matrix = embed_corpus(collection, texts, encoder, embedding_cache)
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


def run_arm(collection: Collection, plan: RewritePlan, *,
            encoder: EncoderClient, tokenizer: Tokenizer,
            embedding_cache: EmbeddingCache | None = None,
            rewriter: RewriterClient | None = None,
            rewrite_cache: RewriteCache | None = None,
            catalog: TemplateCatalog | None = None,
            baseline: ArmResult | None = None,
            k: int = 10, gain: str = "linear") -> ArmResult:
    """Execute one arm end to end over an ingested collection."""
    doc_texts, query_texts, records = arm_texts(collection, plan, rewriter,
                                                catalog, rewrite_cache)
    corpus = build_corpus(collection, doc_texts, plan, encoder=encoder,
                          tokenizer=tokenizer, embedding_cache=embedding_cache)
    query_matrix = embed_queries(collection, query_texts, encoder, embedding_cache)
    return score_arm(collection, plan, corpus, query_matrix, rewrite_records=records,
                     baseline=baseline, k=k, gain=gain)


def evaluate_arm(collection: Collection, plan: RewritePlan, *,
                 encoder: EncoderClient, tokenizer: Tokenizer,
                 embedding_cache: EmbeddingCache | None = None,
                 rewriter: RewriterClient | None = None,
                 rewrite_cache: RewriteCache | None = None,
                 catalog: TemplateCatalog | None = None,
                 baseline: ArmResult | None = None,
                 k: int = 10, gain: str = "linear") -> RunRecord:
    """The run record alone; see :func:`run_arm` for the full artifact set."""
    return run_arm(collection, plan, encoder=encoder, tokenizer=tokenizer,
                   embedding_cache=embedding_cache, rewriter=rewriter,
                   rewrite_cache=rewrite_cache, catalog=catalog,
                   baseline=baseline, k=k, gain=gain).run_record
