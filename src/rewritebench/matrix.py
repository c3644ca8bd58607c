"""The experiment matrix: every (encoder, task, rewriter, strategy, regime)
cell plus one Baseline cell per (encoder, task).

Cells share their inputs: QC and C of one strategy rank the same rewritten
corpus, and C ranks the Baseline's queries. Each shared input is computed
once per run, a corpus is held only while its cells are scored, and a
failure is recorded against the cells that depend on it while the rest
proceed. With warm caches a rerun issues zero endpoint calls and rewrites
byte-identical outputs, so the runner is a fixed point under repetition.
Per-cell artifacts live under ``out_dir/cells/<cell_id>/``; the run records
and diagnostics of every successful cell are rewritten to the global stores
in deterministic cell order, replacing an earlier run's.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from contextlib import ExitStack
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

from .config import ExperimentConfig
from .embed import EmbeddingCache, EncoderClient, fetch_missing
from .errors import WorkbenchError
from .geometry import EmbeddingMatrix
from .ingest import Collection, ingest_collection
from .models import Regime, RewritePlan, Strategy, TaskFamily
from .pipeline import ArmResult, Corpus, build_corpus, embed_queries, score_arm
from .rewrite import (RewriteCache, RewriteJob, RewriteRecord, RewriterClient,
                      Rewritten, documents_job, queries_job, rewrite_jobs,
                      write_records)
from .stores import DiagnosticsStore, RunStore, write_json
from .templates import SIDES, resolve_catalog
from .tokenizers import build_tokenizer


@dataclass(frozen=True)
class CellKey:
    encoder_id: str
    task_id: str
    rewriter_id: str = ""
    strategy: Strategy = Strategy.BASELINE
    regime: Regime = Regime.NONE

    @property
    def is_baseline(self) -> bool:
        return self.strategy is Strategy.BASELINE

    @property
    def cell_id(self) -> str:
        parts = [self.encoder_id, self.task_id]
        if self.is_baseline:
            parts.append("Baseline")
        else:
            parts.extend([self.rewriter_id, self.strategy.value, self.regime.value])
        return "__".join(p.replace("/", "_").replace(" ", "_") for p in parts)

    def plan(self, family: TaskFamily) -> RewritePlan:
        if self.is_baseline:
            return RewritePlan.baseline(task_family=family)
        return RewritePlan(strategy=self.strategy, regime=self.regime,
                           rewriter_id=self.rewriter_id, task_family=family)

    def side_key(self, side: str) -> tuple[str, str, Strategy, str]:
        """What the cell ranks on one side ("documents" or "queries"): the
        task's originals, keyed as the Baseline's, or a rewrite by the
        cell's (rewriter, strategy)."""
        if self.is_baseline or (side == "queries" and self.regime is not Regime.QC):
            return _originals(self.task_id, side)
        return self.task_id, self.rewriter_id, self.strategy, side


def _originals(task_id: str, side: str) -> tuple[str, str, Strategy, str]:
    return task_id, "", Strategy.BASELINE, side


@dataclass
class MatrixResult:
    out_dir: Path
    results: dict[CellKey, ArmResult] = field(default_factory=dict)
    failures: dict[CellKey, str] = field(default_factory=dict)
    endpoint_calls: dict[str, int] = field(default_factory=dict)

    @property
    def exit_status(self) -> int:
        return 1 if self.failures else 0


def plan_cells(config: ExperimentConfig) -> list[CellKey]:
    """Baselines first (arms consume their results), then every arm cell,
    in config order throughout."""
    baselines, arms = [], []
    for enc in config.encoders:
        for task in config.tasks:
            baselines.append(CellKey(encoder_id=enc.encoder_id, task_id=task.task_id))
            for rw in config.rewriters:
                for strategy in config.strategies:
                    for regime in config.regimes:
                        arms.append(CellKey(
                            encoder_id=enc.encoder_id, task_id=task.task_id,
                            rewriter_id=rw.rewriter_id, strategy=strategy,
                            regime=regime))
    return baselines + arms


def _persist_group(out_dir: Path, done: list[tuple[CellKey, ArmResult]],
                   corpus_records: Sequence[RewriteRecord], *, config_hash: str,
                   seed: int) -> None:
    """Write the artifacts of the scored cells of one corpus group. Each
    cell's rewrite records start with *corpus_records*, the records of the
    corpus they all rank, and each of those is encoded once for every
    cell's ``rewrites.jsonl``."""
    with ExitStack() as files:
        targets = []
        for cell, arm in done:
            cell_dir = out_dir / "cells" / cell.cell_id
            write_json(cell_dir / "record.json", arm.run_record.to_dict())
            write_json(cell_dir / "lexical.json", arm.lexical.to_dict())
            write_json(cell_dir / "geometry.json", arm.geometry.to_dict())
            write_json(cell_dir / "meta.json", {
                "arm": arm.plan.arm_label,
                "excluded_queries": arm.excluded_queries,
                "config_hash": config_hash,
                "seed": seed,
            })
            if arm.rewrite_records:
                fh = files.enter_context(
                    open(cell_dir / "rewrites.jsonl", "w", encoding="utf-8"))
                targets.append((fh, arm))
        write_records([(fh, arm.plan.arm_label) for fh, arm in targets], corpus_records)
        for fh, arm in targets:
            write_records([(fh, arm.plan.arm_label)],
                          arm.rewrite_records[len(corpus_records):])


def run_matrix(config: ExperimentConfig,
               fault_hook: Callable[[CellKey], None] | None = None) -> MatrixResult:
    """Execute the full matrix described by *config*, in three stages that
    each map over one pool of ``config.parallelism`` threads:

    1. rewrite every (task, rewriter, strategy) corpus, and its queries
       when QC is configured, asking once per distinct prompt;
    2. fetch the vectors the cells lack, each distinct text once;
    3. per corpus group, the cells that rank one (encoder, task, rewriter,
       strategy) corpus, build that corpus, score the group's cells and
       free it, baselines first: the arms attach deltas against them. At
       most ``config.parallelism`` corpora are held at once.

    ``fault_hook`` is test instrumentation: it is invoked with each cell
    key before the cell is scored and may raise to simulate a cell failure.
    """
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    catalog = resolve_catalog(config.template_catalog)
    embedding_cache = EmbeddingCache(Path(config.cache_dir) / "embeddings")
    rewrite_cache = RewriteCache(Path(config.cache_dir) / "rewrites.jsonl")

    encoder_clients = {e.encoder_id: EncoderClient(e.endpoint) for e in config.encoders}
    tokenizers = {e.encoder_id: build_tokenizer(e.tokenizer) for e in config.encoders}
    rewriter_clients = {r.rewriter_id: RewriterClient(r.endpoint)
                        for r in config.rewriters}
    families = {t.task_id: t.family for t in config.tasks}

    result = MatrixResult(out_dir=out_dir)
    cells = plan_cells(config)
    plans = {cell: cell.plan(families[cell.task_id]) for cell in cells}

    # The texts of every side a cell ranks, by CellKey.side_key. The
    # originals have no rewrite records.
    sides: dict[tuple, Rewritten | WorkbenchError] = {}
    collections: dict[str, Collection] = {}
    for t in config.tasks:
        try:
            collection = collections[t.task_id] = ingest_collection(
                t.corpus, t.queries, t.qrels, task_id=t.task_id)
            for side in SIDES:
                sides[_originals(t.task_id, side)] = Rewritten(
                    texts=[x.text for x in getattr(collection, side)], records=[])
        except WorkbenchError as exc:
            for side in SIDES:
                sides[_originals(t.task_id, side)] = WorkbenchError(
                    f"task ingest failed: {exc}")

    # A rewrite job per side; the corpus job takes the arm of its first cell.
    jobs: dict[tuple, RewriteJob] = {}
    for cell in cells:
        for side, make_job in zip(SIDES, (documents_job, queries_job)):
            key = cell.side_key(side)
            if key in sides or key in jobs:
                continue
            original = sides[_originals(cell.task_id, side)]
            if isinstance(original, WorkbenchError):
                sides[key] = original
                continue
            try:
                jobs[key] = make_job(getattr(collections[cell.task_id], side),
                                     plans[cell],
                                     rewriter_clients[cell.rewriter_id], catalog)
            except WorkbenchError as exc:
                sides[key] = exc

    def side_of(cell: CellKey, side: str) -> Rewritten:
        outcome = sides[cell.side_key(side)]
        if isinstance(outcome, WorkbenchError):
            raise outcome
        return outcome

    # The cells that rank one corpus, by (encoder, side key): a Baseline
    # alone, or the regimes of one (rewriter, strategy), contiguous in plan
    # order.
    groups: dict[tuple, list[CellKey]] = {}
    for cell in cells:
        groups.setdefault((cell.encoder_id, cell.side_key("documents")), []).append(cell)
    query_matrices: dict[tuple, EmbeddingMatrix] = {}
    baselines: dict[tuple[str, str], ArmResult] = {}

    def corpus_of(cell: CellKey) -> Corpus | WorkbenchError:
        try:
            docs = side_of(cell, "documents").texts
            return build_corpus(collections[cell.task_id], docs,
                                plans[cell],
                                encoder=encoder_clients[cell.encoder_id],
                                tokenizer=tokenizers[cell.encoder_id],
                                embedding_cache=embedding_cache)
        except WorkbenchError as exc:
            return exc

    def score(cell: CellKey, corpus: Corpus | WorkbenchError) -> ArmResult | str:
        """The cell's result, or its failure message: an error's traceback
        would keep the corpus alive."""
        try:
            if fault_hook is not None:
                fault_hook(cell)
            docs, queries = side_of(cell, "documents"), side_of(cell, "queries")
            if isinstance(corpus, WorkbenchError):
                raise corpus
            collection = collections[cell.task_id]
            # C reuses the Baseline's, which the earlier wave wrote
            qkey = (cell.encoder_id, cell.side_key("queries"))
            query_matrix = query_matrices.get(qkey)
            if query_matrix is None:
                query_matrix = embed_queries(collection, queries.texts,
                                             encoder_clients[cell.encoder_id],
                                             embedding_cache)
                if cell.is_baseline:
                    query_matrices[qkey] = query_matrix
            return score_arm(collection, plans[cell], corpus,
                             query_matrix,
                             rewrite_records=docs.records + queries.records,
                             baseline=baselines.get((cell.encoder_id, cell.task_id)),
                             k=config.k, gain=config.gain)
        except WorkbenchError as exc:
            return str(exc)

    def score_group(group: list[CellKey]) -> list[ArmResult | str]:
        # the corpus dies with this call, so only the items in flight hold one
        corpus = corpus_of(group[0])
        return [score(cell, corpus) for cell in group]

    # the pool's threads are done before the clients' sessions close
    with ExitStack() as closing, ThreadPoolExecutor(max_workers=config.parallelism) as pool:
        for client in (*encoder_clients.values(), *rewriter_clients.values()):
            closing.callback(client.close)
        sides.update(zip(jobs, rewrite_jobs(list(jobs.values()), rewrite_cache, pool)))

        for encoder_id, client in encoder_clients.items():
            keys = dict.fromkeys(cell.side_key(side) for cell in cells
                                 if cell.encoder_id == encoder_id for side in SIDES)
            wanted = [text for key in keys if isinstance(sides[key], Rewritten)
                      for text in sides[key].texts]
            fetch_missing(wanted, client, embedding_cache, pool)

        for wave in ([g for g in groups.values() if g[0].is_baseline],
                     [g for g in groups.values() if not g[0].is_baseline]):
            for group, outcomes in zip(wave, pool.map(score_group, wave)):
                done = []
                for cell, arm in zip(group, outcomes):
                    if isinstance(arm, str):
                        result.failures[cell] = arm
                        continue
                    result.results[cell] = arm
                    if cell.is_baseline:
                        baselines[(cell.encoder_id, cell.task_id)] = arm
                    done.append((cell, arm))
                if done:
                    _persist_group(out_dir, done, side_of(group[0], "documents").records,
                                   config_hash=config.config_hash, seed=config.seed)

    arms = [result.results[cell] for cell in cells if cell in result.results]
    RunStore(out_dir / "runs.jsonl").write(arm.run_record for arm in arms)
    DiagnosticsStore(out_dir / "diagnostics.jsonl").write(
        report for arm in arms for report in (("lexical", arm.lexical.to_dict()),
                                              ("geometry", arm.geometry.to_dict())))

    for name, client in sorted(encoder_clients.items()):
        result.endpoint_calls[f"encoder:{name}"] = client.call_count
    for name, client in sorted(rewriter_clients.items()):
        result.endpoint_calls[f"rewriter:{name}"] = client.call_count

    write_json(out_dir / "summary.json", {
        "config_hash": config.config_hash,
        "seed": config.seed,
        "n_cells": len(cells),
        "cells": [c.cell_id for c in cells],
        "failures": {c.cell_id: msg for c, msg in sorted(
            result.failures.items(), key=lambda kv: kv[0].cell_id)},
        "excluded_queries": {
            c.cell_id: a.excluded_queries
            for c, a in sorted(result.results.items(), key=lambda kv: kv[0].cell_id)},
    })
    return result
