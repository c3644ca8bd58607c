"""The experiment matrix: every (encoder, task, rewriter, strategy, regime)
cell plus one Baseline cell per (encoder, task).

Cells share their inputs: QC and C of one strategy rank the same rewritten
corpus, and C ranks the Baseline's queries. :class:`Stages` computes each
shared input of its cells once, for the whole matrix or for one cell of the
CLI. A failure is recorded against the cells that depend on it while the
rest proceed. With warm caches a rerun issues zero endpoint calls and
rewrites byte-identical outputs, so the runner is a fixed point under
repetition. Per-cell artifacts live under ``out_dir/cells/<cell_id>/``,
removed when the cell fails; the run records and diagnostics of every
successful cell are rewritten to the global stores in cell order.
"""

from __future__ import annotations

import copy
import shutil
from concurrent.futures import Executor, ThreadPoolExecutor
from contextlib import AbstractContextManager, ExitStack, contextmanager, suppress
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

from .config import ExperimentConfig
from .embed import EmbeddingCache, EncoderClient, fetch_missing
from .errors import CacheMissError, WorkbenchError
from .geometry import EmbeddingMatrix
from .ingest import Collection, ingest_collection
from .models import Regime, RewritePlan, Strategy, TaskFamily
from .pipeline import ArmResult, Corpus, build_corpus, embed_items, score_arm
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


def _persist_group(config: ExperimentConfig, done: list[tuple[CellKey, ArmResult]],
                   corpus_records: Sequence[RewriteRecord]) -> None:
    """Write the artifacts of the scored cells of one corpus group. Each
    cell's rewrite records start with *corpus_records*, the records of the
    corpus they all rank, and each of those is encoded once for every
    cell's ``rewrites.jsonl``."""
    with ExitStack() as files:
        targets = []
        for cell, arm in done:
            cell_dir = Path(config.out_dir) / "cells" / cell.cell_id
            write_json(cell_dir / "record.json", arm.run_record.to_dict())
            write_json(cell_dir / "lexical.json", arm.lexical.to_dict())
            write_json(cell_dir / "geometry.json", arm.geometry.to_dict())
            write_json(cell_dir / "meta.json", {
                "arm": arm.plan.arm_label,
                "excluded_queries": arm.excluded_queries,
                "config_hash": config.config_hash,
                "seed": config.seed,
            })
            if arm.rewrite_records:
                fh = files.enter_context(
                    open(cell_dir / "rewrites.jsonl", "w", encoding="utf-8"))
                targets.append((fh, arm))
        write_records([(fh, arm.plan.arm_label) for fh, arm in targets], corpus_records)
        for fh, arm in targets:
            write_records([(fh, arm.plan.arm_label)],
                          arm.rewrite_records[len(corpus_records):])


class Stages(AbstractContextManager):
    """The stages of a set of cells, from the clients, collections and
    rewrite jobs they name. A failed input is raised by whatever reads it;
    leaving the ``with`` block closes the clients."""

    def __init__(self, config: ExperimentConfig, cells: Sequence[CellKey]):
        self.config, self.cells = config, list(cells)
        catalog = resolve_catalog(config.template_catalog)
        self.embedding_cache = EmbeddingCache(Path(config.cache_dir) / "embeddings")
        self.rewrite_cache = RewriteCache(Path(config.cache_dir) / "rewrites.jsonl")

        # only what the cells name: a per-arm command needs one of each
        encoders = [e for e in config.encoders
                    if e.encoder_id in {c.encoder_id for c in self.cells}]
        self.encoders = {e.encoder_id: EncoderClient(e.endpoint) for e in encoders}
        self.tokenizers = {e.encoder_id: build_tokenizer(e.tokenizer) for e in encoders}
        self.rewriters = {r.rewriter_id: RewriterClient(r.endpoint) for r in config.rewriters
                          if r.rewriter_id in {c.rewriter_id for c in self.cells}}
        families = {t.task_id: t.family for t in config.tasks}
        self.plans = {cell: cell.plan(families[cell.task_id]) for cell in self.cells}

        self.collections: dict[str, Collection] = {}
        self._sides: dict[tuple, Rewritten | WorkbenchError] = {}
        for t in config.tasks:
            if t.task_id in {c.task_id for c in self.cells}:
                try:
                    self.collections[t.task_id] = ingest_collection(
                        t.corpus, t.queries, t.qrels, task_id=t.task_id)
                except WorkbenchError as exc:
                    failed = WorkbenchError(f"task ingest failed: {exc}")
                    self._sides.update((_originals(t.task_id, side), failed) for side in SIDES)

        # The texts of every side a cell ranks, by CellKey.side_key: the
        # originals, without rewrite records, or a rewrite job's outputs. The
        # corpus job takes the arm of its first cell.
        self._jobs: dict[tuple, RewriteJob] = {}
        for cell in self.cells:
            collection = self.collections.get(cell.task_id)
            for side, make_job in zip(SIDES, (documents_job, queries_job)):
                key, original = cell.side_key(side), _originals(cell.task_id, side)
                if key in self._sides or key in self._jobs:
                    continue
                if collection is None:
                    self._sides[key] = self._sides[original]  # the failed ingest
                elif key == original:
                    self._sides[key] = Rewritten(
                        texts=[x.text for x in getattr(collection, side)], records=[])
                else:
                    try:
                        self._jobs[key] = make_job(getattr(collection, side), self.plans[cell],
                                                   self.rewriters[cell.rewriter_id], catalog)
                    except WorkbenchError as exc:
                        self._sides[key] = exc

        # Baselines' only, each written by one pool item before the arms read it
        self._query_matrices: dict[tuple, EmbeddingMatrix] = {}
        self._baselines: dict[tuple[str, str], ArmResult] = {}
        self._fetch_failures: dict[str, WorkbenchError] = {}  # by encoder id

    def __exit__(self, *exc_info) -> None:
        for client in (*self.encoders.values(), *self.rewriters.values()):
            client.close()

    def rewrite(self, pool: Executor | None = None) -> None:
        """Stage 1: rewrite the cells' sides, once per distinct prompt."""
        self._sides.update(zip(self._jobs, rewrite_jobs(list(self._jobs.values()),
                                                        self.rewrite_cache, pool)))

    def fetch(self, pool: Executor | None = None) -> None:
        """Stage 2: fetch the vectors the cells lack, each distinct text once.
        An encoder's failure is kept for the cells it leaves without vectors."""
        for encoder_id, client in self.encoders.items():
            keys = dict.fromkeys(cell.side_key(side) for cell in self.cells
                                 if cell.encoder_id == encoder_id for side in SIDES)
            wanted = [text for key in keys if isinstance(self._sides[key], Rewritten)
                      for text in self._sides[key].texts]
            try:
                fetch_missing(wanted, client, self.embedding_cache, pool)
            except WorkbenchError as exc:
                self._fetch_failures[encoder_id] = exc.with_traceback(None)

    @contextmanager
    def _fetched(self, cell: CellKey):
        """Report a vector the cache lacks as the failure of the fetch that
        left it out. Each cell raises a copy: raising the kept error again
        would chain each cell's frames, and the corpora they hold, onto it."""
        try:
            yield
        except CacheMissError:
            failure = self._fetch_failures.get(cell.encoder_id)
            if failure is None:
                raise
            raise copy.copy(failure) from None

    def side(self, cell: CellKey, side: str) -> Rewritten:
        """The texts and rewrite records *cell* ranks on one side."""
        outcome = self._sides[cell.side_key(side)]
        if isinstance(outcome, WorkbenchError):
            raise outcome
        return outcome

    def corpus(self, cell: CellKey) -> Corpus:
        """The corpus *cell* ranks, built anew: the caller sets its lifetime."""
        texts = self.side(cell, "documents").texts  # raises a failed ingest
        with self._fetched(cell):
            return build_corpus(self.collections[cell.task_id], texts, self.plans[cell],
                                encoder=self.encoders[cell.encoder_id],
                                tokenizer=self.tokenizers[cell.encoder_id],
                                embedding_cache=self.embedding_cache)

    def queries(self, cell: CellKey) -> EmbeddingMatrix:
        """The query matrix *cell* ranks with; a Baseline's is kept, since
        its C cells rank the same queries."""
        key = (cell.encoder_id, cell.side_key("queries"))
        matrix = self._query_matrices.get(key)
        if matrix is None:
            texts = self.side(cell, "queries").texts
            with self._fetched(cell):
                matrix = embed_items(self.collections[cell.task_id].queries, texts,
                                     self.encoders[cell.encoder_id], self.embedding_cache)
            if cell.is_baseline:
                self._query_matrices[key] = matrix
        return matrix

    def score(self, cell: CellKey, corpus: Corpus) -> ArmResult:
        """Score *cell* against *corpus*, with deltas once its Baseline is scored."""
        docs, queries = self.side(cell, "documents"), self.side(cell, "queries")
        baseline_key = (cell.encoder_id, cell.task_id)
        arm = score_arm(self.collections[cell.task_id], self.plans[cell], corpus,
                        self.queries(cell),
                        rewrite_records=docs.records + queries.records,
                        baseline=self._baselines.get(baseline_key),
                        k=self.config.k, gain=self.config.gain)
        if cell.is_baseline:
            self._baselines[baseline_key] = arm
        return arm


def run_matrix(config: ExperimentConfig,
               fault_hook: Callable[[CellKey], None] | None = None) -> MatrixResult:
    """Execute the full matrix described by *config*: the stages of
    :class:`Stages`, each mapped over one pool of ``config.parallelism``
    threads. The last goes per corpus group, the cells that rank one
    (encoder, task, rewriter, strategy) corpus: it builds the corpus,
    scores the group's cells and frees it, Baselines first so the arms get
    their deltas. At most ``config.parallelism`` corpora are held at once.

    ``fault_hook`` is test instrumentation: it is invoked with each cell
    key before the cell is scored and may raise to simulate a cell failure.
    """
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    result = MatrixResult(out_dir=out_dir)
    cells = plan_cells(config)

    # The cells that rank one corpus, by (encoder, side key): a Baseline alone,
    # or the regimes of one (rewriter, strategy), contiguous in plan order.
    groups: dict[tuple, list[CellKey]] = {}
    for cell in cells:
        groups.setdefault((cell.encoder_id, cell.side_key("documents")), []).append(cell)

    # the pool's threads are done before the clients' connections close
    with Stages(config, cells) as stages, \
            ThreadPoolExecutor(max_workers=config.parallelism) as pool:

        def score_group(group: list[CellKey]) -> list[ArmResult | str]:
            """Each cell's result, or its failure message: an error's traceback
            would keep the corpus, which dies with this call, alive."""
            try:
                corpus: Corpus | WorkbenchError = stages.corpus(group[0])
            except WorkbenchError as exc:
                corpus = exc
            outcomes: list[ArmResult | str] = []
            for cell in group:
                try:
                    if fault_hook is not None:
                        fault_hook(cell)
                    if isinstance(corpus, WorkbenchError):
                        raise corpus
                    outcomes.append(stages.score(cell, corpus))
                except WorkbenchError as exc:
                    outcomes.append(str(exc))
            return outcomes

        stages.rewrite(pool)
        stages.fetch(pool)
        for wave in ([g for g in groups.values() if g[0].is_baseline],
                     [g for g in groups.values() if not g[0].is_baseline]):
            for group, outcomes in zip(wave, pool.map(score_group, wave)):
                done = []
                for cell, arm in zip(group, outcomes):
                    if isinstance(arm, str):
                        result.failures[cell] = arm
                        with suppress(FileNotFoundError):  # an earlier run's
                            shutil.rmtree(out_dir / "cells" / cell.cell_id)
                    else:
                        result.results[cell] = arm
                        done.append((cell, arm))
                if done:
                    _persist_group(config, done, stages.side(group[0], "documents").records)

    arms = [result.results[cell] for cell in cells if cell in result.results]
    RunStore(out_dir / "runs.jsonl").write(arm.run_record for arm in arms)
    DiagnosticsStore(out_dir / "diagnostics.jsonl").write(
        report for arm in arms for report in (("lexical", arm.lexical.to_dict()),
                                              ("geometry", arm.geometry.to_dict())))

    for name, client in sorted(stages.encoders.items()):
        result.endpoint_calls[f"encoder:{name}"] = client.call_count
    for name, client in sorted(stages.rewriters.items()):
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
