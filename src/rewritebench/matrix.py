"""The experiment matrix: every (encoder, task, rewriter, strategy, regime)
cell plus one Baseline cell per (encoder, task).

Cells share their inputs: QC and C of one strategy rank the same rewritten
corpus, and C ranks the Baseline's queries. :class:`Stages` computes each
shared input of its cells once, for the whole matrix or for one cell of the
CLI, and sends its endpoint requests through one pool of
``config.parallelism`` threads; everything else runs on the calling thread.
A failure is recorded against the cells that depend on it while the rest
proceed. With warm caches a rerun issues zero endpoint calls and
rewrites byte-identical outputs, so the runner is a fixed point under
repetition. ``out_dir/cells/`` holds one directory per cell that succeeded
and no other; the run records and diagnostics of those cells are
rewritten to the global stores in cell order.
"""

from __future__ import annotations

import copy
import shutil
from concurrent.futures import ThreadPoolExecutor
from contextlib import AbstractContextManager, ExitStack, contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Sequence

from .config import ExperimentConfig
from .embed import EmbeddingCache, EncoderClient, fetch_missing
from .errors import CacheMissError, WorkbenchError
from .geometry import EmbeddingMatrix
from .ingest import Collection, ingest_collection
from .models import CellKey, Strategy
from .pipeline import ArmResult, Corpus, build_corpus, embed_items, score_arm
from .rewrite import (RewriteCache, RewriteJob, RewriterClient, Rewritten,
                      rewrite_jobs, side_job, write_records)
from .stores import DiagnosticsStore, RunStore, write_json
from .templates import SIDES, resolve_catalog
from .tokenizers import build_tokenizer


def side_key(cell: CellKey, side: str) -> tuple[str, str, Strategy, str]:
    """What *cell* ranks on one side ("documents" or "queries"): the task's
    originals, keyed as the Baseline's, or a rewrite by the cell's
    (rewriter, strategy)."""
    if not cell.rewrites(side):
        return _originals(cell.task_id, side)
    return cell.task_id, cell.rewriter_id, cell.strategy, side


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
            baseline = CellKey(encoder_id=enc.encoder_id, task_id=task.task_id,
                               task_family=task.family)
            baselines.append(baseline)
            for rw in config.rewriters:
                for strategy in config.strategies:
                    for regime in config.regimes:
                        arms.append(replace(baseline, rewriter_id=rw.rewriter_id,
                                            strategy=strategy, regime=regime))
    return baselines + arms


def _persist_group(stages: Stages, done: list[tuple[CellKey, ArmResult]]) -> None:
    """Write the artifacts of the scored cells of one corpus group. A cell's
    ``rewrites.jsonl`` holds the records of the corpus the group ranks, read
    once from *stages* and each encoded once for every cell's file, then
    those of the cell's own queries, which C cells and Baselines lack."""
    config, corpus_records = stages.config, stages.side(done[0][0], "documents").records
    with ExitStack() as files:
        targets = []
        for cell, arm in done:
            cell_dir = Path(config.out_dir) / "cells" / cell.cell_id
            cell_dir.mkdir(parents=True, exist_ok=True)
            write_json(cell_dir / "record.json", arm.run_record.to_dict())
            write_json(cell_dir / "lexical.json", arm.lexical.to_dict())
            write_json(cell_dir / "geometry.json", arm.geometry.to_dict())
            write_json(cell_dir / "meta.json", {
                "arm": cell.arm_label,
                "excluded_queries": arm.excluded_queries,
                "config_hash": config.config_hash,
                "seed": config.seed,
            })
            query_records = stages.side(cell, "queries").records
            if corpus_records or query_records:
                fh = files.enter_context(
                    open(cell_dir / "rewrites.jsonl", "w", encoding="utf-8"))
                targets.append(((fh, cell.arm_label), query_records))
        write_records([target for target, _ in targets], corpus_records)
        for target, query_records in targets:
            write_records([target], query_records)


class Stages(AbstractContextManager):
    """The stages of a set of cells, from the clients, collections and
    rewrite jobs they name. Above ``parallelism: 1`` it owns a pool of
    ``config.parallelism`` threads that sends the endpoint requests of
    :meth:`rewrite` and :meth:`fetch`. A failed input is raised by whatever
    reads it; leaving the ``with`` block shuts the pool down, then closes
    the clients, then the caches."""

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
        self.rewriters = {r.rewriter_id: RewriterClient(r) for r in config.rewriters
                          if r.rewriter_id in {c.rewriter_id for c in self.cells}}

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

        # The texts of every side a cell ranks, by side_key: the
        # originals, without rewrite records, or a rewrite job's outputs. The
        # corpus job takes the arm of its first cell.
        self._jobs: dict[tuple, RewriteJob] = {}
        for cell in self.cells:
            collection = self.collections.get(cell.task_id)
            for side in SIDES:
                key, original = side_key(cell, side), _originals(cell.task_id, side)
                if key in self._sides or key in self._jobs:
                    continue
                if collection is None:
                    self._sides[key] = self._sides[original]  # the failed ingest
                elif key == original:
                    self._sides[key] = Rewritten(
                        texts=[x.text for x in getattr(collection, side)], records=[])
                else:
                    try:
                        self._jobs[key] = side_job(getattr(collection, side), cell,
                                                   self.rewriters[cell.rewriter_id], catalog, side)
                    except WorkbenchError as exc:
                        self._sides[key] = exc

        self._baselines: dict[tuple[str, str], ArmResult] = {}
        self._fetch_failures: dict[str, WorkbenchError] = {}  # by encoder id
        self._pool = (ThreadPoolExecutor(config.parallelism)
                      if config.parallelism > 1 else None)
        self._map: Callable = map if self._pool is None else self._pool.map

    def __exit__(self, *exc_info) -> None:
        if self._pool is not None:
            self._pool.shutdown()
        for client in (*self.encoders.values(), *self.rewriters.values()):
            client.close()
        self.rewrite_cache.close()
        self.embedding_cache.close()

    def rewrite(self) -> None:
        """Stage 1: rewrite the cells' sides, once per distinct prompt, each
        request sent through the pool."""
        self._sides.update(zip(self._jobs, rewrite_jobs(list(self._jobs.values()),
                                                        self.rewrite_cache, self._map)))

    def fetch(self) -> None:
        """Stage 2: fetch the vectors the cells lack, each distinct text once,
        each batch sent through the pool. An encoder's failure is kept for
        the cells it leaves without vectors."""
        for encoder_id, client in self.encoders.items():
            keys = dict.fromkeys(side_key(cell, side) for cell in self.cells
                                 if cell.encoder_id == encoder_id for side in SIDES)
            wanted = [text for key in keys if isinstance(self._sides[key], Rewritten)
                      for text in self._sides[key].texts]
            try:
                fetch_missing(wanted, client, self.embedding_cache, self._map)
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
        """The texts and rewrite records *cell* ranks on one side. A failed
        side raises a copy of its error, as :meth:`_fetched` does."""
        outcome = self._sides[side_key(cell, side)]
        if isinstance(outcome, WorkbenchError):
            raise copy.copy(outcome) from None
        return outcome

    def corpus(self, cell: CellKey) -> Corpus:
        """The corpus *cell* ranks, built anew: the caller sets its lifetime."""
        texts = self.side(cell, "documents").texts  # raises a failed ingest
        with self._fetched(cell):
            return build_corpus(self.collections[cell.task_id], texts, cell,
                                encoder=self.encoders[cell.encoder_id],
                                tokenizer=self.tokenizers[cell.encoder_id],
                                embedding_cache=self.embedding_cache)

    def queries(self, cell: CellKey) -> EmbeddingMatrix:
        """The query matrix *cell* ranks with, gathered anew from the cache."""
        texts = self.side(cell, "queries").texts
        with self._fetched(cell):
            return embed_items(self.collections[cell.task_id].queries, texts,
                               self.encoders[cell.encoder_id], self.embedding_cache)

    def score(self, cell: CellKey, corpus: Corpus) -> ArmResult:
        """Score *cell* against *corpus*, with deltas once its Baseline is scored."""
        baseline_key = (cell.encoder_id, cell.task_id)
        arm = score_arm(self.collections[cell.task_id], cell, corpus,
                        self.queries(cell), baseline=self._baselines.get(baseline_key),
                        k=self.config.k, gain=self.config.gain)
        if cell.is_baseline:
            self._baselines[baseline_key] = arm
        return arm


def run_matrix(config: ExperimentConfig,
               fault_hook: Callable[[CellKey], None] | None = None) -> MatrixResult:
    """Execute the full matrix described by *config*: the rewrite and fetch
    stages of :class:`Stages`, then, on the calling thread, each corpus
    group in plan order, Baselines first so the arms get their deltas. A
    group is the cells that rank one (encoder, task, rewriter, strategy)
    corpus: it builds the corpus, scores the group's cells against it, drops
    it and writes the cells, so one corpus is held at a time.

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
        groups.setdefault((cell.encoder_id, side_key(cell, "documents")), []).append(cell)

    with Stages(config, cells) as stages:
        stages.rewrite()
        stages.fetch()
        for group in groups.values():
            try:
                corpus: Corpus | str = stages.corpus(group[0])
            except WorkbenchError as exc:
                corpus = str(exc)
            done = []
            for cell in group:
                try:
                    if fault_hook is not None:
                        fault_hook(cell)
                    if isinstance(corpus, str):
                        raise WorkbenchError(corpus)
                    arm = stages.score(cell, corpus)
                except WorkbenchError as exc:
                    result.failures[cell] = str(exc)
                else:
                    result.results[cell] = arm
                    done.append((cell, arm))
            del corpus  # before the next group builds its own
            if done:
                _persist_group(stages, done)

    written = {cell.cell_id for cell in result.results}
    for cell_dir in (out_dir / "cells").glob("*"):  # a failed cell's, or an earlier config's
        if cell_dir.is_dir() and cell_dir.name not in written:
            shutil.rmtree(cell_dir)

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
