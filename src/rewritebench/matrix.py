"""The experiment matrix: every (encoder, task, rewriter, strategy, regime)
cell plus one Baseline cell per (encoder, task).

Cells share their inputs: QC and C of one strategy rank the same rewritten
corpus, and C ranks the Baseline's queries. :class:`Stages` computes each
shared input of its cells once, for the whole matrix or for one cell of the
CLI, and sends its endpoint requests through one pool of
``config.parallelism`` threads; everything else runs on the calling thread.
A failure is recorded against the cells that depend on it while the rest
proceed; a cell whose files cannot be written fails alone. With warm
caches a rerun issues zero endpoint calls and rewrites byte-identical
outputs, so the runner is a fixed point under repetition.
``out_dir/cells/`` holds one directory per cell that succeeded and no
other; the run records and diagnostics of those cells are written to the
global stores in cell order, which nothing else writes.
"""

from __future__ import annotations

import copy
import shutil
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from contextlib import AbstractContextManager, contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Sequence

from .config import ExperimentConfig
from .embed import EmbeddingCache, EncoderClient, fetch_missing
from .errors import CacheMissError, ContractError, WorkbenchError
from .geometry import EmbeddingMatrix
from .ingest import Collection, ingest_collection
from .models import CellKey, Strategy
from .pipeline import ArmResult, Corpus, build_corpus, embed_items, score_arm
from .retrieval import build_judgments
from .rewrite import (RewriteCache, RewriteJob, RewriterClient, Rewritten,
                      rewrite_jobs, side_job, write_records)
from .stores import DiagnosticsStore, Encoded, RunStore, replacing, write_json
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


def write_cells(stages: Stages, scored: list[tuple[CellKey, ArmResult]],
                cells_dir: Path) -> list[tuple[str, str] | WorkbenchError]:
    """Write the files of each scored cell of one corpus group to
    ``cells_dir/<cell_id>/``, and return, for each cell in turn, its
    ``diagnostics.jsonl`` rows, lexical and geometry, or the error that
    failed its write. Each report's dict serves its file and its row. The
    coverage curve, the bulk of both, and the record bodies of the corpus
    the group ranks are encoded once. A cell's ``rewrites.jsonl`` holds
    those records, then those of the cell's own queries, which C cells and
    Baselines lack."""
    config = stages.config
    curve = Encoded(scored[0][1].lexical.coverage.points)  # the corpus's
    corpus_lines = list(stages.side(scored[0][0], "documents").record_bodies())
    outcomes: list[tuple[str, str] | WorkbenchError] = []
    for cell, arm in scored:
        cell_dir = cells_dir / cell.cell_id
        lexical = arm.lexical.to_dict(curve=curve)
        geometry = arm.geometry.to_dict()
        try:
            write_json(cell_dir / "record.json", arm.run_record.to_dict())
            write_json(cell_dir / "lexical.json", lexical)
            write_json(cell_dir / "geometry.json", geometry)
            write_json(cell_dir / "meta.json", {
                "arm": cell.arm_label,
                "excluded_queries": arm.excluded_queries,
                "config_hash": config.config_hash,
                "seed": config.seed,
            })
            queries = stages.side(cell, "queries")
            if corpus_lines or queries.answers:
                with replacing(cell_dir / "rewrites.jsonl") as fh:
                    write_records(fh, cell.arm_label, corpus_lines)
                    write_records(fh, cell.arm_label, queries.record_bodies())
            outcomes.append((DiagnosticsStore.line("lexical", lexical),
                             DiagnosticsStore.line("geometry", geometry)))
        except WorkbenchError as exc:
            outcomes.append(exc.with_traceback(None))  # its frames hold the curve
    return outcomes


class Stages(AbstractContextManager):
    """The stages of a set of cells, from the clients, collections and
    rewrite jobs they name. Above ``parallelism: 1`` it owns a pool of
    ``config.parallelism`` threads that sends the endpoint requests of
    :meth:`rewrite` and :meth:`fetch`. A failed input is raised by whatever
    reads it; leaving the ``with`` block shuts the pool down, then closes
    the clients, then the embedding cache, and drops the judgments and the
    content keys no gather read. :func:`run_matrix` scores an arm against a
    Baseline whose files were written.

    What a stage needs is held only while some later stage reads it: the
    rewrite cache is open for :meth:`rewrite` alone, and each text set's
    content keys, computed once by :meth:`fetch`, are dropped after the
    last gather of that set."""

    def __init__(self, config: ExperimentConfig, cells: Sequence[CellKey]):
        self.config, self.cells = config, list(cells)
        catalog = resolve_catalog(config.template_catalog)
        self.embedding_cache = EmbeddingCache(Path(config.cache_dir) / "embeddings")

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
        self._judgments = {t: build_judgments([d.id for d in c.documents], c.qrels, config.k,
                                              config.gain) for t, c in self.collections.items()}

        # The texts of every side a cell ranks, by side_key: the
        # originals, without rewrite records, or a rewrite job's outputs.
        self._jobs: dict[tuple, RewriteJob] | None = {}  # None once rewrite has run
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
                        texts=[x.text for x in getattr(collection, side)])
                else:
                    try:
                        self._jobs[key] = side_job(getattr(collection, side), cell,
                                                   self.rewriters[cell.rewriter_id], catalog, side)
                    except WorkbenchError as exc:
                        self._sides[key] = exc

        self._fetch_failures: dict[str, WorkbenchError] = {}  # by encoder id
        # by (encoder id, side key): [gathers left, the set's content keys]
        self._keys: dict[tuple, list] = {}
        self._pool = (ThreadPoolExecutor(config.parallelism)
                      if config.parallelism > 1 else None)
        self._map: Callable = map if self._pool is None else self._pool.map

    def __exit__(self, *exc_info) -> None:
        if self._pool is not None:
            self._pool.shutdown()
        for client in (*self.encoders.values(), *self.rewriters.values()):
            client.close()
        self.embedding_cache.close()
        self._judgments.clear()
        self._keys.clear()

    def rewrite(self) -> None:
        """Stage 1: rewrite the cells' sides, once per distinct prompt, each
        request sent through the pool. The rewrite cache is opened for this
        stage and closed when it ends, which releases its index of every
        cached answer; the sides keep the answers they use. The stage runs
        once: a second call is a ContractError, not a second round of
        requests."""
        if self._jobs is None:
            raise ContractError("the rewrite stage has already run")
        jobs, self._jobs = self._jobs, None
        cache = RewriteCache(Path(self.config.cache_dir) / "rewrites.jsonl")
        try:
            self._sides.update(zip(jobs, rewrite_jobs(list(jobs.values()), cache, self._map)))
        finally:
            cache.close()

    def fetch(self) -> None:
        """Stage 2: fetch the vectors the cells lack, each distinct text once,
        each batch sent through the pool, and keep each text set's content
        keys for its gathers: one per cell that ranks with it on the query
        side, one per corpus built on the documents side, which the QC and C
        cells of a (rewriter, strategy) share. An encoder's failure is kept
        for the cells it leaves without vectors."""
        for encoder_id, client in self.encoders.items():
            cells = [cell for cell in self.cells if cell.encoder_id == encoder_id]
            sets = [key for key in dict.fromkeys(side_key(cell, side) for cell in cells
                                                 for side in SIDES)
                    if isinstance(self._sides[key], Rewritten)]
            try:
                keyed = fetch_missing((text for key in sets for text in self._sides[key].texts),
                                      client, self.embedding_cache, self._map)
            except WorkbenchError as exc:
                self._fetch_failures[encoder_id] = exc.with_traceback(None)
                continue
            query_gathers = Counter(side_key(cell, "queries") for cell in cells)
            for key in sets:  # a documents set is not in query_gathers: one gather
                self._keys[encoder_id, key] = [query_gathers[key] or 1,
                                               [keyed[text] for text in self._sides[key].texts]]

    def _gather_keys(self, cell: CellKey, side: str) -> list[str] | None:
        """The content keys of the texts *cell* ranks on *side*, as
        :meth:`fetch` computed them, dropped with the set's last gather;
        ``None`` when fetch kept none for it."""
        key = (cell.encoder_id, side_key(cell, side))
        entry = self._keys.get(key)
        if entry is None:
            return None
        entry[0] -= 1
        if not entry[0]:
            del self._keys[key]
        return entry[1]

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
                                embedding_cache=self.embedding_cache,
                                keys=self._gather_keys(cell, "documents"))

    def queries(self, cell: CellKey) -> EmbeddingMatrix:
        """The query matrix *cell* ranks with, gathered anew from the cache."""
        texts = self.side(cell, "queries").texts
        with self._fetched(cell):
            return embed_items(self.collections[cell.task_id].queries, texts,
                               self.encoders[cell.encoder_id], self.embedding_cache,
                               self._gather_keys(cell, "queries"))

    def score(self, cell: CellKey, corpus: Corpus, baseline: ArmResult | None) -> ArmResult:
        """Score *cell* against *corpus*, with deltas against *baseline* if given."""
        return score_arm(self._judgments[cell.task_id], cell, corpus, self.queries(cell),
                         baseline=baseline)


def run_matrix(config: ExperimentConfig,
               fault_hook: Callable[[CellKey], None] | None = None) -> MatrixResult:
    """Execute the full matrix described by *config*: the rewrite and fetch
    stages of :class:`Stages`, then, on the calling thread, each corpus
    group in plan order, Baselines first. A group is the cells that rank
    one (encoder, task, rewriter, strategy) corpus: it builds the corpus,
    scores the group's cells against it, drops it and writes the cells, so
    one corpus is held at a time. A cell succeeds once :func:`write_cells`
    has written its files, and an arm is measured against its Baseline's
    entry of ``result.results``, which holds only the cells that succeeded:
    an arm whose Baseline failed, in scoring or in writing, gets no deltas.

    ``fault_hook`` is test instrumentation: it is invoked with each cell
    key before the cell is scored and may raise to simulate a cell failure.
    """
    out_dir = Path(config.out_dir)
    result = MatrixResult(out_dir=out_dir)
    cells = plan_cells(config)

    # The cells that rank one corpus, by (encoder, side key): a Baseline alone,
    # or the regimes of one (rewriter, strategy), contiguous in plan order.
    groups: dict[tuple, list[CellKey]] = {}
    for cell in cells:
        groups.setdefault((cell.encoder_id, side_key(cell, "documents")), []).append(cell)

    diagnostics: dict[CellKey, tuple[str, str]] = {}  # of the cells that succeeded
    with Stages(config, cells) as stages:
        stages.rewrite()
        stages.fetch()
        for group in groups.values():
            try:
                corpus: Corpus | WorkbenchError = stages.corpus(group[0])
            except WorkbenchError as exc:
                corpus = exc.with_traceback(None)
            scored = []
            for cell in group:
                try:
                    if fault_hook is not None:
                        fault_hook(cell)
                    if isinstance(corpus, WorkbenchError):
                        raise copy.copy(corpus) from None
                    baseline = result.results.get(CellKey(cell.encoder_id, cell.task_id))
                    scored.append((cell, stages.score(cell, corpus, baseline)))
                except WorkbenchError as exc:
                    result.failures[cell] = str(exc)
            del corpus  # before the group's lines are encoded and the next corpus built
            if not scored:
                continue
            for (cell, arm), outcome in zip(scored, write_cells(stages, scored,
                                                                 out_dir / "cells")):
                if isinstance(outcome, WorkbenchError):
                    result.failures[cell] = str(outcome)
                else:
                    diagnostics[cell], result.results[cell] = outcome, arm

    written = {cell.cell_id for cell in result.results}
    for cell_dir in (out_dir / "cells").glob("*"):  # a failed cell's, or an earlier config's
        if cell_dir.is_dir() and cell_dir.name not in written:
            shutil.rmtree(cell_dir)

    arms = [result.results[cell] for cell in cells if cell in result.results]
    RunStore(out_dir / "runs.jsonl").write(arm.run_record for arm in arms)
    DiagnosticsStore(out_dir / "diagnostics.jsonl").write(
        row for cell in cells if cell in diagnostics for row in diagnostics[cell])

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
