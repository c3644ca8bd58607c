"""Spans around the program's layer boundaries, recorded from outside it.

A :class:`Tracer` replaces a callable with a wrapper at the place the
program looks it up (``rewritebench.pipeline.retrieve_topk``, not
``rewritebench.retrieval.retrieve_topk``, because ``pipeline`` binds the
name with ``from ... import``). Each call appends a span to an in-memory
list under a lock; nothing is written until the caller drains the list.

Nesting is worked out after the fact: a span's parent is the innermost
span of the same thread that contains it or, for the first span of a pool
thread, the innermost span of the thread that created the tracer. A span's
self time is its duration minus the part of it that its children cover.
"""

from __future__ import annotations

import importlib
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable

# Per-call count attached to a span, from (args, kwargs, result).
CountFn = Callable[[tuple, dict, Any], Any]


def _n_result(args, kwargs, result) -> int:
    return len(result)


def _hit(args, kwargs, result) -> int:
    return int(result is not None)


def _rewrite_count(args, kwargs, result) -> tuple[int, int]:
    return len(args[0]), sum(1 for r in result[1] if r.failed)


def _prompt(args, kwargs, result) -> tuple:
    return args[1:3]  # (system, user) after self: one per (template, source)


def _n_items(args, kwargs, result) -> int:
    return len(result.documents) + len(result.queries)


def _n_texts(args, kwargs, result) -> int:
    return len(args[1])


# (module, owner inside it or "", attribute, layer, counter)
ENDPOINTS = (
    ("rewritebench.embed", "EncoderClient", "embed_batch", "embed.endpoint", None),
    ("rewritebench.rewrite", "RewriterClient", "complete", "rewrite.endpoint", _prompt),
)
STAGES = (
    ("rewritebench.cli", "", "run_matrix", "matrix", None),
    ("rewritebench.cli", "", "write_reports", "report", None),
    ("rewritebench.report", "", "correlation_table", "stats", None),
    ("rewritebench.stats", "", "correlate_pair", "stats.pair", None),
    ("rewritebench.matrix", "", "ingest_collection", "ingest", _n_items),
    ("rewritebench.matrix", "", "run_arm", "pipeline", None),
    ("rewritebench.pipeline", "", "rewrite_corpus", "rewrite", _rewrite_count),
    ("rewritebench.pipeline", "", "rewrite_queries", "rewrite", _rewrite_count),
    ("rewritebench.rewrite", "RewriteCache", "get", "rewrite.cache_get", _hit),
    ("rewritebench.rewrite", "RewriteCache", "put", "rewrite.cache_put", None),
    ("rewritebench.pipeline", "", "build_lexical_report", "lexical", None),
    ("rewritebench.tokenizers", "WordTokenizer", "tokenize", "tokenizers", _n_result),
    ("rewritebench.tokenizers", "VocabTokenizer", "tokenize", "tokenizers", _n_result),
    ("rewritebench.pipeline", "", "embed_texts", "embed", _n_texts),
    ("rewritebench.embed", "EmbeddingCache", "get", "embed.cache_get", _hit),
    ("rewritebench.embed", "EmbeddingCache", "put", "embed.cache_put", None),
    ("rewritebench.pipeline", "", "build_geometry_report", "geometry", None),
    ("rewritebench.pipeline", "", "retrieve_topk", "retrieval.topk", _n_result),
    ("rewritebench.pipeline", "", "score_ranked_lists", "retrieval.ndcg", None),
    ("rewritebench.stores", "RunStore", "append", "stores", None),
    ("rewritebench.stores", "DiagnosticsStore", "append", "stores", None),
)


@dataclass
class Span:
    layer: str
    thread: int
    start: float
    end: float
    count: Any = None
    children: list["Span"] = field(default_factory=list)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def covered(self) -> float:
        """Length of the union of the children's intervals within this span."""
        total, reach = 0.0, self.start
        for s, e in sorted((max(c.start, self.start), min(c.end, self.end))
                           for c in self.children):
            if e > reach:
                total += e - max(s, reach)
                reach = e
        return total

    @property
    def self_time(self) -> float:
        return self.duration - self.covered()


class Tracer:
    def __init__(self):
        self._lock = threading.Lock()
        self._spans: list[Span] = []
        self._restore: dict[tuple, list[tuple[Any, str, Any]]] = {}
        self._home = threading.get_ident()
        self.missing: list[str] = []

    def install(self, table) -> None:
        """Wrap every entry of *table*; names the program no longer has are
        listed in :attr:`missing` and their layers read zero."""
        restore = self._restore.setdefault(table, [])
        for module, owner, attr, layer, counter in table:
            try:
                target = importlib.import_module(module)
            except ModuleNotFoundError:
                target = None
            if owner:
                target = getattr(target, owner, None)
            if target is None or attr not in vars(target):
                name = f"{module}.{owner + '.' if owner else ''}{attr}"
                if name not in self.missing:
                    self.missing.append(name)
                continue
            original = vars(target)[attr]
            setattr(target, attr, self._wrap(original, layer, counter))
            restore.append((target, attr, original))

    def uninstall(self, table) -> None:
        """Put back the callables that :meth:`install` wrapped for *table*."""
        for target, attr, original in reversed(self._restore.pop(table, [])):
            setattr(target, attr, original)

    def _wrap(self, original, layer: str, counter: CountFn | None):
        spans, lock, clock = self._spans, self._lock, time.perf_counter

        def wrapper(*args, **kwargs):
            start = clock()
            try:
                result = original(*args, **kwargs)
            except BaseException:
                span = Span(layer, threading.get_ident(), start, clock())
                with lock:
                    spans.append(span)
                raise
            end = clock()
            count = counter(args, kwargs, result) if counter else None
            span = Span(layer, threading.get_ident(), start, end, count)
            with lock:
                spans.append(span)
            return result

        wrapper.__wrapped__ = original
        return wrapper

    def drain(self) -> list[Span]:
        """The spans recorded since the last drain, with children linked."""
        with self._lock:
            spans = self._spans[:]
            self._spans.clear()
        by_thread: dict[int, list[Span]] = {}
        for s in sorted(spans, key=lambda s: (s.start, -s.end)):
            by_thread.setdefault(s.thread, []).append(s)
        home = by_thread.get(self._home, [])
        for thread, seq in by_thread.items():
            stack: list[Span] = []
            for s in seq:
                while stack and stack[-1].end < s.end:
                    stack.pop()
                parent = stack[-1] if stack else None
                if parent is None and thread != self._home:
                    enclosing = [h for h in home if h.start <= s.start and s.end <= h.end]
                    parent = enclosing[-1] if enclosing else None
                if parent is not None:
                    parent.children.append(s)
                stack.append(s)
        return spans
