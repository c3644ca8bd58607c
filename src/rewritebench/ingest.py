"""Collection ingestion for BEIR-style retrieval tasks.

Corpus and queries arrive as JSON-Lines (``_id``/``text``, corpus lines may
add ``title``; each must encode as UTF-8, so a ``\\ud800`` escape of a lone
surrogate is an error); qrels arrive as tab-separated
``query-id<TAB>corpus-id<TAB>score`` with an optional auto-detected header
line. Ingest is deterministic and order-preserving; every dropped or
suspicious row is recorded in the report rather than silently discarded.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from .errors import IngestError
from .models import Document, Query

QRELS_HEADER = ("query-id", "corpus-id", "score")


@dataclass
class IngestReport:
    """What ingest kept, dropped, and flagged."""

    n_documents: int = 0
    n_queries: int = 0
    n_qrels_rows: int = 0
    empty_text_doc_ids: list[str] = field(default_factory=list)
    empty_text_query_ids: list[str] = field(default_factory=list)
    dangling_qrels: list[tuple[str, str]] = field(default_factory=list)
    unknown_doc_refs: int = 0
    queries_without_positives: list[str] = field(default_factory=list)

    @property
    def warning_count(self) -> int:
        return (len(self.empty_text_doc_ids) + len(self.empty_text_query_ids)
                + len(self.dangling_qrels) + len(self.queries_without_positives))

    def to_dict(self) -> dict:
        return {
            "n_documents": self.n_documents,
            "n_queries": self.n_queries,
            "n_qrels_rows": self.n_qrels_rows,
            "empty_text_doc_ids": list(self.empty_text_doc_ids),
            "empty_text_query_ids": list(self.empty_text_query_ids),
            "dangling_qrels": [list(t) for t in self.dangling_qrels],
            "unknown_doc_refs": self.unknown_doc_refs,
            "queries_without_positives": list(self.queries_without_positives),
            "warning_count": self.warning_count,
        }


@dataclass
class Collection:
    """Validated (documents, queries, qrels) triple plus its ingest report.

    Immutable by convention after ingest; safe to share across threads.
    """

    task_id: str
    documents: list[Document]
    queries: list[Query]
    qrels: dict[str, dict[str, int]]
    report: IngestReport


def _iter_lines_with_offsets(path: Path):
    """Yield (line_number, byte_offset, text) for every line of *path*."""
    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise IngestError(f"cannot read: {exc.strerror}", path=str(path)) from exc
    offset = 0
    with fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                text = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise IngestError(f"invalid UTF-8: {exc}", path=str(path),
                                  line=lineno, offset=offset) from exc
            yield lineno, offset, text.rstrip("\n").rstrip("\r")
            offset += len(raw)


def _load_jsonl_items(path: Path, *, want_title: bool):
    items = []
    for lineno, offset, line in _iter_lines_with_offsets(path):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise IngestError(f"malformed JSON line: {exc.msg}", path=str(path),
                              line=lineno, offset=offset) from exc
        if not isinstance(obj, dict) or "_id" not in obj or "text" not in obj:
            raise IngestError("record must be an object with '_id' and 'text'",
                              path=str(path), line=lineno, offset=offset)
        _id, text = obj["_id"], obj["text"]
        if not isinstance(_id, str) or not isinstance(text, str):
            raise IngestError("'_id' and 'text' must be strings",
                              path=str(path), line=lineno, offset=offset)
        title = obj.get("title") if want_title else None
        if title is not None and not isinstance(title, str):
            raise IngestError("'title' must be a string when present",
                              path=str(path), line=lineno, offset=offset)
        for name, value in (("_id", _id), ("text", text), ("title", title or "")):
            try:
                value.encode("utf-8")
            except UnicodeEncodeError:  # a lone surrogate, from a "\ud800" escape
                raise IngestError(f"{name!r} does not encode as UTF-8", path=str(path),
                                  line=lineno, offset=offset) from None
        items.append((lineno, offset, _id, text, title))
    return items


def _load_qrels(path: Path):
    rows = []
    for lineno, offset, line in _iter_lines_with_offsets(path):
        if not line.strip():
            continue
        parts = line.split("\t")
        if lineno == 1 and tuple(p.strip() for p in parts) == QRELS_HEADER:
            continue
        if len(parts) != 3:
            raise IngestError(f"expected 3 tab-separated fields, got {len(parts)}",
                              path=str(path), line=lineno, offset=offset)
        qid, did, score_s = (p.strip() for p in parts)
        try:
            score = int(score_s)
        except ValueError:
            raise IngestError(f"relevance grade must be an integer, got {score_s!r}",
                              path=str(path), line=lineno, offset=offset) from None
        if score < 0:
            raise IngestError(f"relevance grade must be >= 0, got {score}",
                              path=str(path), line=lineno, offset=offset)
        if not qid or not did:
            raise IngestError("empty query-id or corpus-id",
                              path=str(path), line=lineno, offset=offset)
        rows.append((qid, did, score))
    return rows


def ingest_collection(corpus_path: str | Path, queries_path: str | Path,
                      qrels_path: str | Path, *, task_id: str = "") -> Collection:
    """Load and validate a collection triple.

    Duplicate ids and malformed rows are fatal. Empty texts and qrels rows
    that reference unknown queries are warnings: the offending entries are
    dropped from the evaluation set but kept in the report.
    """
    corpus_path, queries_path, qrels_path = (Path(corpus_path), Path(queries_path),
                                             Path(qrels_path))
    report = IngestReport()

    documents: list[Document] = []
    seen_doc_ids: set[str] = set()
    for lineno, offset, _id, text, title in _load_jsonl_items(corpus_path, want_title=True):
        if _id in seen_doc_ids:
            raise IngestError(f"duplicate document id {_id!r}",
                              path=str(corpus_path), line=lineno, offset=offset)
        seen_doc_ids.add(_id)
        if title:
            # one canonical text per document: fold the title in exactly once
            text = f"{title}\n{text}"
        if not text.strip():
            report.empty_text_doc_ids.append(_id)
            continue
        documents.append(Document(id=_id, text=text, title=title))

    queries: list[Query] = []
    seen_query_ids: set[str] = set()
    for lineno, offset, _id, text, _ in _load_jsonl_items(queries_path, want_title=False):
        if _id in seen_query_ids:
            raise IngestError(f"duplicate query id {_id!r}",
                              path=str(queries_path), line=lineno, offset=offset)
        seen_query_ids.add(_id)
        if not text.strip():
            report.empty_text_query_ids.append(_id)
            continue
        queries.append(Query(id=_id, text=text))

    retained_query_ids = {q.id for q in queries}
    doc_ids = {d.id for d in documents}
    qrels: dict[str, dict[str, int]] = {}
    for qid, did, score in _load_qrels(qrels_path):
        report.n_qrels_rows += 1
        if qid not in retained_query_ids:
            report.dangling_qrels.append((qid, did))
            continue
        if did not in doc_ids:
            report.unknown_doc_refs += 1  # kept: standard trec behavior
        qrels.setdefault(qid, {})[did] = score

    for q in queries:
        grades = qrels.get(q.id, {})
        if not any(g > 0 for g in grades.values()):
            report.queries_without_positives.append(q.id)

    report.n_documents = len(documents)
    report.n_queries = len(queries)
    return Collection(task_id=task_id or corpus_path.stem, documents=documents,
                      queries=queries, qrels=qrels, report=report)
