"""Rewrite orchestration: drive a rewriter endpoint over corpus and query
sets (jobs), with caching, audit records, and fail-soft fallback. Each
distinct (rewriter, template, source) prompt is requested once per call,
however many jobs hold it.

Endpoint failures after the configured retries fall back to the original
text and flag the record, so corpus size (and hence score denominators)
stays constant across arms. Failures are not cached: the next run asks
again. ``mock://`` rewriter URLs run offline:

    mock://identity                  echo the user prompt verbatim
    mock://table?file=PATH           JSON map user-prompt -> output (identity
                                     for unmapped inputs), read on the
                                     first request
    mock://flaky?needle=S            fail on prompts containing S
    mock://fail                      always fail
"""

from __future__ import annotations

import hashlib
import json
import random
import threading
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence, TextIO

from .errors import (ConfigError, ContractError, DomainError, EndpointError,
                     WorkbenchError)
from .models import Document, Query, Regime, RewritePlan, Strategy
from .sessions import EndpointClient
from .stores import JsonlLog
from .templates import PromptTemplate, TemplateCatalog


def source_hash(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def strip_code_fences(text: str) -> str:
    """Remove one surrounding fence pair and outer blank lines, nothing else."""
    lines = text.split("\n")
    while lines and not lines[0].strip():
        lines.pop(0)
    while lines and not lines[-1].strip():
        lines.pop()
    if len(lines) >= 2 and lines[0].strip().startswith("```") and lines[-1].strip() == "```":
        lines = lines[1:-1]
        while lines and not lines[0].strip():
            lines.pop(0)
        while lines and not lines[-1].strip():
            lines.pop()
    return "\n".join(lines)


@dataclass(frozen=True)
class RewriteRecord:
    """Audit trail for one rewritten item; ``source_hash`` pins the exact
    input so humans can trace any output back to its origin."""

    source_id: str
    arm: str
    source_hash: str
    output_text: str
    rewriter_id: str
    template_id: str
    timestamp: str
    truncated: bool = False
    failed: bool = False

    def __post_init__(self):
        if not self.failed and not self.output_text:
            raise DomainError(
                f"record for {self.source_id!r} has empty output but is not failed")

    def to_dict(self) -> dict:
        return {
            "source_id": self.source_id,
            "arm": self.arm,
            "source_hash": self.source_hash,
            "output_text": self.output_text,
            "rewriter_id": self.rewriter_id,
            "template_id": self.template_id,
            "timestamp": self.timestamp,
            "truncated": self.truncated,
            "failed": self.failed,
        }

    @classmethod
    def from_dict(cls, d: Mapping) -> "RewriteRecord":
        return cls(
            source_id=d["source_id"], arm=d["arm"], source_hash=d["source_hash"],
            output_text=d["output_text"], rewriter_id=d["rewriter_id"],
            template_id=d["template_id"], timestamp=d["timestamp"],
            truncated=bool(d.get("truncated", False)),
            failed=bool(d.get("failed", False)),
        )


@dataclass(frozen=True)
class RewriterEndpoint:
    rewriter_id: str
    url: str
    retries: int = 3
    backoff_s: float = 0.5
    timeout_s: float = 120.0
    auth_env: str | None = None


class RewriterClient(EndpointClient):
    """One chat-completions-compatible rewriter endpoint."""

    def __init__(self, endpoint: RewriterEndpoint):
        super().__init__(endpoint)
        # mock://table: checked here, read on the first request
        self._table: dict[str, str] | None = None
        self._table_error: str | None = None
        self._table_lock = threading.Lock()
        if self._mock_kind == "table":
            table_path = self._mock_params.get("file")
            if not table_path:
                raise ConfigError("mock://table requires a 'file' query parameter")
            self._table_path = Path(table_path)
            if not self._table_path.is_file():
                raise ConfigError(f"mock://table file {table_path} does not exist")

    @property
    def rewriter_id(self) -> str:
        return self.endpoint.rewriter_id

    def _mock(self, system: str, user: str, max_tokens: int) -> tuple[str, bool]:
        kind = self._mock_kind
        if kind == "identity":
            return user, False
        if kind == "table":
            return self._table_lookup(user), False
        if kind == "flaky":
            needle = self._mock_params.get("needle", "")
            if needle and needle in user:
                raise EndpointError(
                    f"mock rewriter {self.rewriter_id!r} tripped on needle")
            return user, False
        if kind == "fail":
            raise EndpointError(f"mock rewriter {self.rewriter_id!r} configured to fail")
        raise ConfigError(f"unknown mock rewriter kind {kind!r}")

    def _table_lookup(self, user: str) -> str:
        with self._table_lock:
            if self._table is None and self._table_error is None:
                try:
                    table = json.loads(self._table_path.read_text(encoding="utf-8"))
                except (OSError, ValueError) as exc:
                    self._table_error = str(exc)
                else:
                    if isinstance(table, dict):
                        self._table = table
                    else:
                        self._table_error = "not a JSON object"
            if self._table is None:
                raise ConfigError(f"mock://table file {self._table_path} does not "
                                  f"parse: {self._table_error}")
            return self._table.get(user, user)

    def _http(self, system: str, user: str, max_tokens: int) -> tuple[str, bool]:
        messages = []
        if system:
            messages.append({"role": "system", "content": system})
        messages.append({"role": "user", "content": user})
        payload = self._transport.post({
            "model": self.rewriter_id, "messages": messages,
            "temperature": 0.0, "max_tokens": max_tokens})
        try:
            choice = payload["choices"][0]
            text = choice["message"]["content"]
            if not isinstance(text, str):  # "content": null
                raise TypeError(f"content is {type(text).__name__}")
        except (KeyError, IndexError, TypeError) as exc:
            raise EndpointError(
                f"rewriter {self.rewriter_id!r} returned an unexpected payload") from exc
        truncated = choice.get("finish_reason") == "length"
        return text, truncated

    def complete(self, system: str, user: str, max_tokens: int) -> tuple[str, bool]:
        """Rewrite one prompt, retrying with exponential backoff."""
        return self._call((system, user, max_tokens), f"rewriter {self.rewriter_id!r}")


class RewriteCache:
    """JSON-Lines cache of RewriteRecords keyed by (rewriter, template, source).

    Only successful rewrites belong here: a row flagged ``failed`` (written
    by an older version) reads as a miss, so the next run asks again. One
    process at a time may write the file. A torn last line (a crash
    mid-write) is skipped and counted in ``torn_lines``; the first ``put``
    cuts it off and opens the append handle that :meth:`close` closes.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        self._index: dict[tuple[str, str, str], RewriteRecord] = {}
        self._log = JsonlLog(self.path, self._add_row)
        self.torn_lines = self._log.torn_lines

    def _add_row(self, row: dict) -> None:
        if row.get("failed"):
            return
        rec = RewriteRecord.from_dict(row)
        self._index[(rec.rewriter_id, rec.template_id, rec.source_hash)] = rec

    def get(self, rewriter_id: str, template_id: str, src_hash: str) -> RewriteRecord | None:
        with self._lock:
            return self._index.get((rewriter_id, template_id, src_hash))

    def put(self, record: RewriteRecord) -> None:
        """Append *record*: one append per answer, so a crash loses none
        that finished before it."""
        with self._lock:
            self._log.append(record_json(record, record.arm))
            self._index[(record.rewriter_id, record.template_id,
                         record.source_hash)] = record

    def close(self) -> None:
        """Close the append handle, if a put opened it."""
        with self._lock:
            self._log.close()


def _utc_now() -> str:
    return datetime.now(timezone.utc).isoformat()


@dataclass(frozen=True)
class RewriteJob:
    """The items of one side (documents or queries) to rewrite under one
    template. ``arm`` labels the job's records."""

    ids: Sequence[str]
    texts: Sequence[str]
    template: PromptTemplate
    client: RewriterClient
    arm: str


@dataclass(frozen=True)
class Rewritten:
    """A job's outputs and audit records, in its input order. A failed item's
    output is its source text."""

    texts: list[str]
    records: list[RewriteRecord]


def _request(miss: tuple[RewriteJob, str, str]) -> tuple[str, bool, bool] | WorkbenchError:
    """(output, truncated, failed) for one (job, item id, source text), or
    the error that was not an endpoint failure."""
    job, _, text = miss
    system, user = job.template.render(text)
    try:
        raw, truncated = job.client.complete(system, user, job.template.max_output_tokens)
    except EndpointError:
        return "", False, True
    except WorkbenchError as exc:
        return exc
    out = strip_code_fences(raw)
    return out, truncated, not out  # empty completions count as failures


def rewrite_jobs(jobs: Sequence[RewriteJob], cache: RewriteCache | None = None,
                 map_fn: Callable = map) -> list[Rewritten | WorkbenchError]:
    """Rewrite every job, asking the endpoint once per distinct
    (rewriter, template, source) across all of them.

    Cache hits resolve inline. Each miss is one request, run through
    *map_fn*: a pool's ``map``, or the builtin ``map`` to run them inline.
    Successful rewrites are cached in request order, so the cache file
    does not depend on the pool's size. A job whose
    request or cache write raised gets that error in place of its result;
    the other jobs are unaffected.
    """
    records: dict[tuple[str, str, str], RewriteRecord | WorkbenchError] = {}
    misses: dict[tuple[str, str, str], tuple[RewriteJob, str, str]] = {}
    job_keys = []
    for job in jobs:
        keys = [(job.client.rewriter_id, job.template.template_id, source_hash(text))
                for text in job.texts]
        for key, item_id, text in zip(keys, job.ids, job.texts):
            if key in records or key in misses:
                continue
            hit = cache.get(*key) if cache is not None else None
            if hit is not None:
                records[key] = hit
            else:
                misses[key] = (job, item_id, text)
        job_keys.append(keys)

    answers = map_fn(_request, misses.values())
    for (key, (job, item_id, _)), answer in zip(misses.items(), answers):
        if isinstance(answer, WorkbenchError):
            records[key] = answer
            continue
        out, truncated, failed = answer
        record = RewriteRecord(
            source_id=item_id, arm=job.arm, source_hash=key[2],
            output_text="" if failed else out, rewriter_id=key[0],
            template_id=key[1], timestamp=_utc_now(), truncated=truncated,
            failed=failed)
        try:
            if cache is not None and not failed:
                cache.put(record)
            records[key] = record
        except WorkbenchError as exc:
            records[key] = exc

    results: list[Rewritten | WorkbenchError] = []
    for job, keys in zip(jobs, job_keys):
        outs, recs = [], []
        for key, item_id, text in zip(keys, job.ids, job.texts):
            rec = records[key]
            if isinstance(rec, WorkbenchError):
                results.append(rec)
                break
            if rec.source_id != item_id or rec.arm != job.arm:
                rec = RewriteRecord(
                    source_id=item_id, arm=job.arm, source_hash=rec.source_hash,
                    output_text=rec.output_text, rewriter_id=rec.rewriter_id,
                    template_id=rec.template_id, timestamp=rec.timestamp,
                    truncated=rec.truncated, failed=rec.failed)
            outs.append(text if rec.failed else rec.output_text)
            recs.append(rec)
        else:
            results.append(Rewritten(texts=outs, records=recs))
    return results


def side_job(items: Sequence[Document | Query], plan: RewritePlan,
             client: RewriterClient, catalog: TemplateCatalog, side: str) -> RewriteJob:
    """The job that rewrites *items*, one side ("documents" or "queries") of
    a collection, under *plan*; queries are rewritten under QC only."""
    if plan.strategy is Strategy.BASELINE:
        raise ContractError("the Baseline arm never rewrites anything")
    if plan.rewriter_id and plan.rewriter_id != client.rewriter_id:
        raise ConfigError(
            f"plan expects rewriter {plan.rewriter_id!r} but client is "
            f"{client.rewriter_id!r}")
    if side == "queries" and plan.regime is not Regime.QC:
        raise ContractError(
            f"regime {plan.regime.value} never rewrites queries (QC only)")
    return RewriteJob(ids=[x.id for x in items], texts=[x.text for x in items],
                      template=catalog.resolve(plan.strategy, plan.task_family, side),
                      client=client, arm=plan.arm_label)


_encode_str = json.encoder.encode_basestring  # the C escaper of ensure_ascii=False


def record_body(record: RewriteRecord) -> str:
    """The JSON of *record* after its ``"arm"`` value, closing brace
    included. Under ``sort_keys`` ``"arm"`` comes first, so one body serves
    every arm that reads the record."""
    return (f', "failed": {"true" if record.failed else "false"}'
            f', "output_text": {_encode_str(record.output_text)}'
            f', "rewriter_id": {_encode_str(record.rewriter_id)}'
            f', "source_hash": {_encode_str(record.source_hash)}'
            f', "source_id": {_encode_str(record.source_id)}'
            f', "template_id": {_encode_str(record.template_id)}'
            f', "timestamp": {_encode_str(record.timestamp)}'
            f', "truncated": {"true" if record.truncated else "false"}}}')


def record_json(record: RewriteRecord, arm: str) -> str:
    """``json.dumps({**record.to_dict(), "arm": arm}, sort_keys=True,
    ensure_ascii=False)``, byte for byte."""
    return '{"arm": ' + _encode_str(arm) + record_body(record)


def write_records(targets: Sequence[tuple[TextIO, str]],
                  records: Iterable[RewriteRecord]) -> None:
    """Write *records* as JSON lines to each (file, arm) of *targets*, each
    line stamped with that file's arm: QC and C read one corpus rewrite,
    so both files take its records. A record is encoded once for all the
    files, and only the line in hand is held."""
    heads = [(fh, '{"arm": ' + _encode_str(arm)) for fh, arm in targets]
    for record in records:
        tail = record_body(record) + "\n"
        for fh, head in heads:
            fh.write(head + tail)


@dataclass(frozen=True)
class AuditItem:
    source_id: str
    arm: str
    source_text: str
    output_text: str
    failed: bool

    def to_dict(self) -> dict:
        return {
            "source_id": self.source_id, "arm": self.arm,
            "source_text": self.source_text, "output_text": self.output_text,
            "failed": self.failed,
        }


def audit_sample(records: Sequence[RewriteRecord], sources: Mapping[str, str],
                 sample_size: int, seed: int) -> list[AuditItem]:
    """Seeded uniform sample of rewrites for human review, ordered by id."""
    if not records:
        raise DomainError("cannot audit an empty record set")
    if sample_size > len(records):
        raise DomainError(
            f"sample size {sample_size} exceeds record count {len(records)}")
    chosen = random.Random(seed).sample(list(records), sample_size)
    chosen.sort(key=lambda r: (r.source_id, r.arm))
    items = []
    for rec in chosen:
        src = sources.get(rec.source_id)
        if src is None:
            raise DomainError(f"no source text for record {rec.source_id!r}")
        items.append(AuditItem(source_id=rec.source_id, arm=rec.arm,
                               source_text=src, output_text=rec.output_text,
                               failed=rec.failed))
    return items
