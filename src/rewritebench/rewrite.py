"""Rewrite orchestration: drive a rewriter endpoint over corpus and query
sets (jobs), with caching, audit records, and fail-soft fallback. Each
distinct prompt is requested once per call, however many jobs hold it.

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
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence, TextIO

from .errors import (ConfigError, ContractError, DomainError, EndpointError,
                     WorkbenchError)
from .models import CellKey, Document, Query
from .sessions import EndpointClient
from .stores import JsonlLog
from .templates import PromptTemplate, TemplateCatalog


_encode_str = json.encoder.encode_basestring  # the C escaper of ensure_ascii=False


def _encodes(text: str) -> bool:
    """Whether *text* encodes as UTF-8: it holds no lone surrogate."""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


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
    """One line of a cell's ``rewrites.jsonl``, as ``audit`` reads it back:
    the audit trail of one rewritten item. ``source_hash`` pins the exact
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
        if self._mock_kind not in (None, "identity", "table", "flaky", "fail"):
            raise ConfigError(f"unknown mock rewriter kind {self._mock_kind!r}")
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

    model_id = rewriter_id

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
        raise EndpointError(f"mock rewriter {self.rewriter_id!r} configured to fail")

    def _table_lookup(self, user: str) -> str:
        with self._table_lock:
            if self._table is None and self._table_error is None:
                try:
                    table = json.loads(self._table_path.read_text(encoding="utf-8"))
                except (OSError, ValueError) as exc:
                    self._table_error = str(exc)
                else:
                    if not (isinstance(table, dict) and set(map(type, table.values())) <= {str}):
                        self._table_error = "not a JSON object of strings"
                    elif not _encodes("".join(table) + "".join(table.values())):
                        self._table_error = "an entry does not encode as UTF-8"
                    else:
                        self._table = table
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
        if not _encodes(text):  # a lone surrogate, from a "\ud800" escape
            raise EndpointError(
                f"rewriter {self.rewriter_id!r} returned text that does not encode as UTF-8")
        truncated = choice.get("finish_reason") == "length"
        return text, truncated

    def complete(self, system: str, user: str, max_tokens: int) -> tuple[str, bool]:
        """Rewrite one prompt, retrying with exponential backoff."""
        return self._call((system, user, max_tokens), f"rewriter {self.rewriter_id!r}")


class Answer(NamedTuple):
    """A rewriter's answer to one prompt: its output, empty when the request
    failed, when it came back, and whether the output hit the token limit.
    A tuple: a cache open builds one per row."""

    output_text: str
    timestamp: str
    truncated: bool


class RewriteCache:
    """JSON-Lines cache of the answers that have an output, one
    ``{key, output_text, timestamp, truncated}`` row each, keyed as
    :func:`rewrite_jobs` says. A row without a ``key`` (written by an older
    version) is skipped, so it reads as a miss. One process at a time may
    write the file. A torn last line (a crash mid-write) is skipped and
    counted in ``torn_lines``; the first ``put`` cuts it off and opens the
    append handle that :meth:`close` closes.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._lock = threading.Lock()
        self._index: dict[str, Answer] = {}
        self._log = JsonlLog(self.path, self._add_row)
        self.torn_lines = self._log.torn_lines

    def _add_row(self, row: dict) -> None:
        if "key" in row:
            self._index[row["key"]] = Answer(row["output_text"], row["timestamp"],
                                             bool(row["truncated"]))

    def get(self, key: str) -> Answer | None:
        with self._lock:
            return self._index.get(key)

    def put(self, key: str, answer: Answer) -> None:
        """Append *answer*: one append per answer, so a crash loses none
        that finished before it. The line is ``json.dumps({"key": key,
        **answer._asdict()}, sort_keys=True, ensure_ascii=False)``, byte for
        byte."""
        output, timestamp, truncated = answer
        line = (f'{{"key": {_encode_str(key)}, "output_text": {_encode_str(output)}, '
                f'"timestamp": {_encode_str(timestamp)}, '
                f'"truncated": {"true" if truncated else "false"}}}')
        with self._lock:
            self._log.append(line)
            self._index[key] = answer

    def close(self) -> None:
        """Close the append handle, if a put opened it."""
        with self._lock:
            self._log.close()


@dataclass(frozen=True)
class RewriteJob:
    """The items of one side (documents or queries) to rewrite under one
    template."""

    ids: Sequence[str]
    texts: Sequence[str]
    template: PromptTemplate
    client: RewriterClient


@dataclass(frozen=True)
class Rewritten:
    """A job's outputs, in its input order, and what its audit records are
    built from: each item's id, source hash and cached answer, and the job's
    rewriter and template. A failed item's answer has no output, and its
    output here is its source text. A side that is not rewritten has its
    texts and no records."""

    texts: list[str]
    ids: Sequence[str] = ()
    hashes: Sequence[str] = ()
    answers: Sequence[Answer] = ()
    rewriter_id: str = ""
    template_id: str = ""

    def record_bodies(self) -> Iterator[str]:
        """Each item's :class:`RewriteRecord` as JSON after its ``"arm"``
        value, closing brace included. Under ``sort_keys`` ``"arm"`` comes
        first, so one body serves every arm that reads the record."""
        rewriter, template = _encode_str(self.rewriter_id), _encode_str(self.template_id)
        for item_id, src_hash, (output, timestamp, truncated) in zip(
                self.ids, self.hashes, self.answers):
            yield (f', "failed": {"false" if output else "true"}'
                   f', "output_text": {_encode_str(output)}'
                   f', "rewriter_id": {rewriter}'
                   f', "source_hash": {_encode_str(src_hash)}'
                   f', "source_id": {_encode_str(item_id)}'
                   f', "template_id": {template}'
                   f', "timestamp": {_encode_str(timestamp)}'
                   f', "truncated": {"true" if truncated else "false"}}}')


def _request(miss: tuple[RewriteJob, str]) -> Answer | WorkbenchError:
    """The answer to one (job, source text), or the error that was not an
    endpoint failure."""
    job, text = miss
    system, user = job.template.render(text)
    try:
        raw, truncated = job.client.complete(system, user, job.template.max_output_tokens)
    except EndpointError:
        raw, truncated = "", False
    except WorkbenchError as exc:
        return exc
    # an empty completion counts as a failure
    return Answer(strip_code_fences(raw), datetime.now(timezone.utc).isoformat(), truncated)


def rewrite_jobs(jobs: Sequence[RewriteJob], cache: RewriteCache,
                 map_fn: Callable = map) -> list[Rewritten | WorkbenchError]:
    """Rewrite every job, asking the endpoint once per distinct cache key
    across all of them.

    Cache hits resolve inline. Each miss is one request, run through
    *map_fn*: a pool's ``map``, or the builtin ``map`` to run them inline.
    Answers with an output are cached in request order, so the cache file
    does not depend on the pool's size. Each distinct source text is hashed
    once. A job whose request or cache write raised gets that error in
    place of its result; the other jobs are unaffected.
    """
    answers: dict[str, Answer | WorkbenchError] = {}
    misses: dict[str, tuple[RewriteJob, str]] = {}
    hashes: dict[str, str] = {}  # by source text
    job_items = []
    for job in jobs:
        # the key hashes all an answer depends on: the rewriter's fingerprint,
        # the template's system text, user text and token limit, and the source
        t = job.template
        head = "\0".join((job.client.fingerprint, t.system_text, t.user_text,
                          str(t.max_output_tokens), ""))
        for text in job.texts:
            if text not in hashes:
                hashes[text] = source_hash(text)
        src_hashes = [hashes[text] for text in job.texts]
        keys = [hashlib.sha256((head + h).encode("utf-8")).hexdigest() for h in src_hashes]
        for key, text in zip(keys, job.texts):
            if key in answers or key in misses:
                continue
            hit = cache.get(key)
            if hit is not None:
                answers[key] = hit
            else:
                misses[key] = (job, text)
        job_items.append((keys, src_hashes))

    for key, answer in zip(misses, map_fn(_request, misses.values())):
        if isinstance(answer, Answer) and answer.output_text:
            try:
                cache.put(key, answer)
            except WorkbenchError as exc:
                answer = exc
        answers[key] = answer

    results: list[Rewritten | WorkbenchError] = []
    for job, (keys, src_hashes) in zip(jobs, job_items):
        outcomes = [answers[key] for key in keys]
        error = next((a for a in outcomes if isinstance(a, WorkbenchError)), None)
        results.append(error or Rewritten(
            texts=[a.output_text or text for a, text in zip(outcomes, job.texts)],
            ids=job.ids, hashes=src_hashes, answers=outcomes,
            rewriter_id=job.client.rewriter_id, template_id=job.template.template_id))
    return results


def side_job(items: Sequence[Document | Query], cell: CellKey,
             client: RewriterClient, catalog: TemplateCatalog, side: str) -> RewriteJob:
    """The job that rewrites *items*, one side ("documents" or "queries") of
    a collection, for *cell*, which must rewrite that side."""
    if not cell.rewrites(side):
        raise ContractError(f"the {cell.arm_label} arm never rewrites {side}")
    if cell.rewriter_id and cell.rewriter_id != client.rewriter_id:
        raise ConfigError(
            f"cell expects rewriter {cell.rewriter_id!r} but client is "
            f"{client.rewriter_id!r}")
    return RewriteJob(ids=[x.id for x in items], texts=[x.text for x in items],
                      template=catalog.resolve(cell.strategy, cell.task_family, side),
                      client=client)


def write_records(fh: TextIO, arm: str, bodies: Iterable[str]) -> None:
    """Write *bodies*, records as :meth:`Rewritten.record_bodies` encodes
    them, to *fh* as JSON lines stamped with *arm*."""
    head = '{"arm": ' + _encode_str(arm)
    fh.writelines(f"{head}{body}\n" for body in bodies)


@dataclass(frozen=True)
class AuditItem:
    source_id: str
    arm: str
    source_text: str
    output_text: str
    failed: bool


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
