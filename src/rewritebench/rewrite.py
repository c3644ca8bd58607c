"""Rewrite orchestration: drive a rewriter endpoint over a corpus or query
set under one plan, with caching, audit records, and fail-soft fallback.

Endpoint failures after the configured retries fall back to the original
text and flag the record, so corpus size (and hence score denominators)
stays constant across arms. ``mock://`` rewriter URLs run offline:

    mock://identity                  echo the user prompt verbatim
    mock://table?file=PATH           JSON map user-prompt -> output (identity
                                     for unmapped inputs)
    mock://flaky?needle=S            fail on prompts containing S
    mock://fail                      always fail
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import threading
import time
from dataclasses import dataclass, replace
from datetime import datetime, timezone
from pathlib import Path
from typing import Mapping, Sequence
from urllib.parse import parse_qs, urlparse

import requests

from .errors import ConfigError, ContractError, DomainError, EndpointError
from .models import Document, Query, Regime, RewritePlan, Strategy
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
    temperature: float = 0.0


class RewriterClient:
    """One chat-completions-compatible rewriter endpoint."""

    def __init__(self, endpoint: RewriterEndpoint):
        self.endpoint = endpoint
        self.call_count = 0
        self._count_lock = threading.Lock()  # matrix cells share the client
        parsed = urlparse(endpoint.url)
        self._scheme = parsed.scheme
        self._mock_kind = parsed.netloc if parsed.scheme == "mock" else None
        self._mock_params = {k: v[-1] for k, v in parse_qs(parsed.query).items()}
        self._table: dict[str, str] | None = None
        if self._mock_kind == "table":
            table_path = self._mock_params.get("file")
            if not table_path:
                raise ConfigError("mock://table requires a 'file' query parameter")
            self._table = json.loads(Path(table_path).read_text(encoding="utf-8"))

    @property
    def rewriter_id(self) -> str:
        return self.endpoint.rewriter_id

    def _complete_once(self, system: str, user: str, max_tokens: int) -> tuple[str, bool]:
        with self._count_lock:
            self.call_count += 1
        if self._scheme == "mock":
            return self._complete_mock(user)
        return self._complete_http(system, user, max_tokens)

    def _complete_mock(self, user: str) -> tuple[str, bool]:
        kind = self._mock_kind
        if kind == "identity":
            return user, False
        if kind == "table":
            assert self._table is not None
            return self._table.get(user, user), False
        if kind == "flaky":
            needle = self._mock_params.get("needle", "")
            if needle and needle in user:
                raise EndpointError(
                    f"mock rewriter {self.rewriter_id!r} tripped on needle")
            return user, False
        if kind == "fail":
            raise EndpointError(f"mock rewriter {self.rewriter_id!r} configured to fail")
        raise ConfigError(f"unknown mock rewriter kind {kind!r}")

    def _complete_http(self, system: str, user: str, max_tokens: int) -> tuple[str, bool]:
        headers = {"Content-Type": "application/json"}
        if self.endpoint.auth_env:
            token = os.environ.get(self.endpoint.auth_env)
            if token:
                headers["Authorization"] = f"Bearer {token}"
        messages = []
        if system:
            messages.append({"role": "system", "content": system})
        messages.append({"role": "user", "content": user})
        resp = requests.post(
            self.endpoint.url,
            json={"model": self.rewriter_id, "messages": messages,
                  "temperature": self.endpoint.temperature, "max_tokens": max_tokens},
            headers=headers,
            timeout=self.endpoint.timeout_s,
        )
        if resp.status_code != 200:
            raise EndpointError(
                f"rewriter {self.rewriter_id!r} returned HTTP {resp.status_code}")
        payload = resp.json()
        try:
            choice = payload["choices"][0]
            text = choice["message"]["content"]
        except (KeyError, IndexError, TypeError) as exc:
            raise EndpointError(
                f"rewriter {self.rewriter_id!r} returned an unexpected payload") from exc
        truncated = choice.get("finish_reason") == "length"
        return text, truncated

    def complete(self, system: str, user: str, max_tokens: int) -> tuple[str, bool]:
        attempts = self.endpoint.retries + 1
        last: Exception | None = None
        for attempt in range(attempts):
            try:
                return self._complete_once(system, user, max_tokens)
            except (EndpointError, requests.RequestException) as exc:
                last = exc
                if attempt + 1 < attempts and self.endpoint.backoff_s > 0:
                    time.sleep(self.endpoint.backoff_s * (2 ** attempt))
        raise EndpointError(
            f"rewriter {self.rewriter_id!r} failed after {attempts} attempts: {last}")


class RewriteCache:
    """JSON-Lines cache of RewriteRecords keyed by (rewriter, template, source).

    One process at a time may write the file. A torn last line (a crash
    mid-write) is skipped and counted in ``torn_lines``; the first ``put``
    cuts it off.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._lock = threading.Lock()
        self._index: dict[tuple[str, str, str], RewriteRecord] = {}
        self._log = JsonlLog(self.path, self._add_row)
        self.torn_lines = self._log.torn_lines

    def _add_row(self, row: dict) -> None:
        rec = RewriteRecord.from_dict(row)
        self._index[(rec.rewriter_id, rec.template_id, rec.source_hash)] = rec

    def get(self, rewriter_id: str, template_id: str, src_hash: str) -> RewriteRecord | None:
        with self._lock:
            return self._index.get((rewriter_id, template_id, src_hash))

    def put(self, record: RewriteRecord) -> None:
        with self._lock:
            self._log.append(json.dumps(record.to_dict(), sort_keys=True,
                                        ensure_ascii=False))
            self._index[(record.rewriter_id, record.template_id,
                         record.source_hash)] = record


def _utc_now() -> str:
    return datetime.now(timezone.utc).isoformat()


def _rewrite_one(item_id: str, text: str, plan: RewritePlan,
                 template: PromptTemplate, client: RewriterClient,
                 cache: RewriteCache | None) -> tuple[str, RewriteRecord]:
    src = source_hash(text)
    if cache is not None:
        hit = cache.get(client.rewriter_id, template.template_id, src)
        if hit is not None:
            out = text if hit.failed else hit.output_text
            return out, replace(hit, source_id=item_id, arm=plan.arm_label)
    system, user = template.render(text)
    try:
        raw, truncated = client.complete(system, user, template.max_output_tokens)
        out = strip_code_fences(raw)
        failed = not out  # empty completions count as failures
        if failed:
            out = text
    except EndpointError:
        out, truncated, failed = text, False, True
    record = RewriteRecord(
        source_id=item_id, arm=plan.arm_label, source_hash=src,
        output_text="" if failed else out,
        rewriter_id=client.rewriter_id, template_id=template.template_id,
        timestamp=_utc_now(), truncated=truncated, failed=failed,
    )
    if cache is not None:
        cache.put(record)
    return out, record


def _check_plan(plan: RewritePlan, client: RewriterClient) -> None:
    if plan.strategy is Strategy.BASELINE:
        raise ContractError("the Baseline arm never rewrites anything")
    if plan.rewriter_id and plan.rewriter_id != client.rewriter_id:
        raise ConfigError(
            f"plan expects rewriter {plan.rewriter_id!r} but client is "
            f"{client.rewriter_id!r}")


def rewrite_corpus(documents: Sequence[Document], plan: RewritePlan,
                   client: RewriterClient, catalog: TemplateCatalog,
                   cache: RewriteCache | None = None,
                   ) -> tuple[list[Document], list[RewriteRecord]]:
    """Map every document to exactly one output under the plan's template.

    Ids are preserved; failures fall back to the source text and are
    flagged in the returned records.
    """
    _check_plan(plan, client)
    template = catalog.for_documents(plan.strategy, plan.task_family)
    out_docs, records = [], []
    for doc in documents:
        out, record = _rewrite_one(doc.id, doc.text, plan, template, client, cache)
        out_docs.append(Document(id=doc.id, text=out, title=doc.title,
                                 lang_tag=doc.lang_tag))
        records.append(record)
    return out_docs, records


def rewrite_queries(queries: Sequence[Query], plan: RewritePlan,
                    client: RewriterClient, catalog: TemplateCatalog,
                    cache: RewriteCache | None = None,
                    ) -> tuple[list[Query], list[RewriteRecord]]:
    """Rewrite the query side; only legal under the QC regime."""
    _check_plan(plan, client)
    if plan.regime is not Regime.QC:
        raise ContractError(
            f"regime {plan.regime.value} never rewrites queries (QC only)")
    template = catalog.for_queries(plan.strategy, plan.task_family)
    out_queries, records = [], []
    for q in queries:
        out, record = _rewrite_one(q.id, q.text, plan, template, client, cache)
        out_queries.append(Query(id=q.id, text=out))
        records.append(record)
    return out_queries, records


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
