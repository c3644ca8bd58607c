"""Declarative experiment configuration (YAML) and its validation.

One config file describes the whole matrix: tasks, encoders, rewriters,
the strategy/regime subsets, evaluation settings, cache/output locations,
and the seed. Endpoint auth tokens are never stored in the file; an
``auth_env`` field names the environment variable to read instead.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import yaml

from .embed import EncoderEndpoint
from .errors import ConfigError
from .models import Regime, Strategy, TaskFamily
from .rewrite import RewriterEndpoint
from .templates import load_yaml


@dataclass(frozen=True)
class TaskSpec:
    task_id: str
    family: TaskFamily
    corpus: Path
    queries: Path
    qrels: Path


@dataclass(frozen=True)
class EncoderSpec:
    endpoint: EncoderEndpoint
    tokenizer: dict

    @property
    def encoder_id(self) -> str:
        return self.endpoint.encoder_id


@dataclass
class ExperimentConfig:
    tasks: list[TaskSpec]
    encoders: list[EncoderSpec]
    rewriters: list[RewriterEndpoint]
    strategies: list[Strategy]
    regimes: list[Regime]
    k: int = 10
    gain: str = "linear"
    seed: int = 0
    skip_threshold: float = 0.0
    parallelism: int = 1
    cache_dir: Path = Path("cache")
    out_dir: Path = Path("out")
    template_catalog: str = "builtin"
    raw: dict = field(default_factory=dict, repr=False)

    def validate(self) -> None:
        if not self.tasks:
            raise ConfigError("config needs at least one task")
        if not self.encoders:
            raise ConfigError("config needs at least one encoder")
        if self.strategies and not self.rewriters:
            raise ConfigError("rewrite strategies configured but no rewriter")
        for s in self.strategies:
            if s is Strategy.BASELINE:
                raise ConfigError("Baseline is implicit; list only rewrite strategies")
        for r in self.regimes:
            if r is Regime.NONE:
                raise ConfigError("regime None is reserved for the Baseline arm")
        if self.k < 1:
            raise ConfigError(f"eval k must be >= 1, got {self.k}")
        if self.gain not in ("linear", "exp"):
            raise ConfigError(f"gain must be 'linear' or 'exp', got {self.gain!r}")
        if not math.isfinite(self.skip_threshold):
            raise ConfigError(f"skip_threshold must be finite, got {self.skip_threshold}")
        if self.parallelism < 1:
            raise ConfigError("parallelism must be >= 1")
        ids = [t.task_id for t in self.tasks]
        if len(set(ids)) != len(ids):
            raise ConfigError("duplicate task ids in config")
        ids = [e.encoder_id for e in self.encoders]
        if len(set(ids)) != len(ids):
            raise ConfigError("duplicate encoder ids in config")
        ids = [r.rewriter_id for r in self.rewriters]
        if len(set(ids)) != len(ids):
            raise ConfigError("duplicate rewriter ids in config")

    @property
    def config_hash(self) -> str:
        """Stable digest of the resolved config, echoed into every report."""
        canon = json.dumps(self.raw, sort_keys=True, ensure_ascii=False)
        return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]


def _require(mapping: dict, key: str, context: str):
    if key not in mapping:
        raise ConfigError(f"{context} is missing required field {key!r}")
    return mapping[key]


def load_config(path: str | Path, *, seed: int | None = None,
                cache_dir: str | None = None, out_dir: str | None = None,
                ) -> ExperimentConfig:
    """Parse and validate a config file; CLI overrides win over file values."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        raw = load_yaml(path.read_text(encoding="utf-8"))
    except yaml.YAMLError as exc:
        raise ConfigError(f"cannot parse config {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path} must be a mapping")

    base = path.parent

    def _resolve(p: str) -> Path:
        q = Path(p)
        return q if q.is_absolute() else base / q

    tasks = []
    for t in raw.get("tasks", []):
        try:
            family = TaskFamily(_require(t, "family", "task"))
        except ValueError as exc:
            raise ConfigError(f"unknown task family {t.get('family')!r}") from exc
        tasks.append(TaskSpec(
            task_id=_require(t, "task_id", "task"),
            family=family,
            corpus=_resolve(_require(t, "corpus", "task")),
            queries=_resolve(_require(t, "queries", "task")),
            qrels=_resolve(_require(t, "qrels", "task")),
        ))

    endpoint_defaults = raw.get("endpoint", {})
    embed_batch = int(endpoint_defaults.get("embed_batch_size", 32))
    retries = int(endpoint_defaults.get("retries", 3))
    backoff = float(endpoint_defaults.get("backoff_s", 0.5))

    encoders = []
    for e in raw.get("encoders", []):
        tok = e.get("tokenizer", {"kind": "word"})
        if tok.get("kind") == "vocab" and "vocab_file" in tok:
            tok = dict(tok, vocab_file=str(_resolve(tok["vocab_file"])))
        encoders.append(EncoderSpec(
            endpoint=EncoderEndpoint(
                encoder_id=_require(e, "encoder_id", "encoder"),
                url=_require(e, "url", "encoder"),
                batch_size=int(e.get("batch_size", embed_batch)),
                retries=int(e.get("retries", retries)),
                backoff_s=float(e.get("backoff_s", backoff)),
                auth_env=e.get("auth_env"),
            ),
            tokenizer=tok,
        ))

    rewriters = []
    for r in raw.get("rewriters", []):
        url = _require(r, "url", "rewriter")
        if url.startswith("mock://table"):
            # resolve the table file relative to the config location
            from urllib.parse import urlparse, parse_qs
            q = parse_qs(urlparse(url).query)
            if "file" in q:
                url = f"mock://table?file={_resolve(q['file'][-1])}"
        rewriters.append(RewriterEndpoint(
            rewriter_id=_require(r, "rewriter_id", "rewriter"),
            url=url,
            retries=int(r.get("retries", retries)),
            backoff_s=float(r.get("backoff_s", backoff)),
            auth_env=r.get("auth_env"),
        ))

    try:
        strategies = [Strategy(s) for s in raw.get("strategies", [])]
        regimes = [Regime(r) for r in raw.get("regimes", [])]
    except ValueError as exc:
        raise ConfigError(f"bad strategy or regime name: {exc}") from exc

    eval_cfg = raw.get("eval", {})
    catalog = raw.get("template_catalog", "builtin")
    if catalog not in ("builtin", "identity"):
        catalog = str(_resolve(catalog))

    cfg = ExperimentConfig(
        tasks=tasks,
        encoders=encoders,
        rewriters=rewriters,
        strategies=strategies,
        regimes=regimes,
        k=int(eval_cfg.get("k", 10)),
        gain=str(eval_cfg.get("gain", "linear")),
        seed=int(raw.get("seed", 0)) if seed is None else seed,
        skip_threshold=float(raw.get("skip_threshold", 0.0)),
        parallelism=int(raw.get("parallelism", 1)),
        cache_dir=_resolve(cache_dir or raw.get("cache_dir", "cache")),
        out_dir=_resolve(out_dir or raw.get("out_dir", "out")),
        template_catalog=catalog,
        raw=raw,
    )
    cfg.validate()
    return cfg
