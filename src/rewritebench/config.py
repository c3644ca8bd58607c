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
from urllib.parse import parse_qs, urlsplit

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
        for kind, ids in (("task", [t.task_id for t in self.tasks]),
                          ("encoder", [e.encoder_id for e in self.encoders]),
                          ("rewriter", [r.rewriter_id for r in self.rewriters])):
            if len(set(ids)) != len(ids):
                raise ConfigError(f"duplicate {kind} ids in config")
        from .matrix import plan_cells  # matrix builds on this module
        cells: dict = {}
        for cell in plan_cells(self):
            other = cells.setdefault(cell.cell_id, cell)
            if other is not cell:
                ids = sorted({other.encoder_id, other.task_id, other.rewriter_id}
                             ^ {cell.encoder_id, cell.task_id, cell.rewriter_id})
                raise ConfigError(f"ids {ids} give two cells the directory name "
                                  f"{cell.cell_id!r}")

    @property
    def config_hash(self) -> str:
        """Stable digest of the resolved config, echoed into every report."""
        canon = json.dumps(self.raw, sort_keys=True, ensure_ascii=False)
        return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]


def _require(mapping: dict, key: str, context: str):
    if key not in mapping:
        raise ConfigError(f"{context} is missing required field {key!r}")
    return mapping[key]


def _shaped(value, kind: type, context: str):
    """*value*, which must be a *kind* (``dict`` or ``list``); anything else
    is a ConfigError naming *context*."""
    if not isinstance(value, kind):
        raise ConfigError(f"{context} must be a {'mapping' if kind is dict else 'list'}, "
                          f"got {value!r}")
    return value


def _number(mapping: dict, key: str, default, context: str, kind: type = int):
    """``kind(mapping[key])``, or *default* when *key* is absent; a value
    that *kind* cannot parse is a ConfigError naming *key*."""
    try:
        return kind(mapping.get(key, default))
    except (TypeError, ValueError):
        raise ConfigError(f"{context} field {key!r} must be a number, "
                          f"got {mapping[key]!r}") from None


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
    for t in _shaped(raw.get("tasks", []), list, "tasks"):
        _shaped(t, dict, "task")
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

    endpoint_defaults = _shaped(raw.get("endpoint", {}), dict, "endpoint")
    embed_batch = _number(endpoint_defaults, "embed_batch_size", 32, "endpoint")
    retries = _number(endpoint_defaults, "retries", 3, "endpoint")
    backoff = _number(endpoint_defaults, "backoff_s", 0.5, "endpoint", float)

    encoders = []
    for e in _shaped(raw.get("encoders", []), list, "encoders"):
        _shaped(e, dict, "encoder")
        tok = _shaped(e.get("tokenizer", {"kind": "word"}), dict, "tokenizer")
        if tok.get("kind") == "vocab" and "vocab_file" in tok:
            tok = dict(tok, vocab_file=str(_resolve(tok["vocab_file"])))
        encoders.append(EncoderSpec(
            endpoint=EncoderEndpoint(
                encoder_id=_require(e, "encoder_id", "encoder"),
                url=_require(e, "url", "encoder"),
                batch_size=_number(e, "batch_size", embed_batch, "encoder"),
                retries=_number(e, "retries", retries, "encoder"),
                backoff_s=_number(e, "backoff_s", backoff, "encoder", float),
                auth_env=e.get("auth_env"),
            ),
            tokenizer=tok,
        ))

    rewriters = []
    for r in _shaped(raw.get("rewriters", []), list, "rewriters"):
        _shaped(r, dict, "rewriter")
        url = _require(r, "url", "rewriter")
        table = url.startswith("mock://table") and parse_qs(urlsplit(url).query).get("file")
        if table:  # resolved relative to the config location
            url = f"mock://table?file={_resolve(table[-1])}"
        rewriters.append(RewriterEndpoint(
            rewriter_id=_require(r, "rewriter_id", "rewriter"),
            url=url,
            retries=_number(r, "retries", retries, "rewriter"),
            backoff_s=_number(r, "backoff_s", backoff, "rewriter", float),
            auth_env=r.get("auth_env"),
        ))

    strategies = _shaped(raw.get("strategies", []), list, "strategies")
    regimes = _shaped(raw.get("regimes", []), list, "regimes")
    try:
        strategies = [Strategy(s) for s in strategies]
        regimes = [Regime(r) for r in regimes]
    except ValueError as exc:
        raise ConfigError(f"bad strategy or regime name: {exc}") from exc

    eval_cfg = _shaped(raw.get("eval", {}), dict, "eval")
    catalog = raw.get("template_catalog", "builtin")
    if catalog not in ("builtin", "identity"):
        catalog = str(_resolve(catalog))

    cfg = ExperimentConfig(
        tasks=tasks,
        encoders=encoders,
        rewriters=rewriters,
        strategies=strategies,
        regimes=regimes,
        k=_number(eval_cfg, "k", 10, "eval"),
        gain=str(eval_cfg.get("gain", "linear")),
        seed=_number(raw, "seed", 0, "config") if seed is None else seed,
        skip_threshold=_number(raw, "skip_threshold", 0.0, "config", float),
        parallelism=_number(raw, "parallelism", 1, "config"),
        cache_dir=_resolve(cache_dir or raw.get("cache_dir", "cache")),
        out_dir=_resolve(out_dir or raw.get("out_dir", "out")),
        template_catalog=catalog,
        raw=raw,
    )
    cfg.validate()
    return cfg
