"""Prompt template catalog for the rewriters.

A template file is front-matter (YAML, between ``---`` lines) plus a body
that becomes the user prompt. The body must contain exactly one
``{input}`` placeholder; substitution is literal, so braces in source code
pass through untouched. Templates are versioned by ``template_id`` so every
rewrite record is attributable to the exact prompt that produced it.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import yaml

from .errors import ConfigError
from .models import Strategy, TaskFamily

SIDES = ("documents", "queries")
_DATA_DIR = Path(__file__).parent / "templates_data"

# libyaml's loader when PyYAML was built with it, several times faster than
# the pure-Python one; a test checks that both read every config shape alike
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def load_yaml(text: str):
    """``yaml.safe_load(text)``, through libyaml when it is there."""
    return yaml.load(text, Loader=_YAML_LOADER)


def read_text(path: Path, what: str) -> str:
    """The UTF-8 text of *path*, a *what* file the config names; a file that
    cannot be read or decoded is a ConfigError naming it."""
    try:
        return path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {what} file {path}: {exc}") from None


@dataclass(frozen=True)
class PromptTemplate:
    template_id: str
    strategy: Strategy
    task_family: TaskFamily
    system_text: str
    user_text: str
    max_output_tokens: int = 512
    applies_to: tuple[str, ...] = SIDES

    def __post_init__(self):
        if self.user_text.count("{input}") != 1:
            raise ConfigError(
                f"template {self.template_id!r} must contain exactly one "
                "{input} placeholder")
        if self.max_output_tokens < 1:
            raise ConfigError(f"template {self.template_id!r}: max_output_tokens must be positive")
        for side in self.applies_to:
            if side not in SIDES:
                raise ConfigError(f"template {self.template_id!r}: unknown side {side!r}")

    def render(self, input_text: str) -> tuple[str, str]:
        """(system, user) message pair for one input."""
        return self.system_text, self.user_text.replace("{input}", input_text)


def parse_template_file(path: str | Path) -> PromptTemplate:
    path = Path(path)
    text = read_text(path, "template")
    if not text.startswith("---"):
        raise ConfigError(f"template file {path} missing front-matter")
    try:
        _, fm, body = text.split("---", 2)
    except ValueError:
        raise ConfigError(f"template file {path} has unterminated front-matter") from None
    try:
        meta = load_yaml(fm) or {}
    except yaml.YAMLError as exc:
        raise ConfigError(f"template file {path} has malformed front-matter: {exc}") from exc
    if not isinstance(meta, dict):
        raise ConfigError(f"template file {path} front-matter must be a mapping")
    for key in ("template_id", "strategy", "task_family"):
        if key not in meta:
            raise ConfigError(f"template file {path} missing field {key!r}")

    def parsed(key: str, kind: type, default=None):
        try:
            return kind(meta[key]) if key in meta else default
        except (TypeError, ValueError):
            raise ConfigError(f"template file {path} field {key!r} has the bad value "
                              f"{meta[key]!r}") from None

    applies = meta.get("applies_to", list(SIDES))
    if isinstance(applies, str):
        applies = [applies]
    if not isinstance(applies, list):
        raise ConfigError(f"template file {path} field 'applies_to' must be a side or a "
                          f"list of sides, got {applies!r}")
    return PromptTemplate(
        template_id=str(meta["template_id"]),
        strategy=parsed("strategy", Strategy),
        task_family=parsed("task_family", TaskFamily),
        system_text=str(meta.get("system", "")).strip(),
        user_text=body.lstrip("\n"),
        max_output_tokens=parsed("max_output_tokens", int, 512),
        applies_to=tuple(applies),
    )


class TemplateCatalog:
    """Resolves (strategy, task family, side) to a single template."""

    def __init__(self, templates: list[PromptTemplate]):
        ids = [t.template_id for t in templates]
        dupes = {i for i in ids if ids.count(i) > 1}
        if dupes:
            raise ConfigError(f"duplicate template ids: {sorted(dupes)}")
        self.templates = list(templates)

    def resolve(self, strategy: Strategy, family: TaskFamily, side: str) -> PromptTemplate:
        if side not in SIDES:
            raise ConfigError(f"unknown template side {side!r}")
        matches = [t for t in self.templates
                   if t.strategy is strategy and t.task_family is family
                   and side in t.applies_to]
        specific = [t for t in matches if t.applies_to == (side,)]
        pool = specific or matches
        if not pool:
            raise ConfigError(
                f"no template for strategy={strategy.value} "
                f"task_family={family.value} side={side}")
        if len(pool) > 1:
            raise ConfigError(
                f"ambiguous templates for strategy={strategy.value} "
                f"task_family={family.value} side={side}: "
                f"{sorted(t.template_id for t in pool)}")
        return pool[0]


def load_catalog(directory: str | Path) -> TemplateCatalog:
    directory = Path(directory)
    if not directory.is_dir():
        raise ConfigError(f"template directory not found: {directory}")
    files = sorted(directory.glob("*.md"))
    if not files:
        raise ConfigError(f"no *.md template files in {directory}")
    return TemplateCatalog([parse_template_file(f) for f in files])


def builtin_catalog() -> TemplateCatalog:
    """The catalog shipped with the package."""
    return load_catalog(_DATA_DIR)


def identity_catalog() -> TemplateCatalog:
    """Pass-through templates for every (strategy, family, side).

    The user prompt is the bare input, so an echo endpoint reproduces the
    source text exactly; used for offline runs and no-op pipeline checks.
    """
    templates = []
    for strategy in (Strategy.REPHRASE, Strategy.PSEUDO, Strategy.NL):
        for family in TaskFamily:
            templates.append(PromptTemplate(
                template_id=f"identity-{strategy.value.lower()}-{family.value.lower()}",
                strategy=strategy,
                task_family=family,
                system_text="",
                user_text="{input}",
            ))
    return TemplateCatalog(templates)


def resolve_catalog(name_or_path: str) -> TemplateCatalog:
    """Map a config value to a catalog: ``builtin``, ``identity``, or a path."""
    if name_or_path == "builtin":
        return builtin_catalog()
    if name_or_path == "identity":
        return identity_catalog()
    return load_catalog(name_or_path)
