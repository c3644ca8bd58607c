"""Seeded synthetic inputs for the benchmark.

For one workload and seed this writes, under a directory of its own:

- per task a BEIR-style ``corpus.jsonl``, ``queries.jsonl`` and ``qrels.tsv``;
- ``templates/``, one prompt template per strategy, so that the rendered
  prompt of an item differs by strategy;
- ``rewrites.json``, a map from rendered prompt to rewritten text in the
  ``mock://table`` format, which the loopback stub serves too;
- ``config.yaml`` for the program.

The same (workload, seed) always gives byte-identical files. Nothing here
imports the program: the program receives only these files.
"""

from __future__ import annotations

import itertools
import json
import math
import random
import re
from dataclasses import dataclass
from pathlib import Path

TOKEN_RE = re.compile(r"[A-Za-z0-9_]+")
STRATEGIES = ("Rephrase", "Pseudo", "NL")
FAMILY = "TextToCode"
K = 10
STUB_DIM = 128  # vector size of the loopback stub's embeddings
STUB_DELAY_MS = 10  # the stub's delay per call
MOCK_DIM = 256

# (share of token types a strategy rewrites, types merged onto one alias):
# each strategy moves the text further from the source vocabulary, so QC and
# C deltas differ across strategies and no regime's deltas are constant.
STRATEGY_SHAPE = {"Rephrase": (0.3, 1), "Pseudo": (0.55, 2), "NL": (0.8, 4)}
TEMPLATE_LEAD = {"Rephrase": "Rephrase this snippet in your own words.",
                 "Pseudo": "Rewrite this snippet as commented pseudo-code.",
                 "NL": "Describe what this snippet does in plain English."}


@dataclass(frozen=True)
class Shape:
    """Sizes and endpoint kind of one workload."""

    tasks: int
    docs: int
    queries: int
    vocab: int
    parallelism: int
    stub: bool

    @property
    def cells(self) -> int:
        """Cells per task: the baseline plus three strategies x {QC, C}."""
        return 1 + 2 * len(STRATEGIES)

    @property
    def items(self) -> int:
        """Corpus plus query items over every cell of the matrix."""
        return self.tasks * self.cells * (self.docs + self.queries)


WORKLOADS = {
    "deep_warm": Shape(tasks=1, docs=2000, queries=200, vocab=3000,
                       parallelism=1, stub=False),
    "cold_endpoint": Shape(tasks=1, docs=100, queries=20, vocab=800,
                           parallelism=2, stub=True),
}

_ONSETS = "b c d f g h k l m n p r s t v w z br cl dr fl gr kr pl st tr".split()
_VOWELS = "a e i o u ai ea io".split()


def _words(rng: random.Random, n: int, taken: set[str]) -> list[str]:
    """*n* fresh pseudo-words, snake_case identifiers for about a third."""
    out: list[str] = []
    while len(out) < n:
        parts = ["".join(rng.choice(_ONSETS) + rng.choice(_VOWELS)
                         for _ in range(rng.randint(2, 3)))]
        if rng.random() < 0.35:
            parts.append("".join(rng.choice(_ONSETS) + rng.choice(_VOWELS)
                                 for _ in range(2)))
        word = "_".join(parts)
        if word not in taken:
            taken.add(word)
            out.append(word)
    return out


@dataclass
class Task:
    task_id: str
    docs: list[tuple[str, str]]
    queries: list[tuple[str, str]]
    qrels: list[tuple[str, str, int]]


def _make_task(rng: random.Random, task_id: str, shape: Shape,
               vocab: list[str]) -> Task:
    cum = list(itertools.accumulate(1.0 / (r + 1) for r in range(len(vocab))))
    doc_tokens: list[list[str]] = []
    docs = []
    for i in range(shape.docs):
        toks = rng.choices(vocab, cum_weights=cum, k=rng.randint(16, 40))
        doc_tokens.append(toks)
        body = " ".join(toks[3:-1])
        docs.append((f"{task_id}-d{i:05d}",
                     f"def {toks[0]}({toks[1]}, {toks[2]}):\n    {body}\n"
                     f"    return {toks[-1]}"))
    queries, qrels = [], []
    for i in range(shape.queries):
        qid = f"{task_id}-q{i:04d}"
        targets = [rng.randrange(shape.docs)]
        if rng.random() < 0.3:
            targets.append(rng.randrange(shape.docs))
        words = []
        for grade, d in zip((2, 1), dict.fromkeys(targets)):
            words += rng.sample(doc_tokens[d], 2 * grade)
            qrels.append((qid, docs[d][0], grade))
        words += rng.choices(vocab, cum_weights=cum, k=2)
        queries.append((qid, "find " + " ".join(words)))
    return Task(task_id=task_id, docs=docs, queries=queries, qrels=qrels)


def _alias_maps(seed: int, vocab: list[str],
                taken: set[str]) -> dict[str, dict[str, str]]:
    """Per strategy, the token types it rewrites and what it writes instead."""
    maps = {}
    for strategy in STRATEGIES:
        share, merge = STRATEGY_SHAPE[strategy]
        rng = random.Random(f"{seed}:{strategy}")
        pool = _words(rng, math.ceil(len(vocab) / merge), taken)
        maps[strategy] = {w: pool[i // merge] for i, w in enumerate(vocab)
                          if rng.random() < share}
    return maps


def _rewrite(text: str, alias: dict[str, str]) -> str:
    return TOKEN_RE.sub(lambda m: alias.get(m.group(0), m.group(0)), text)


def prompt(strategy: str, text: str) -> str:
    """The user prompt the program renders from this module's templates."""
    return f"{TEMPLATE_LEAD[strategy]}\n{text}\n"


def _write_jsonl(path: Path, rows: list[dict]) -> None:
    path.write_text("".join(json.dumps(r, sort_keys=True) + "\n" for r in rows),
                    encoding="utf-8")


@dataclass(frozen=True)
class Inputs:
    root: Path
    config: Path
    table: Path
    shape: Shape


def generate(root: Path, workload: str, seed: int) -> Inputs:
    """Write the collection, templates and rewrite table; the config comes
    from :func:`write_config` once the endpoint URLs are known."""
    shape = WORKLOADS[workload]
    root.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{workload}:{seed}")
    taken: set[str] = set()
    vocab = _words(rng, shape.vocab, taken)
    aliases = _alias_maps(seed, vocab, taken)
    table: dict[str, str] = {}
    for t in range(shape.tasks):
        task = _make_task(rng, f"t{t}", shape, vocab)
        tdir = root / task.task_id
        tdir.mkdir(exist_ok=True)
        _write_jsonl(tdir / "corpus.jsonl",
                     [{"_id": i, "text": x} for i, x in task.docs])
        _write_jsonl(tdir / "queries.jsonl",
                     [{"_id": i, "text": x} for i, x in task.queries])
        (tdir / "qrels.tsv").write_text(
            "".join(f"{q}\t{d}\t{g}\n" for q, d, g in task.qrels), encoding="utf-8")
        for strategy in STRATEGIES:
            for _, text in task.docs + task.queries:
                table[prompt(strategy, text)] = _rewrite(text, aliases[strategy])
    tpl = root / "templates"
    tpl.mkdir(exist_ok=True)
    for strategy in STRATEGIES:
        (tpl / f"{strategy.lower()}.md").write_text(
            f"---\ntemplate_id: bench-{strategy.lower()}\nstrategy: {strategy}\n"
            f"task_family: {FAMILY}\nmax_output_tokens: 256\n---\n"
            f"{TEMPLATE_LEAD[strategy]}\n{{input}}\n", encoding="utf-8")
    table_path = root / "rewrites.json"
    table_path.write_text(json.dumps(table, sort_keys=True, indent=0), encoding="utf-8")
    return Inputs(root=root, config=root / "config.yaml", table=table_path,
                  shape=shape)


def write_config(inputs: Inputs, seed: int, *, encoder_url: str,
                 rewriter_url: str) -> None:
    shape = inputs.shape
    tasks = "".join(
        f"  - {{task_id: t{t}, family: {FAMILY}, corpus: t{t}/corpus.jsonl, "
        f"queries: t{t}/queries.jsonl, qrels: t{t}/qrels.tsv}}\n"
        for t in range(shape.tasks))
    inputs.config.write_text(
        f"seed: {seed}\ncache_dir: cache\nout_dir: out\n"
        f"template_catalog: templates\neval: {{k: {K}, gain: linear}}\n"
        "endpoint: {embed_batch_size: 32, retries: 2, backoff_s: 0.05}\n"
        f"parallelism: {shape.parallelism}\ntasks:\n{tasks}"
        f"encoders:\n  - {{encoder_id: enc, url: \"{encoder_url}\", "
        "tokenizer: {kind: word}}\n"
        f"rewriters:\n  - {{rewriter_id: rw, url: \"{rewriter_url}\"}}\n"
        f"strategies: [{', '.join(STRATEGIES)}]\nregimes: [QC, C]\n",
        encoding="utf-8")
