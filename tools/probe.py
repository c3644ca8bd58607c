"""Corpus-scale probe: one task of 20,000 docs and 1,000 queries, 7 cells.

    python3 tools/probe.py DIR [--seed N] [--warm N]

Run from anywhere; it runs the program of the checkout it lives in. It
writes the probe's inputs into DIR with ``perfbench/gen.py`` (the ``big``
shape, the benchmark's ``mock://bow`` encoder and ``mock://table``
rewriter), makes every path of the config absolute, then runs one cold
``run-matrix`` on empty caches and ``--warm`` warm ones, each as its own
process, all into ``DIR/out``. For each run it prints the wall time and
that process's peak RSS. It reads ``perfbench/`` and writes only under
DIR, which must be empty or missing.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import time
from pathlib import Path

import yaml

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
import gen  # noqa: E402

BIG = gen.Shape(tasks=1, docs=20000, queries=1000, vocab=3000, parallelism=1, stub=False)


def write_inputs(root: Path, seed: int) -> Path:
    """The probe's inputs under *root*; returns its config, whose paths are
    all absolute."""
    gen.WORKLOADS.setdefault("big", BIG)
    inputs = gen.generate(root, "big", seed)
    gen.write_config(inputs, seed, encoder_url=f"mock://bow?dim={gen.MOCK_DIM}",
                     rewriter_url=f"mock://table?file={inputs.table}")
    cfg = yaml.safe_load(inputs.config.read_text(encoding="utf-8"))
    for key in ("cache_dir", "out_dir", "template_catalog"):
        cfg[key] = str(root / cfg[key])
    for task in cfg["tasks"]:
        for key in ("corpus", "queries", "qrels"):
            task[key] = str(root / task[key])
    inputs.config.write_text(yaml.safe_dump(cfg, sort_keys=True), encoding="utf-8")
    return inputs.config


def run(config: Path) -> tuple[float, float]:
    """(wall seconds, peak RSS in MiB) of one ``run-matrix`` process."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p))
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "rewritebench.cli", "--config", str(config),
                             "run-matrix"], env=env, stdout=subprocess.DEVNULL)
    # wait4, not proc.wait(): it gives this child's own rusage
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped: Popen must not wait again
    if proc.returncode != 0:
        raise SystemExit(f"run-matrix exited with {proc.returncode}")
    return wall, usage.ru_maxrss / 1024  # ru_maxrss is in KiB on Linux


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("dir", type=Path, help="empty or missing directory for the probe")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--warm", type=int, default=3, help="warm runs after the cold one")
    args = parser.parse_args(argv)
    root = args.dir.resolve()
    if root.exists() and (not root.is_dir() or any(root.iterdir())):
        parser.error(f"{root} is not an empty directory")
    config = write_inputs(root, args.seed)
    for i in range(1 + args.warm):
        wall, rss = run(config)
        print(f"{'cold' if i == 0 else f'warm {i}'}: {wall:.2f} s, peak RSS {rss:.1f} MiB",
              flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
