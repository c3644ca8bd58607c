"""Offline matrix benchmark of rewritebench.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The workloads, metrics and bounds are
declared in ``BENCHMARK.json``; ``perfbench/README.md`` says why each was
chosen and which per-layer metric should move which end-to-end metric.

One run:

1. sets up the workload at least three times and for at least 3 s in all
   (seeded inputs from ``gen.py``; for the warm workloads a first
   ``run-matrix`` that fills the caches, for ``cold_endpoint`` the loopback
   stub) and reports the median as ``setup_s``;
2. starts ``worker.py``, which repeats ``run-matrix`` and ``report`` through
   ``rewritebench.cli.main`` for ``--seconds`` and checks the outputs;
3. prints every metric with its unit, then, as the last line, one JSON
   object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
   end-to-end metrics with ``--trace 0``, the per-layer ones with
   ``--trace 1``.

All files go to ``.bench_work/`` in the checkout and are removed at the end.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gen
import reference

HERE = Path(__file__).resolve().parent
SETUPS = 3  # set-ups per run: at least this many,
SETUP_MIN_S = 3.0  # and for at least this long in all
PREFILL_TIMEOUT_S = 60


def _stop(proc: subprocess.Popen) -> None:
    proc.terminate()
    try:
        proc.wait(timeout=5)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()


def _program_env() -> dict[str, str]:
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in ("src", os.environ.get("PYTHONPATH")) if p))


def set_up(root: Path, workload: str, seed: int,
           stubs: list[subprocess.Popen]) -> gen.Inputs:
    """Generate the inputs; fill the caches (warm) or start the stub (cold)."""
    inputs = gen.generate(root, workload, seed)
    if not inputs.shape.stub:
        gen.write_config(inputs, seed, encoder_url=f"mock://bow?dim={gen.MOCK_DIM}",
                         rewriter_url="mock://table?file=rewrites.json")
        subprocess.run([sys.executable, "-m", "rewritebench.cli",
                        "--config", str(inputs.config),
                        "--out-dir", str(root / "prefill"), "run-matrix"],
                       env=_program_env(), stdout=sys.stderr, check=True,
                       timeout=PREFILL_TIMEOUT_S)
        return inputs
    port_file = root / "stub.port"
    stubs.append(subprocess.Popen(
        [sys.executable, str(HERE / "stub.py"), "--table", str(inputs.table),
         "--port-file", str(port_file)], stdin=subprocess.PIPE, stdout=sys.stderr))
    deadline = time.monotonic() + 30
    while not port_file.exists():
        if stubs[-1].poll() is not None or time.monotonic() > deadline:
            raise RuntimeError("loopback stub did not start")
        time.sleep(0.002)
    base = f"http://127.0.0.1:{port_file.read_text(encoding='utf-8')}/v1"
    gen.write_config(inputs, seed, encoder_url=f"{base}/embeddings",
                     rewriter_url=f"{base}/chat/completions")
    return inputs


def measure(args, work: Path) -> tuple[gen.Inputs, list[float], dict]:
    procs: list[subprocess.Popen] = []  # the current stub, then the worker
    try:
        setup_s: list[float] = []  # scaled, see reference.py
        raw_s = 0.0
        while len(setup_s) < SETUPS or raw_s < SETUP_MIN_S:
            for proc in procs:
                _stop(proc)
            procs.clear()
            shutil.rmtree(work / f"setup{len(setup_s) - 1}", ignore_errors=True)
            t0 = time.perf_counter()
            inputs = set_up(work / f"setup{len(setup_s)}", args.workload, args.seed,
                            procs)
            took = time.perf_counter() - t0
            raw_s += took
            setup_s.append(took * reference.REF_S / reference.seconds())
        result = work / "result.json"
        worker = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), "--config", str(inputs.config),
             "--work", str(inputs.root), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--seed", str(args.seed),
             "--result", str(result)] + (["--cold"] if inputs.shape.stub else []),
            stdout=sys.stderr)
        procs.append(worker)
        # The loop ends after --seconds; the output checks take a few seconds more.
        rc = worker.wait(timeout=2 * args.seconds + 60)
        if rc != 0:
            raise RuntimeError(f"worker exited with {rc}")
        return inputs, setup_s, json.loads(result.read_text(encoding="utf-8"))
    finally:
        for proc in procs:
            _stop(proc)


def _speed(it: dict) -> float:
    """Factor that scales an iteration's times to the reference speed."""
    return reference.REF_S / it["ref_s"]


def summarize(args, inputs: gen.Inputs, setup_s: list[float],
              res: dict) -> tuple[dict, dict]:
    """(figures for every metric, counts for the result line)."""
    iters = res["iterations"]
    untraced = [it for it in iters if not it["traced"]]
    traced = [it for it in iters if it["traced"]]

    def matrix_times(its):
        # run-matrix on the stub mostly waits, and the stub's delay does not
        # follow the host's speed, so only CPU-bound runs are scaled.
        return [it["matrix_s"] * (1.0 if inputs.shape.stub else _speed(it))
                for it in its]

    matrix_s = statistics.median(matrix_times(untraced))
    attempted = sum(it["cells"] + it["rewrites"] for it in iters)
    failed = sum(it["failed_cells"] + it["fallbacks"] for it in iters)
    figures = {
        "matrix_s": matrix_s,
        "report_s": statistics.median(
            t * _speed(it) for it in untraced for t in it["report_s"]),
        "items_per_s": inputs.shape.items / matrix_s,
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": res["peak_rss_mb"],
        "endpoint_calls": statistics.median(it["endpoint_calls"] for it in untraced),
        "fail_ratio": failed / attempted,
        "outputs_ok": int(all(res["checks"].values())),
    }
    if traced:
        for name in traced[0]["layers"]:
            figures[name] = statistics.median(it["layers"][name] for it in traced)
        figures["trace.overhead_s"] = statistics.median(matrix_times(traced)) - matrix_s
    counts = {"correct": bool(figures["outputs_ok"]), "attempted": attempted,
              "failed": failed}
    return figures, counts


def report(args, decl: dict, setup_s: list[float], res: dict, figures: dict,
           counts: dict) -> None:
    iters = res["iterations"]
    print(f"workload {args.workload}, seed {args.seed}: {len(iters)} iterations of "
          f"run-matrix + report ({sum(it['traced'] for it in iters)} traced), "
          f"{len(setup_s)} set-ups")
    untraced = [it for it in iters if not it["traced"]]
    print("  unscaled matrix_s per iteration: " + " ".join(
        f"{it['matrix_s']:.4g}" for it in untraced))
    print("  reference work per iteration: " + " ".join(
        f"{it['ref_s']:.4g}" for it in untraced))
    print("  unscaled report_s per report: " + " ".join(
        f"{t:.4g}" for it in untraced for t in it["report_s"]))
    for name, ok in res["checks"].items():
        print(f"  check  {'ok  ' if ok else 'FAIL'}  {name}")
    extra = [{"name": "endpoint_calls", "unit": "count"},
             {"name": "fail_ratio", "unit": "ratio",
              "note": f"{counts['failed']} of {counts['attempted']} cells + rewrites"},
             {"name": "outputs_ok", "unit": "0/1"}]
    for m in decl["end_to_end"] + extra + (decl["per_layer"] if args.trace else []):
        if m["name"] in figures:
            note = f"  ({m['note']})" if "note" in m else ""
            print(f"  {m['name']:<26} {figures[m['name']]:>14.6g} {m['unit']}{note}")


def _terminated(signum, frame):
    raise SystemExit(128 + signum)  # unwinds through the cleanup in finally blocks


def main() -> int:
    signal.signal(signal.SIGTERM, _terminated)
    parser = argparse.ArgumentParser(description="rewritebench offline matrix benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    root = Path.cwd()
    if not (root / "src" / "rewritebench" / "cli.py").is_file():
        print("run from the root of a rewritebench checkout: src/rewritebench "
              "is missing", file=sys.stderr)
        return 2
    decl = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))

    work = root / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        inputs, setup_s, res = measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    figures, counts = summarize(args, inputs, setup_s, res)
    report(args, decl, setup_s, res, figures, counts)
    listed = decl["per_layer"] if args.trace else decl["end_to_end"]
    print(json.dumps({**counts, "metrics": {
        m["name"]: {"value": figures[m["name"]], "unit": m["unit"]} for m in listed}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
