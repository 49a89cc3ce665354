"""Benchmark entry point: runs one workload in fresh single-threaded
interpreters and prints its metrics.

    python3 khbench/run.py --workload scan_cable --seed 1 --seconds 30 --trace 0

Workloads: scan_cable, les_cube, ladder_audit, or `all` for the three in
turn.  The output ends with one JSON line holding the keys correct,
attempted, failed and metrics.  With --trace 0 the metrics are wall_s
(seconds of one pass over the workload's operations: the sum of each
operation's median over the run's passes, at least three), setup_s (median seconds to
import the package and build the inputs, over several fresh
interpreters) and peak_rss_mb; with --trace 1 they are the per-layer
metrics of one traced pass.  `correct` is false when any
result differs from pinned.json; `failed` counts operations that raised
or differed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("scan_cable", "les_cube", "ladder_audit")
SETUP_PROBES = 8  # interpreters that only set up, besides the measuring one
TIME_LIMIT = 175.0  # seconds for one workload, set-up probes included
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def child(args, mode: str, workload: str, deadline: float) -> dict:
    """Run worker.py in a fresh interpreter and return its JSON report."""
    cmd = [
        sys.executable, str(BENCH / "worker.py"), "--mode", mode,
        "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ] + (["--tiny"] if args.tiny else [])
    env = dict(os.environ, **{v: "1" for v in THREAD_VARS})
    env.pop("PYTHONOPTIMIZE", None)  # the package's asserts are part of the checks
    proc = subprocess.run(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    out = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not out:
        raise RuntimeError(f"{workload} {mode} exited with code {proc.returncode}")
    return json.loads(out[-1])


def measure(args, workload: str) -> tuple[dict, list[str]]:
    """One workload's result object and the summary lines describing it."""
    deadline = time.monotonic() + TIME_LIMIT
    setups = [child(args, "setup", workload, deadline)["setup_s"] for _ in range(SETUP_PROBES)]
    rep = child(args, "run", workload, deadline)
    setups.append(rep["setup_s"])
    v = rep["versions"]
    walls = rep["walls"]
    lines = [
        f"# workload={workload} seed={args.seed} seconds={args.seconds} trace={args.trace}"
        f" nproc={v['nproc']} python={v['python']} numpy={v['numpy']}",
        f"# {len(walls)} untraced passes, seconds each: " + " ".join(f"{w:.3f}" for w in walls),
    ]
    if args.trace:
        metrics = {k: {"value": val, "unit": unit} for k, (val, unit) in rep["layers"].items()}
        lines += [f"{k:40s} {m['value']:.6g} {m['unit']}" for k, m in metrics.items()]
        lines += [f"design: {text}: {'holds' if ok else 'DOES NOT HOLD'}" for text, ok in rep["design"]]
        lines.append(f"# spans written to {rep['trace_file']}")
    else:
        metrics = {
            "wall_s": {"value": rep["wall_s"], "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": rep["peak_rss_mb"], "unit": "MB"},
        }
        lines += [
            f"{'wall_s':12s} {metrics['wall_s']['value']:.6g} s (sum of per-operation medians over {len(walls)} passes)",
            f"{'setup_s':12s} {metrics['setup_s']['value']:.6g} s (median of {len(setups)} set-ups)",
            f"{'peak_rss_mb':12s} {metrics['peak_rss_mb']['value']:.6g} MB",
        ]
    ratio = rep["failed"] / rep["attempted"]
    lines.append(f"{'fail_ratio':12s} {ratio:.6g} ratio ({rep['failed']} failed of {rep['attempted']} attempted)")
    lines += [f"raised: {label}: {msg}" for label, msg in rep["raised"].items()]
    lines += [f"MISMATCH against pinned.json: {label}" for label in rep["mismatched"]]
    result = {
        "correct": not rep["mismatched"],
        "attempted": rep["attempted"],
        "failed": rep["failed"],
        "metrics": metrics,
    }
    return result, lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="first few operations only (self-test size)")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "khovanov_cables").is_dir():
        print(f"khbench: no package source under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        try:
            result, lines = measure(args, name)
        except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
            print(f"khbench: {name}: {exc}", file=sys.stderr)
            return 1
        print("\n".join(lines))
        results[name] = result
        if len(names) > 1:
            print(json.dumps({name: result}))
    if len(names) > 1:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": m for n, r in results.items() for k, m in r["metrics"].items()},
        }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
