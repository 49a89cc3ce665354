"""One workload in one fresh interpreter; run.py starts it and reads its
last stdout line, a JSON report.

    python3 khbench/worker.py --mode run --workload les_cube --seed 1 --seconds 30 --trace 0

--mode setup only imports the package and builds the inputs, and reports
how long that took.  --mode run then measures passes over the workload's
operations for --seconds (each pass runs every operation once, in order;
a pass after the third starts only if it should end in time), reports
wall_s as the sum over operations of each one's median time, and checks
every result against pinned.json outside the timed region.  With
--trace 1 it makes one untraced and one traced pass instead, and adds the
per-layer metrics of the traced pass; the traced set-up before that pass
is reported apart from it.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
OUT = BENCH / "out"
MIN_PASSES = 3  # so that a per-operation median can drop one slow pass


def load(workload: str, seed: int, tiny: bool):
    """Import the package and build the inputs; returns (module, factory, seconds)."""
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import workloads

    factory = workloads.setup(workload, seed, tiny)
    return workloads, factory, time.perf_counter() - start


def run_pass(operations, tracer=None):
    """Run each (label, call) once; returns (seconds, [(label, value, exception, seconds)])."""
    results = []
    start = time.perf_counter()
    for label, call in operations:
        if tracer is not None:
            tracer.op = label
        t0 = time.perf_counter()
        try:
            value, exc = call(), None
        except Exception as e:  # every operation is accounted for, raised or not
            value, exc = None, e
        results.append((label, value, exc, time.perf_counter() - t0))
    return time.perf_counter() - start, results


class Tally:
    """Operations attempted and failed; a failure raised or differs from its pin."""

    def __init__(self, pins: dict, workloads):
        self.pins = pins
        self.workloads = workloads
        self.attempted = 0
        self.failed = 0
        self.raised: dict[str, str] = {}
        self.mismatched: dict[str, dict] = {}

    def check(self, results) -> None:
        for label, value, exc, _ in results:
            got = self.workloads.raised(exc) if exc is not None else self.workloads.outcome(value)
            bad = exc is not None
            if bad:
                self.raised[label] = got["raised"]
            if got != self.pins.get(label):
                self.mismatched[label] = got
                bad = True
            self.attempted += 1
            self.failed += bad


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--mode", choices=("setup", "run"), required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args(argv)

    workloads, factory, setup_s = load(args.workload, args.seed, args.tiny)
    report: dict = {"setup_s": setup_s}
    if args.mode == "setup":
        print(json.dumps(report))
        return 0

    with open(BENCH / "pinned.json") as fh:
        tally = Tally(json.load(fh)[args.workload], workloads)
    walls: list[float] = []
    op_seconds: dict[str, list[float]] = {}
    start = time.perf_counter()
    while True:
        wall, results = run_pass(factory())
        walls.append(wall)
        for label, _, _, seconds in results:
            op_seconds.setdefault(label, []).append(seconds)
        tally.check(results)
        if args.trace:
            break
        if len(walls) >= MIN_PASSES and time.perf_counter() - start + wall > args.seconds:
            break
    report["walls"] = walls
    # Load from other processes slows the host in bursts; a per-operation
    # median drops a burst that hits fewer than half of the passes, where a
    # per-pass median keeps any burst that spans a pass boundary.
    report["wall_s"] = sum(statistics.median(s) for s in op_seconds.values())
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
        try:
            tracer.op = "setup"
            factory = workloads.setup(args.workload, args.seed, args.tiny)
            tracer.end_setup()
            wall, results = run_pass(factory(), tracer)
        finally:
            tracer.uninstall()
        tally.check(results)
        layers = tracing.layer_metrics(tracer, wall, walls[0])
        report["layers"] = layers
        report["design"] = tracing.design_checks(args.workload, layers)
        OUT.mkdir(exist_ok=True)
        path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.dump(path, workload=args.workload, seed=args.seed)
        report["trace_file"] = str(path.relative_to(BENCH.parent))

    import numpy

    report.update(
        attempted=tally.attempted,
        failed=tally.failed,
        raised=tally.raised,
        mismatched=tally.mismatched,
        versions={
            "nproc": len(os.sched_getaffinity(0)),
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
        },
    )
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
