"""The benchmark's pinned results, checked in-process.

Every `les_cube` and `ladder_audit` operation, and the `scan_cable`
figure-eight case, must give the outcome `khbench/pinned.json` holds, as
the benchmark's own `Tally` judges it, so a changed table fails here too.
Reads `khbench/` and writes nothing there.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

KHBENCH = Path(__file__).resolve().parents[1] / "khbench"
PINS = json.loads((KHBENCH / "pinned.json").read_text())
FIG8 = "2-cable of the figure-eight"


def load(name):
    spec = importlib.util.spec_from_file_location(f"khbench_{name}", KHBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


WORKLOADS, WORKER = load("workloads"), load("worker")


@pytest.mark.parametrize("workload, count", [("les_cube", 3), ("ladder_audit", 107), ("scan_cable", 1)])
def test_operations_match_their_pins(workload, count):
    operations = WORKLOADS.setup(workload, seed=0)()
    if workload == "scan_cable":
        operations = [op for op in operations if op[0] == FIG8]
    _, results = WORKER.run_pass(operations)  # in order: ladder entries share tables
    tally = WORKER.Tally(PINS[workload], WORKLOADS)
    tally.check(results)
    assert tally.attempted == count
    assert not tally.mismatched, tally.mismatched
