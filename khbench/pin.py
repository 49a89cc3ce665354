"""Write pinned.json: every operation's outcome from the program as it stands.

    python3 khbench/pin.py

Covers the fixed cases of all three workloads and every word of the
seeded scan pool, so any seed's inputs have pinned results.  Homology
tables must stay bit-identical across refactors, so rerun this only
when a change of result is intended, and say so.
"""

from __future__ import annotations

import json
import sys
import time

from worker import BENCH, SRC, run_pass

sys.path.insert(0, str(SRC))
import workloads  # noqa: E402


def main() -> int:
    factories = {
        "scan_cable": workloads.scan_cable_cases(range(workloads.POOL_SIZE)),
        "les_cube": workloads.les_cube_cases(),
        "ladder_audit": workloads.ladder_audit_cases(),
    }
    pins = {}
    for name, factory in factories.items():
        pins[name] = {}
        for label, call in factory():
            start = time.perf_counter()
            _, [(_, value, exc, _)] = run_pass([(label, call)])
            pins[name][label] = workloads.raised(exc) if exc else workloads.outcome(value)
            print(f"{name}: {label}: {time.perf_counter() - start:.3f} s", file=sys.stderr)
    with open(BENCH / "pinned.json", "w") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
