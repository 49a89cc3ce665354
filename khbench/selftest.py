"""Self-test of the benchmark at its tiny size.

    python3 khbench/selftest.py

Checks that
  * the untraced and the traced run of every workload print each metric
    BENCHMARK.json names, with its unit, and match every pinned result;
  * an altered pinned table is reported as a failure;
  * run.py exits non-zero, printing no result, when the package source
    is not beside it.
Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
FIG8 = "2-cable of the figure-eight"


def run(*extra, cwd=ROOT):
    cmd = [sys.executable, "khbench/run.py", "--seed", "0", "--seconds", "1", "--tiny", *extra]
    return subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE, text=True, timeout=170)


def copy_bench(tree: Path) -> Path:
    """A tree holding only BENCHMARK.json and a copy of the benchmark."""
    shutil.copytree(BENCH, tree / BENCH.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tree)
    return tree


def result_of(proc) -> dict | None:
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures: list[str] = []

    def expect(cond: bool, what: str) -> None:
        print(("ok   " if cond else "FAIL ") + what)
        if not cond:
            failures.append(what)

    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[key]}
        for w in spec["workloads"]:
            proc = run("--workload", w["name"], "--trace", str(trace))
            res = result_of(proc)
            expect(proc.returncode == 0 and res is not None, f"{w['name']} trace={trace} prints a result")
            if res is None:
                continue
            got = {k: m["unit"] for k, m in res["metrics"].items()}
            expect(got == want, f"{w['name']} trace={trace} prints every {key} metric with its unit")
            expect(res["correct"] and res["failed"] == 0, f"{w['name']} trace={trace} matches its pins")

    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        altered = copy_bench(Path(tmp) / "altered")
        (altered / "src").symlink_to(ROOT / "src", target_is_directory=True)
        pins = json.loads((BENCH / "pinned.json").read_text())
        pins["scan_cable"][FIG8]["value"]["table"][0][-1] += 1
        (altered / BENCH.name / "pinned.json").write_text(json.dumps(pins))
        proc = run("--workload", "scan_cable", cwd=altered)
        res = result_of(proc)
        expect(
            res is not None and not res["correct"] and res["failed"] == res["attempted"] and FIG8 in proc.stdout,
            "an altered pinned table is reported as a failure",
        )

        bare = copy_bench(Path(tmp) / "bare")
        proc = run("--workload", "scan_cable", cwd=bare)
        expect(proc.returncode != 0 and result_of(proc) is None, "without the source, exits non-zero with no result")

    print(f"{len(failures)} check(s) failed" if failures else "all checks hold")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
