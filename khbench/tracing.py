"""Traced mode: spans around the package's callables, wrapped from outside.

`install` replaces each traced function or method by a wrapper, in every
`khovanov_cables` module that holds it, and `uninstall` puts the
originals back.  A wrapper records a span (name, start, end, parent span,
operation label) in memory.  Callables with tens of thousands of calls
per pass (`compose`, `mor_cap`, `row_reduce`, `solve`) only add to exact
counts and times, with no span each.  Every wrapped call, spanned or not,
takes its duration out of its caller's self time.  Counting that reads
a call's result (the scan sizes after each `attach`) runs after the
call's span has closed and is timed apart: it is left out of every self
time and of the pass time that layer shares are taken of.  Calls made
while the workload sets up are tallied apart from the pass.
"""

from __future__ import annotations

import functools
import json
import sys
from time import perf_counter

LAYERS = ("scanning", "chain_algebra", "cube", "cobordism", "lee", "induction", "cabling", "braids")


class Tracer:
    def __init__(self):
        self.op = None  # label of the operation running now
        self.spans: list[tuple] = []  # (id, name, start, end, parent id, op)
        self.stats: dict[str, list] = {}  # name -> [calls, self s, max s]
        self.counts: dict[str, float] = {}
        self.setup_stats: dict[str, list] = {}  # the same, for calls made while setting up
        self.hidden = 0.0  # seconds spent counting, outside every span
        self._stack: list[list] = []  # open calls: [child seconds, span id]
        self._next_id = 0
        self._undo: list[tuple] = []

    def wrap(self, name: str, fn, span: bool = True, after=None):
        """fn timed under `name`; after(result, *args) then counts, untimed."""
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1][1] if stack else None
            sid = parent
            if span:
                sid = self._next_id
                self._next_id += 1
            frame = [0.0, sid]
            stack.append(frame)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][0] += duration
                stats[0] += 1
                stats[1] += duration - frame[0]
                stats[2] = max(stats[2], duration)
                if span:
                    self.spans.append((sid, name, start, end, parent, self.op))
            if after is not None:
                t0 = perf_counter()
                after(out, *args)
                hidden = perf_counter() - t0
                self.hidden += hidden
                if stack:
                    stack[-1][0] += hidden
            return out

        return traced

    def add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def peak(self, key: str, value: float) -> None:
        self.counts[key] = max(self.counts.get(key, 0), value)

    def patch_function(self, module, attr: str, name: str, span: bool = True, body=None) -> None:
        """Wrap module.attr everywhere in the package that imported it."""
        orig = getattr(module, attr)
        new = self.wrap(name, body or orig, span)
        for mod in [m for n, m in sys.modules.items() if n.startswith("khovanov_cables")]:
            for key in [k for k, v in vars(mod).items() if v is orig]:
                setattr(mod, key, new)
                self._undo.append((mod, key, orig))

    def patch_method(self, cls, attr: str, name: str, body=None, after=None) -> None:
        orig = cls.__dict__[attr]
        setattr(cls, attr, self.wrap(name, body or orig, after=after))
        self._undo.append((cls, attr, orig))

    def end_setup(self) -> None:
        """Move what was tallied so far to setup_stats; the pass starts from zero."""
        self.setup_stats = {name: list(s) for name, s in self.stats.items()}
        for s in self.stats.values():
            s[:] = [0, 0.0, 0.0]
        self.counts.clear()
        self.hidden = 0.0

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._undo):
            setattr(owner, key, orig)
        self._undo.clear()

    def dump(self, path, **meta) -> None:
        keys = ("id", "name", "start", "end", "parent", "op")
        doc = dict(meta)
        doc["spans"] = [dict(zip(keys, s)) for s in self.spans]
        doc["aggregates"] = {
            name: {"calls": c, "self_s": s, "max_s": m} for name, (c, s, m) in self.stats.items()
        }
        doc["counts"] = self.counts
        with open(path, "w") as fh:
            json.dump(doc, fh)


def install(tracer: Tracer) -> None:
    """Wrap every callable the per-layer metrics name."""
    from khovanov_cables import braids, cabling, chain_algebra, cobordism, cube, induction, lee, scanning

    t = tracer
    pf, pm = t.patch_function, t.patch_method

    scan_complex = scanning.scan_complex

    def scan_complex_counted(*args, **kwargs):
        res = scan_complex(*args, **kwargs)
        t.add("scanning.final_gens", res.complex.dim)
        t.peak("scanning.girth", res.girth)
        return res

    def attach_sizes(_, sc, *args):
        entries = [m for row in sc.d.values() for m in row.values()]
        t.peak("scanning.peak_gens", len(sc.gens))
        t.peak("scanning.peak_entries", len(entries))
        t.peak("scanning.peak_terms", sum(map(len, entries)))

    pf(scanning, "scan_complex", "scanning.scan_complex", body=scan_complex_counted)
    pf(scanning, "scan_order", "scanning.scan_order")
    pm(scanning._Scan, "attach", "scanning.attach", after=attach_sizes)
    pm(scanning._Scan, "finish", "scanning.finish")
    pf(scanning, "compose", "scanning.compose", span=False)
    pf(scanning, "mor_cap", "scanning.mor_cap", span=False)

    row_reduce = chain_algebra.row_reduce

    def row_reduce_counted(A, p):
        t.add("chain_algebra.row_reduce_cells", A.shape[0] * A.shape[1])
        return row_reduce(A, p)

    simplify = chain_algebra.ScalarComplex.simplify

    def simplify_counted(cx, *args, **kwargs):
        t.add("chain_algebra.simplify_dims_before", cx.dim)
        out = simplify(cx, *args, **kwargs)
        t.add("chain_algebra.simplify_dims_after", cx.dim)
        return out

    pm(chain_algebra.HomologySpace, "__init__", "chain_algebra.homology_space")
    pf(chain_algebra, "induced_matrix", "chain_algebra.induced_matrix")
    pf(chain_algebra, "row_reduce", "chain_algebra.row_reduce", span=False, body=row_reduce_counted)
    pf(chain_algebra, "solve", "chain_algebra.solve", span=False)
    pm(chain_algebra.ScalarComplex, "simplify", "chain_algebra.simplify", body=simplify_counted)
    pm(chain_algebra.ScalarComplex, "homology_dims", "chain_algebra.homology_dims")
    pm(chain_algebra.ScalarComplex, "filtration_level", "chain_algebra.filtration_level")

    cube_init = cube.CubeComplex.__init__

    def cube_init_counted(self, *args, **kwargs):
        cube_init(self, *args, **kwargs)
        t.add("cube.gens", self.cx.dim)

    pm(cube.CubeComplex, "__init__", "cube.build", body=cube_init_counted)

    les_report = cobordism.les_report

    def les_report_counted(cone):
        rep = les_report(cone)
        t.add("cobordism.les_checks", rep.checks)
        return rep

    pf(cobordism, "les_report", "cobordism.les_report", body=les_report_counted)
    pf(cobordism, "cone_over_crossing", "cobordism.cone_over_crossing")

    pf(lee, "s_invariant", "lee.s_invariant")
    pf(lee, "lee_homology_dims", "lee.lee_homology_dims")

    audit_entry = induction.audit_entry

    def audit_entry_counted(*args, **kwargs):
        try:
            rec = audit_entry(*args, **kwargs)
        except Exception:
            t.add("induction.entries_raised", 1)
            raise
        t.add(f"induction.entries_{rec.status}", 1)
        return rec

    pf(induction, "audit_entry", "induction.audit_entry", body=audit_entry_counted)
    for fn in ("triangle_facts", "linking_checks", "orientation_census", "inclusion_report", "slice_drop_report"):
        pf(induction, fn, f"induction.{fn}")

    pf(cabling, "cable_family_diagram", "cabling.cable_family_diagram")
    pf(braids, "braid_closure", "braids.braid_closure")


# Reported as <name>_s (summed self time), <name>_calls, and counters as is.
SELF_TIMES = (
    "scanning.scan_complex", "scanning.attach", "scanning.compose", "scanning.mor_cap",
    "scanning.scan_order", "scanning.finish",
    "chain_algebra.homology_space", "chain_algebra.induced_matrix", "chain_algebra.row_reduce",
    "chain_algebra.simplify", "chain_algebra.homology_dims", "chain_algebra.filtration_level",
    "cube.build", "cobordism.les_report", "cobordism.cone_over_crossing",
    "lee.s_invariant", "lee.lee_homology_dims",
    "induction.audit_entry", "induction.triangle_facts", "induction.linking_checks",
    "induction.orientation_census", "induction.inclusion_report", "induction.slice_drop_report",
    "cabling.cable_family_diagram", "braids.braid_closure",
)
CALL_COUNTS = (
    "scanning.scan_complex", "scanning.attach", "scanning.compose", "scanning.mor_cap",
    "chain_algebra.homology_space", "chain_algebra.row_reduce", "chain_algebra.solve",
    "chain_algebra.simplify",
)
# Called while scan_cable sets up, and reported apart as <name>_setup_s.
SETUP_SELF_TIMES = ("cabling.cable_family_diagram", "braids.braid_closure")
COUNTERS = (
    "scanning.peak_gens", "scanning.peak_entries", "scanning.peak_terms", "scanning.girth",
    "scanning.final_gens", "chain_algebra.row_reduce_cells", "cube.gens", "cobordism.les_checks",
    "induction.entries_scanned", "induction.entries_skipped", "induction.entries_duplicate",
    "induction.entries_raised",
)


def layer_metrics(tracer: Tracer, traced_wall: float, untraced_wall: float) -> dict:
    """Per-layer metrics of one traced pass, as {name: (value, unit)}."""
    stats, counts = tracer.stats, tracer.counts
    out: dict = {}
    for name in SELF_TIMES:
        out[f"{name}_s"] = (stats[name][1], "s")
    for name in CALL_COUNTS:
        out[f"{name}_calls"] = (stats[name][0], "count")
    out["scanning.attach_max_s"] = (stats["scanning.attach"][2], "s")
    for name in SETUP_SELF_TIMES:
        out[f"{name}_setup_s"] = (tracer.setup_stats[name][1], "s")
    for name in COUNTERS:
        out[name] = (counts.get(name, 0), "count")
    before = counts.get("chain_algebra.simplify_dims_before", 0)
    after = counts.get("chain_algebra.simplify_dims_after", 0)
    out["chain_algebra.simplify_kept_ratio"] = (after / before if before else 0.0, "ratio")
    timed = traced_wall - tracer.hidden
    for layer in LAYERS:
        own = sum(s for name, (_, s, _) in stats.items() if name.split(".")[0] == layer)
        out[f"{layer}.share"] = (own / timed, "ratio")
    out["trace.wall_s"] = (traced_wall, "s")
    out["trace.untraced_wall_s"] = (untraced_wall, "s")
    out["trace.overhead"] = (traced_wall / untraced_wall, "ratio")
    return out


def design_checks(workload: str, m: dict) -> list[tuple[str, bool]]:
    """The workload design's predictions, checked against a traced pass."""
    v = {k: val for k, (val, _) in m.items()}
    wall = v["trace.untraced_wall_s"]
    if workload == "les_cube":
        calls = [k for k in v if k.startswith("scanning.") and k.endswith("_calls")]
        return [
            ("scanning.*_calls are all 0", all(v[k] == 0 for k in calls)),
            ("scanning share is about 0 (< 1%)", v["scanning.share"] < 0.01),
        ]
    if workload == "scan_cable":
        largest = max(SELF_TIMES, key=lambda n: v[f"{n}_s"])
        return [
            ("chain_algebra.row_reduce_s < 5% of wall_s", v["chain_algebra.row_reduce_s"] < 0.05 * wall),
            ("chain_algebra share < 5%", v["chain_algebra.share"] < 0.05),
            ("scanning.attach_s is the largest self time", largest == "scanning.attach"),
        ]
    return [("scanning share is the largest", max(LAYERS, key=lambda l: v[f"{l}.share"]) == "scanning")]
