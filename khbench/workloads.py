"""The benchmark's three workloads: their inputs, operations and outcomes.

Each workload is a fixed list of operations run one at a time, in order
(a closed loop with a single caller).  `setup` builds the inputs once;
the factory it returns makes a fresh operation list for every pass, so
state that operations share, such as the ladder's `tables` dict, starts
empty each time.

Calls go through the package's modules (`scanning.scan_complex`, not a
name imported here) so that the traced mode, which replaces those module
attributes, sees every call.
"""

from __future__ import annotations

import json
from dataclasses import asdict, is_dataclass
from functools import partial
from random import Random

from khovanov_cables import braids, cobordism, frobenius, induction, scanning
from khovanov_cables.invariants import graded_euler

# Operations kept by the tiny self-test size: the cheapest leading ones.
TINY = {"scan_cable": 1, "les_cube": 1, "ladder_audit": 10}

# Seeded scan cases are 2-cables of words drawn from a pool of
# random_braid words, so every one of them has a pinned table.  Small
# 3-strand words keep the seeded share of the pass near 1%, so the seed
# barely moves wall_s.
POOL_SIZE = 64
POOL_STRANDS = 3
POOL_LENGTH = 3
SEEDED_CASES = 4

# Bar-Natan's elimination cost shows at 16-28 crossings and open width 8,
# while the final complexes stay at 70 generators or fewer.
SCAN_CASES = (
    ("2-cable of the figure-eight", braids.BraidWord(3, (1, -2, 1, -2)), 2),
    ("2-cable of T(2,-5)", braids.BraidWord(2, (-1,) * 5), 2),
    ("T(4,9)", braids.BraidWord(4, (1, 2, 3) * 9), 1),
    ("2-cable of T(2,-7)", braids.BraidWord(2, (-1,) * 7), 2),
)

# Cube-sized cones: the q-exact cases split into many small per-q blocks,
# the Lee case is one large filtered block.
TWO_COMPONENT = braids.BraidWord(3, (1, 2) * 3 + (1,))
LES_CASES = (
    ("Khovanov mod 3, closure of (s1 s2)^3 s1", TWO_COMPONENT, frobenius.khovanov(3)),
    ("Khovanov mod 3, closure of (s1 s2^-1)^4", braids.BraidWord(3, (1, -2) * 4), frobenius.khovanov(3)),
    ("Lee mod 3, closure of (s1 s2)^3 s1", TWO_COMPONENT, frobenius.lee_deformation(3)),
)

# (name, companion word, top level, crossing budget).  The trefoil's
# budget skips 25 of its 40 entries, whose word, census, triangle and
# linking arithmetic still runs.
UNKNOT = braids.BraidWord(1, ())
FAMILIES = (
    ("unknot", UNKNOT, 2, 60),
    ("writhe -2 unknot", braids.BraidWord(3, (-1, -2)), 1, 60),
    ("mirror trefoil", braids.BraidWord(2, (-1, -1, -1)), 1, 26),
)
LEE_SCAN_LIMIT = 12  # audit_family's default


def pool_word(k: int) -> braids.BraidWord:
    return braids.random_braid(Random(k), POOL_STRANDS, POOL_LENGTH)


def seeded_pool_indices(seed: int) -> list[int]:
    return sorted(Random(seed).sample(range(POOL_SIZE), SEEDED_CASES))


def _scan(D, theory):
    return scanning.scan_complex(D, theory).complex.homology_dims()


def scan_cable_cases(pool_indices):
    """Operation factory for the fixed scan cases plus the given pool words."""
    words = [(label, braids.cable_word(w, width)) for label, w, width in SCAN_CASES]
    for k in pool_indices:
        w = pool_word(k)
        words.append((f"2-cable of pool word {k} ({w.to_text()})", braids.cable_word(w, 2)))
    diagrams = [(label, braids.braid_closure(w)) for label, w in words]
    theory = frobenius.khovanov(3)
    return lambda: [(label, partial(_scan, D, theory)) for label, D in diagrams]


def _les(D, theory):
    return cobordism.les_report(cobordism.cone_from_cube(D, theory, max(D.crossings)))


def les_cube_cases():
    diagrams = [(label, braids.braid_closure(w), th) for label, w, th in LES_CASES]
    return lambda: [(label, partial(_les, D, th)) for label, D, th in diagrams]


def ladder_audit_cases():
    def operations():
        ops = []
        for name, base, level, budget in FAMILIES:
            tables: dict = {}
            for e in induction.ladder(base.writhe, level):
                ops.append((
                    f"{name}: {e.label()}",
                    partial(induction.audit_entry, base, e, base.writhe, budget, LEE_SCAN_LIMIT, tables),
                ))
        ops.append(("unknot: slice drop, level 2", partial(induction.slice_drop_report, UNKNOT, "unknot", 2)))
        ops.append(("unknot: inclusion into level 2", partial(induction.inclusion_report, UNKNOT, 2)))
        return ops

    return operations


def setup(workload: str, seed: int, tiny: bool = False):
    """Build a workload's inputs; returns a factory of fresh operation lists."""
    if workload == "scan_cable":
        factory = scan_cable_cases(seeded_pool_indices(seed))
    elif workload == "les_cube":
        factory = les_cube_cases()
    elif workload == "ladder_audit":
        factory = ladder_audit_cases()
    else:
        raise ValueError(f"unknown workload {workload!r}")
    if tiny:
        return lambda: factory()[: TINY[workload]]
    return factory


def outcome(value) -> dict:
    """JSON form of an operation's result, as stored in pinned.json.

    A homology table keeps its ranks and graded Euler characteristic; a
    report or record keeps every field except its timing, plus `ok`.
    """
    if isinstance(value, dict):
        table = sorted([*key, dim] for key, dim in value.items())
        euler = sorted([e, c] for e, c in graded_euler(value).items())
        return {"value": {"table": table, "graded_euler": euler}}
    if not is_dataclass(value):
        raise TypeError(f"no outcome form for {type(value).__name__}")
    fields = asdict(value)
    fields.pop("seconds", None)
    if hasattr(value, "ok"):
        fields["ok"] = value.ok() if callable(value.ok) else value.ok
    return {"value": json.loads(json.dumps(fields))}


def raised(exc: BaseException) -> dict:
    return {"raised": f"{type(exc).__name__}: {exc}"}
