"""PD-code interchange for link diagrams.

A PD code lists each crossing as X[a,b,c,d]: the four incident edge labels
in counterclockwise order starting from the incoming under-strand. Labels
run 1..2n and each appears exactly twice. Edge directions are recovered by
propagating the under-strand constraints (label a arrives, label c leaves)
through the over-strands; a diagram where some component never passes
under cannot be oriented this way and is rejected, as is a code whose
rotation system is not planar (some piece has V - E + F != 2).
Crossing-free loop components are not representable in a PD code.

The outer face is not part of the format. Parsed pieces are placed side
by side in the unbounded region, with each piece's own outer dart chosen
on its lowest edge; any such choice describes the same link.
"""

from __future__ import annotations

import re

from .diagrams import LinkDiagram, incoming

_X_RE = re.compile(r"X\[([^\]]*)\]")


def read_pd(text: str) -> LinkDiagram:
    tuples: list[tuple[int, int, int, int]] = []
    for m in _X_RE.finditer(text):
        parts = tuple(int(tok) for tok in m.group(1).split(","))
        if len(parts) != 4:
            raise ValueError(f"crossing needs 4 labels, got {parts}")
        tuples.append(parts)  # type: ignore[arg-type]
    if not tuples:
        raise ValueError("no crossings found in PD text")

    occurrences: dict[int, list[tuple[int, int]]] = {}
    for ci, tup in enumerate(tuples):
        for s, lab in enumerate(tup):
            occurrences.setdefault(lab, []).append((ci, s))
    for lab, occ in occurrences.items():
        if len(occ) != 2:
            raise ValueError(f"label {lab} appears {len(occ)} times, need 2")

    # head = strand arrives here, tail = strand leaves. Under-strand occupies
    # slots 0 (in) and 2 (out); over-strand slots 1,3 start undecided.
    state: dict[tuple[int, int], str] = {}
    stack: list[tuple[int, int]] = []

    def set_state(pt: tuple[int, int], val: str) -> None:
        if pt in state:
            if state[pt] != val:
                raise ValueError("inconsistent PD code (direction clash)")
            return
        state[pt] = val
        stack.append(pt)

    for ci in range(len(tuples)):
        set_state((ci, 0), "h")
        set_state((ci, 2), "t")
    while stack:
        ci, s = stack.pop()
        val = state[(ci, s)]
        flip = "t" if val == "h" else "h"
        # the label's other occurrence gets the opposite role
        a, b = occurrences[tuples[ci][s]]
        other = b if a == (ci, s) else a
        set_state(other, flip)
        # over-strand through a crossing: one end in, one end out
        if s in (1, 3):
            set_state((ci, 4 - s), flip)
    undecided = [
        (ci, s) for ci in range(len(tuples)) for s in (1, 3) if (ci, s) not in state
    ]
    if undecided:
        raise ValueError(
            "cannot orient PD code: some component never passes under"
        )

    D = LinkDiagram()
    cids = [D.new_crossing(over_diag=1) for _ in tuples]
    for lab in sorted(occurrences):
        (ci, si), (cj, sj) = occurrences[lab]
        if state[(ci, si)] == "t":
            tail, head = (cids[ci], si), (cids[cj], sj)
        else:
            tail, head = (cids[cj], sj), (cids[ci], si)
        D.new_edge(tail, head)

    for key, group in D.pieces().items():
        e0 = min(e for e, x in D.edges.items() if x.ends[0][0] in group)
        D.piece_data[key] = ((e0, 0), None)
    D.validate()
    return D


def write_pd(D: LinkDiagram) -> str:
    """Emit a PD code, relabeling edges 1.. along each component in turn."""
    if D.loops:
        raise ValueError("crossing-free loops have no PD representation")
    label: dict[int, int] = {}
    nxt = 1
    for comp in D.components():
        for e in comp.edges:
            label[e] = nxt
            nxt += 1
    entries = []
    for c in sorted(D.crossings):
        x = D.crossings[c]
        u = (x.over_diag + 1) % 4
        under_in = u if incoming(x, frozenset())[u] else (u + 2) % 4
        labs = [label[x.slots[(under_in + k) % 4][0]] for k in range(4)]
        entries.append("X[{},{},{},{}]".format(*labs))
    return "PD[" + ", ".join(entries) + "]"


# Negative pretzel with three twist regions of 1, 1 and 3 crossings; the
# unique determinant-7 knot with a 5-crossing diagram. All five crossings
# are negative.
PRETZEL_7_5 = "PD[X[1,6,2,7], X[7,2,8,3], X[3,10,4,1], X[9,4,10,5], X[5,8,6,9]]"


def knot_5_2() -> LinkDiagram:
    """7-crossing all-negative diagram of the mirror of the knot 5_2:
    the determinant-7 pretzel above with two extra negative kinks,
    writhe -7."""
    D = read_pd(PRETZEL_7_5)
    e = max(D.edges)
    D = D.add_kink(e, -1)
    D = D.add_kink(max(D.edges), -1)
    return D
