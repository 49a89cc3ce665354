"""Blackboard cabling of knot diagrams, framing correction, and pattern
insertion.

cable_insert replaces each crossing of a one-component companion diagram
by an N x N grid of small crossings (the over-bundle stays on top) and
each edge by a ribbon of N parallel edges, then splices a braid tangle
into one chosen ribbon. The tangle is the framing correction, full twists
making up the difference between the requested framing and the companion's
writhe, followed by the pattern word. All cable strands inherit the
companion's direction, so the base orientation of the result is the
all-parallel one; other orientations are addressed as flip sets through
CableMeta, which records which diagram component each cable strand
belongs to.

Grid gadget conventions: rotate each companion crossing so the under
strand runs east-west and the over strand north-south. Cells carry
coordinates (x, y) with x growing eastward and y northward; every small
crossing has slot 0 = E, 1 = N, 2 = W, 3 = S and its over-strand
vertical. Walking counterclockwise around the gadget boundary, ports are
ordered: east side south to north, north side east to west, west side
north to south, south side west to east. A ribbon joins port k at its
tail gadget to port N-1-k at its head gadget.
"""

from __future__ import annotations

from dataclasses import dataclass

from .braids import BraidWord, braid_closure, cable_word, full_twist, row_word
from .diagrams import LinkDiagram, incoming


@dataclass(frozen=True)
class CableMeta:
    """Strand bookkeeping for a cable diagram: strand_component[j] is the
    diagram component carrying cable strand j (strands indexed as the
    pattern braid's columns)."""

    strand_component: tuple[int, ...]

    @property
    def width(self) -> int:
        return len(self.strand_component)


def orientation_flips(
    meta: CableMeta, reversed_strands: set[int] | frozenset[int]
) -> frozenset[int]:
    """Component flip set reversing exactly the given cable strands.

    Rejects strand sets that are not unions of components.
    """
    reversed_strands = set(reversed_strands)
    if not reversed_strands <= set(range(meta.width)):
        raise ValueError("strand index out of range")
    flips = {meta.strand_component[j] for j in reversed_strands}
    covered = {
        j for j in range(meta.width) if meta.strand_component[j] in flips
    }
    if covered != reversed_strands:
        raise ValueError("strand set does not close to a sublink")
    return frozenset(flips)


def alternating_flips(meta: CableMeta) -> frozenset[int]:
    """Reverse every odd-indexed cable strand, making neighbors antiparallel."""
    return orientation_flips(meta, set(range(1, meta.width, 2)))


def cable_insert(knot: LinkDiagram, f: int, pattern: BraidWord):
    """f-framed satellite: the pattern braid inserted into the blackboard
    N-strand parallel of the companion, N the pattern's strand count.
    Returns the diagram and its CableMeta.

    The framing correction f - writhe(knot) is realized as full twists
    spliced next to the pattern (as single kinks when N = 1). The splice
    lands on the highest edge id not carrying placement data.
    """
    if len(knot.components()) != 1:  # a free loop is a component too
        raise ValueError("cable companion must be a knot diagram")
    N = pattern.strands
    wr = knot.writhe()
    twists = f - wr

    if N == 1:
        assert not pattern.letters
        return _framed_copy(knot, twists)

    word = full_twist(N, twists) * pattern
    if not knot.crossings:
        # crossingless unknot companion: the cable is a plain braid closure
        D, cols = braid_closure(word, with_columns=True)
        return D, _meta_from_columns(D, cols)

    D, entry_edges, ribbon = _grid_cable(knot, N, _pick_splice_edge(knot), word)
    _carry_placement(knot, D, N, ribbon)
    comp = D.component_of_edge()
    return D, CableMeta(tuple(comp[e] for e in entry_edges))


def satellite_word(base: BraidWord, f: int, pattern: BraidWord) -> BraidWord:
    """The f-framed satellite as a braid word: the companion cabled strand
    by strand, then the framing twists and the pattern on the first
    bundle's columns."""
    N = pattern.strands
    tangle = full_twist(N, f - base.writhe) * pattern
    return BraidWord(base.strands * N, cable_word(base, N).letters + tangle.letters)


def cable_of_braid(base: BraidWord, f: int, pattern: BraidWord):
    """Braid-route construction of the same satellite: the closure of its
    satellite_word, with its CableMeta."""
    if len(base.closure_cycles()) != 1:
        raise ValueError("companion must close to a knot")
    D, cols = braid_closure(satellite_word(base, f, pattern), with_columns=True)
    return D, _meta_from_columns(D, cols[: pattern.strands])


def cable_family_diagram(base: BraidWord, f: int, m: int, a: int = 0, i: int = 0):
    """Width-(2m+1) family member over a companion knot given as a braid
    word, with its CableMeta: pattern rows spliced into the f-framed cable."""
    return cable_of_braid(base, f, row_word(m, a, i))


# -- framed 1-cables ------------------------------------------------------


def _framed_copy(knot: LinkDiagram, twists: int):
    if twists == 0:
        D = knot.copy()
    elif not knot.edges:
        s = 1 if twists > 0 else -1
        k = abs(twists)
        D = braid_closure(BraidWord(k + 1, tuple(s * j for j in range(1, k + 1))))
    else:
        D = knot
        s = 1 if twists > 0 else -1
        for _ in range(abs(twists)):
            D = D.add_kink(max(D.edges), s)
    return D, CableMeta((0,))


# -- grid surgery ---------------------------------------------------------


def _pick_splice_edge(knot: LinkDiagram) -> int:
    # a knot with crossings is one piece in the outer face and has no
    # loops: only its own dart's edge carries placement data
    ((own, _),) = knot.piece_data.values()
    free = [e for e in sorted(knot.edges) if e != own[0]]
    assert free, "no edge available for the splice"
    return free[-1]


def _ports(knot, cell, c, s, N):
    """Boundary attachment points of gadget c on the side of big slot s,
    in the gadget's counterclockwise order."""
    u = (knot.crossings[c].over_diag + 1) % 4
    side = (s - u) % 4  # 0 E, 1 N, 2 W, 3 S
    if side == 0:
        return [(cell[(c, N - 1, y)], 0) for y in range(N)]
    if side == 1:
        return [(cell[(c, x, N - 1)], 1) for x in range(N - 1, -1, -1)]
    if side == 2:
        return [(cell[(c, 0, y)], 2) for y in range(N - 1, -1, -1)]
    return [(cell[(c, x, 0)], 3) for x in range(N)]


def _grid_cable(knot: LinkDiagram, N: int, splice: int, word: BraidWord):
    D = LinkDiagram()
    cell: dict[tuple[int, int, int], int] = {}
    for c in sorted(knot.crossings):
        for y in range(N):
            for x in range(N):
                cell[(c, x, y)] = D.new_crossing(over_diag=1)

    for c in sorted(knot.crossings):
        X = knot.crossings[c]
        u = (X.over_diag + 1) % 4
        inc = incoming(X, frozenset())
        under_in_east, over_in_north = inc[u], inc[(u + 1) % 4]
        for y in range(N):
            for x in range(N - 1):
                east = (cell[(c, x + 1, y)], 2)
                west = (cell[(c, x, y)], 0)
                if under_in_east:
                    D.new_edge(east, west)
                else:
                    D.new_edge(west, east)
        for x in range(N):
            for y in range(N - 1):
                north = (cell[(c, x, y + 1)], 3)
                south = (cell[(c, x, y)], 1)
                if over_in_north:
                    D.new_edge(north, south)
                else:
                    D.new_edge(south, north)

    ribbon: dict[int, list[int]] = {}
    entry_edges: list[int] = []
    for e in sorted(knot.edges):
        (c0, s0), (c1, s1) = knot.edges[e].ends
        P0 = _ports(knot, cell, c0, s0, N)
        P1 = _ports(knot, cell, c1, s1, N)
        if e != splice:
            ribbon[e] = [D.new_edge(P0[k], P1[N - 1 - k]) for k in range(N)]
            continue
        # tangle column j sits on the j-th port of the outgoing side;
        # single-letter splices certify this order planar, the reverse
        # has genus
        start = list(P0)
        cur = list(start)
        for l in word.letters:
            j = abs(l) - 1
            cid = D.new_crossing(over_diag=0 if l > 0 else 1)
            D.new_edge(cur[j], (cid, 1))
            D.new_edge(cur[j + 1], (cid, 0))
            cur[j] = (cid, 2)
            cur[j + 1] = (cid, 3)
        for j in range(N):
            D.new_edge(cur[j], P1[N - 1 - j])
        for pc, ps in start:
            eid, idx = D.crossings[pc].slots[ps]
            assert idx == 0, "tangle entry should be an edge tail"
            entry_edges.append(eid)
    return D, entry_edges, ribbon


def _carry_placement(knot, D, N, ribbon) -> None:
    """Single-piece companion: move its outer dart to the outermost ribbon
    copy on the same side (walking out of a gadget, the highest
    counterclockwise port is leftmost; walking in, the lowest)."""
    assert len(knot.piece_data) == 1
    ((own, host),) = knot.piece_data.values()
    assert host is None, "companion must own the outer face"
    e, toward = own
    assert e in ribbon, "outer dart sits on the spliced edge"
    if toward == 1:
        dart = (ribbon[e][N - 1], 1)
    else:
        dart = (ribbon[e][0], 0)
    D.piece_data = {min(D.pieces()): (dart, None)}


def _meta_from_columns(D: LinkDiagram, cols) -> CableMeta:
    comp_e = D.component_of_edge()
    comp_l = D.component_of_loop()
    out = []
    for kind, ident in cols:
        out.append(comp_e[ident] if kind == "edge" else comp_l[ident])
    return CableMeta(tuple(out))
