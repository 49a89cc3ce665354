"""Planar link diagrams with explicit embedding data.

A diagram is a 4-valent planar map with over/under decorations, plus
crossing-free loops. Each crossing stores its four incident edge ends in
counterclockwise cyclic order; `over_diag` says which diagonal (slots 0/2
or slots 1/3) carries the over-strand. Edges are directed (tail to head)
and the base orientation of the link runs every edge tail to head.

An orientation is chosen as a frozenset of flipped (reversed) component
indices. `LinkDiagram.reversed_parts` is the one translation of flips into
the edges and loops the orientation runs backward; everything downstream
reads slot directions from those sets through `incoming`, and a crossing's
oriented smoothing through `oriented_smoothing`, which also checks that
the directions are coherent at the crossing.  That smoothing is the one
route to a crossing's sign under an orientation: 1 - 2 times it.  The
writhe, n± and linking numbers of every orientation come from
`crossing_table`, per-pair sign counts computed once (and reset with the
component cache) under the base orientation.

Because a rotation system only pins the embedding of each connected piece,
the diagram also records placement data: for every edged piece, a dart
whose left side is the piece's own unbounded region, and a host dart
locating the piece inside the rest of the diagram.  Crossing-free loops
carry a handedness bit and a host dart; loops never contain any other part
of the diagram.  A host of None means the outer face, for every builder
and edit: any number of pieces and loops may sit there side by side.

Five edits return a new diagram and leave the source as it is: `mirror`
(switch every crossing), `reverse_all` (reverse every component),
`disjoint_union` (place another diagram beside this one), `with_free_loop`
(add a crossing-free circle) and `add_kink` (insert a one-crossing curl).
They carry existing placement darts only through
`LinkDiagram._move_darts`; `_dart_map` turns an edit's edge map into the
darts it moves. A crossing's smoothings are never built as diagrams:
`planar.circles_of_arcs` reads the circles of a whole state from the
edge pairs its smoothings join, `planar.parities` their canonical labels
from one checkerboard colouring of the faces, and
`induction.smoothed_component_count` the components left by smoothing
one crossing.

A dart is (edge_id, toward): the direction walking toward ends[toward].
The face "left of" a dart is the face swept counterclockwise into the
walk direction; face traversal turns clockwise at each crossing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

Dart = tuple[int, int]
End = tuple[int, int]  # (crossing id, slot 0..3)


@dataclass
class Crossing:
    # slots[s] = (edge_id, end_idx); end_idx 1 means the edge's head is here
    slots: list[tuple[int, int]]
    over_diag: int  # 0: slots 0,2 carry the over-strand; 1: slots 1,3

    def copy(self) -> "Crossing":
        return Crossing(list(self.slots), self.over_diag)


@dataclass
class Edge:
    ends: tuple[End, End]  # (tail, head)


@dataclass
class Loop:
    ccw: bool  # base traversal runs counterclockwise
    host: Dart | None  # dart whose left face contains the loop; None = outer


@dataclass
class Component:
    """One link component: an edge cycle in traversal order, or a bare loop."""

    edges: tuple[int, ...] = ()
    loop: int | None = None


class UnionFind:
    """Disjoint sets over a fixed collection of hashable items."""

    def __init__(self, items: Iterable) -> None:
        self.parent = {x: x for x in items}

    def find(self, x):
        parent = self.parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(self, a, b) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb

    def groups(self) -> dict:
        """Root -> members; roots and members in the order items were given."""
        out: dict = {}
        for x in self.parent:
            out.setdefault(self.find(x), []).append(x)
        return out


def smoothing_pairs(over_diag: int, r: int) -> list[tuple[int, int]]:
    """Slot pairs joined by smoothing r at a crossing, each ordered so the
    second slot is the counterclockwise successor of the first."""
    u = (over_diag + 1) % 4
    if r == 0:
        return [(u, (u + 1) % 4), ((u + 2) % 4, (u + 3) % 4)]
    return [((u + 3) % 4, u), ((u + 1) % 4, (u + 2) % 4)]


def smoothing_arcs(x: Crossing, r: int) -> list[tuple[int, int]]:
    """The edge pairs that smoothing r joins at x, in smoothing_pairs order."""
    return [(x.slots[sa][0], x.slots[sb][0]) for sa, sb in smoothing_pairs(x.over_diag, r)]


def incoming(x: Crossing, rev_edges: frozenset[int]) -> list[bool]:
    """Per slot of x, whether a strand arrives there: the slot holds an
    edge's head, unless the orientation runs that edge backward."""
    return [(idx == 1) != (eid in rev_edges) for eid, idx in x.slots]


def oriented_smoothing(x: Crossing, rev_edges: frozenset[int]) -> int:
    """The one smoothing of x whose arcs each run from an incoming slot to
    an outgoing one (0 at a positive crossing, 1 at a negative one).

    Exactly one smoothing does so when each diagonal (one strand) runs in
    at one end and out at the other; then every arc of a smoothing joins
    an in-slot to an out-slot as soon as one of its arcs does.
    """
    inc = incoming(x, rev_edges)
    assert inc[0] != inc[2] and inc[1] != inc[3], "orientation incoherent at a crossing"
    (a, b), _ = smoothing_pairs(x.over_diag, 0)
    return 0 if inc[a] != inc[b] else 1


class LinkDiagram:
    def __init__(self) -> None:
        self.crossings: dict[int, Crossing] = {}
        self.edges: dict[int, Edge] = {}
        self.loops: dict[int, Loop] = {}
        # piece key (min crossing id) -> (own outer dart, host dart or None)
        self.piece_data: dict[int, tuple[Dart, Dart | None]] = {}
        self._next_cid = 0
        self._next_eid = 0
        self._next_lid = 0
        self._components: list[Component] | None = None
        self._crossing_table: dict[tuple[int, int], tuple[int, int]] | None = None

    # -- low-level construction ------------------------------------------

    def new_crossing(self, over_diag: int) -> int:
        cid = self._next_cid
        self._next_cid += 1
        self.crossings[cid] = Crossing([None] * 4, over_diag)  # type: ignore[list-item]
        self._components = self._crossing_table = None
        return cid

    def new_edge(self, tail: End, head: End) -> int:
        eid = self._next_eid
        self._next_eid += 1
        self.edges[eid] = Edge((tail, head))
        self.crossings[tail[0]].slots[tail[1]] = (eid, 0)
        self.crossings[head[0]].slots[head[1]] = (eid, 1)
        self._components = self._crossing_table = None
        return eid

    def new_loop(self, ccw: bool, host: Dart | None) -> int:
        lid = self._next_lid
        self._next_lid += 1
        self.loops[lid] = Loop(ccw, host)
        self._components = self._crossing_table = None
        return lid

    def copy(self) -> "LinkDiagram":
        D = LinkDiagram()
        D.crossings = {c: x.copy() for c, x in self.crossings.items()}
        D.edges = {e: Edge(x.ends) for e, x in self.edges.items()}
        D.loops = {l: Loop(x.ccw, x.host) for l, x in self.loops.items()}
        D.piece_data = dict(self.piece_data)
        D._next_cid = self._next_cid
        D._next_eid = self._next_eid
        D._next_lid = self._next_lid
        return D

    def _move_darts(self, moved: dict[Dart, Dart]) -> None:
        """Rewrite every loop host and piece dart that `moved` names."""
        for x in self.loops.values():
            x.host = moved.get(x.host, x.host)
        self.piece_data = {
            k: (moved.get(own, own), moved.get(host, host))
            for k, (own, host) in self.piece_data.items()
        }

    # -- basic queries ----------------------------------------------------

    def end_of_dart(self, dart: Dart) -> End:
        eid, toward = dart
        return self.edges[eid].ends[toward]

    def pieces(self) -> dict[int, set[int]]:
        """Connected edged pieces: piece key (min crossing id) -> crossing set."""
        uf = UnionFind(self.crossings)
        for e in self.edges.values():
            uf.union(e.ends[0][0], e.ends[1][0])
        return {min(g): set(g) for g in uf.groups().values()}

    # -- components and orientations --------------------------------------

    def components(self) -> list[Component]:
        """Canonically ordered components: edged ones by min edge id, then loops."""
        if self._components is not None:
            return self._components
        seen: set[int] = set()
        comps: list[Component] = []
        for start in sorted(self.edges):
            if start in seen:
                continue
            cycle = []
            e = start
            while True:
                cycle.append(e)
                seen.add(e)
                c, s = self.edges[e].ends[1]
                e2, idx = self.crossings[c].slots[(s + 2) % 4]
                assert idx == 0, "edge directions are not coherent through a crossing"
                e = e2
                if e == start:
                    break
                assert e not in seen, "component traversal revisited an edge"
            comps.append(Component(edges=tuple(cycle)))
        comps.sort(key=lambda comp: comp.edges[0])
        for lid in sorted(self.loops):
            comps.append(Component(loop=lid))
        self._components = comps
        return comps

    def component_of_edge(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for i, comp in enumerate(self.components()):
            for e in comp.edges:
                out[e] = i
        return out

    def component_of_loop(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for i, comp in enumerate(self.components()):
            if comp.loop is not None:
                out[comp.loop] = i
        return out

    def _check_flips(self, flips: frozenset[int]) -> None:
        if not set(flips) <= set(range(len(self.components()))):
            raise ValueError(
                f"orientation {sorted(flips)} names a component the diagram lacks"
            )

    def reversed_parts(
        self, flips: frozenset[int]
    ) -> tuple[frozenset[int], frozenset[int]]:
        """Edges and loops that the orientation reversing `flips` runs backward.

        Raises ValueError when `flips` names a component the diagram lacks.
        """
        self._check_flips(flips)
        return (
            frozenset(e for e, k in self.component_of_edge().items() if k in flips),
            frozenset(l for l, k in self.component_of_loop().items() if k in flips),
        )

    def crossing_table(self) -> dict[tuple[int, int], tuple[int, int]]:
        """Per component pair a <= b, the counts (positive, negative) of its
        crossings under the base orientation, computed once and reset with
        the component cache.  Flipping a set of components reverses the
        sign of exactly the crossings whose two strands lie on one flipped
        and one kept component, so these counts give the writhe, n± and
        every linking number of any orientation in O(k^2) for k components.
        """
        if self._crossing_table is None:
            comp = self.component_of_edge()
            pairs: dict[tuple[int, int], list[int]] = {}
            for x in self.crossings.values():
                over = comp[x.slots[x.over_diag][0]]
                under = comp[x.slots[(x.over_diag + 1) % 4][0]]
                pair = (min(over, under), max(over, under))
                pairs.setdefault(pair, [0, 0])[oriented_smoothing(x, frozenset())] += 1
            self._crossing_table = {k: tuple(v) for k, v in pairs.items()}
        return self._crossing_table

    def _sign_counts(self, flips: frozenset[int]) -> tuple[int, int]:
        """(n_plus, n_minus) under flips, from the pair counts."""
        self._check_flips(flips)
        n_plus = n_minus = 0
        for (a, b), (pos, neg) in self.crossing_table().items():
            if (a in flips) != (b in flips):
                pos, neg = neg, pos
            n_plus += pos
            n_minus += neg
        return n_plus, n_minus

    def writhe(self, flips: frozenset[int] = frozenset()) -> int:
        n_plus, n_minus = self._sign_counts(flips)
        return n_plus - n_minus

    def n_minus(self, flips: frozenset[int] = frozenset()) -> int:
        return self._sign_counts(flips)[1]

    def n_plus(self, flips: frozenset[int] = frozenset()) -> int:
        return self._sign_counts(flips)[0]

    def linking_number(
        self,
        comps_a: set[int],
        comps_b: set[int],
        flips: frozenset[int] = frozenset(),
    ) -> int:
        """Total linking number between two disjoint sets of components.

        Raises ValueError when the sets overlap or name a component the
        diagram lacks.
        """
        if comps_a & comps_b or not comps_a | comps_b <= set(range(len(self.components()))):
            raise ValueError(
                f"component sets {sorted(comps_a)} and {sorted(comps_b)} overlap"
                " or name a component the diagram lacks"
            )
        self._check_flips(flips)
        total = 0
        for (a, b), (pos, neg) in self.crossing_table().items():
            if (a in comps_a and b in comps_b) or (a in comps_b and b in comps_a):
                total += neg - pos if (a in flips) != (b in flips) else pos - neg
        assert total % 2 == 0
        return total // 2

    # -- global moves ------------------------------------------------------

    def mirror(self) -> "LinkDiagram":
        """Switch every crossing (over to under), keeping the projection."""
        D = self.copy()
        for x in D.crossings.values():
            x.over_diag ^= 1
        return D

    def reverse_all(self) -> "LinkDiagram":
        """Reverse the base orientation of every component (an involution).

        Every edge flips head for tail and every loop swaps handedness;
        placement darts flip with their edges, which keeps each one on the
        same geometric side. Crossing signs, and hence the writhe, are
        unchanged.
        """
        D = self.copy()
        for eid in list(D.edges):
            _flip_edge(D, eid)
        for x in D.loops.values():
            x.ccw = not x.ccw
        D._move_darts(_dart_map({e: (e, True) for e in D.edges}))
        return D

    def disjoint_union(self, other: "LinkDiagram") -> "LinkDiagram":
        """Place `other` beside this diagram in the shared outer face."""
        D = self.copy()
        dc, de, dl = D._next_cid, D._next_eid, D._next_lid

        def se(end: End) -> End:
            return (end[0] + dc, end[1])

        def sd(dart: Dart | None) -> Dart | None:
            return None if dart is None else (dart[0] + de, dart[1])

        for c, x in other.crossings.items():
            D.crossings[c + dc] = Crossing(
                [(e + de, idx) for (e, idx) in x.slots], x.over_diag
            )
        for e, x in other.edges.items():
            D.edges[e + de] = Edge((se(x.ends[0]), se(x.ends[1])))
        for l, x in other.loops.items():
            D.loops[l + dl] = Loop(x.ccw, sd(x.host))
        for k, (own, host) in other.piece_data.items():
            D.piece_data[k + dc] = (sd(own), sd(host))  # type: ignore[arg-type]
        D._next_cid += other._next_cid
        D._next_eid += other._next_eid
        D._next_lid += other._next_lid
        return D

    def with_free_loop(self, ccw: bool = False) -> "LinkDiagram":
        """Disjoint union with a crossing-free circle in the outer face."""
        D = self.copy()
        D.new_loop(ccw, None)
        return D

    def add_kink(self, eid: int, sign: int) -> "LinkDiagram":
        """Insert a one-crossing curl of the given sign on edge eid.

        Raises ValueError for a sign other than ±1 or an edge the diagram
        lacks.
        """
        if sign not in (1, -1):
            raise ValueError(f"kink sign {sign} is not 1 or -1")
        if eid not in self.edges:
            raise ValueError(f"edge {eid} is not in the diagram")
        D = self.copy()
        old = D.edges[eid]
        tail, head = old.ends
        # slot layout: 0 = strand in (head of first half), 1 = curl in,
        # 2 = curl out, 3 = strand out (tail of second half)
        cid = D.new_crossing(0 if sign == 1 else 1)
        del D.edges[eid]
        e1 = D.new_edge(tail, (cid, 0))
        D.new_edge((cid, 3), head)
        D.new_edge((cid, 2), (cid, 1))
        # the curl joins eid's piece, whose key (min crossing id) stays
        D._move_darts(_dart_map({eid: (e1, False)}))
        return D

    # -- validation --------------------------------------------------------

    def validate(self) -> None:
        """Assert that the diagram's parts fit together; raise ValueError
        when a piece's rotation system is not planar."""
        from . import planar

        for c, x in self.crossings.items():
            assert len(x.slots) == 4 and x.over_diag in (0, 1)
            for s, slot in enumerate(x.slots):
                assert slot is not None, f"crossing {c} slot {s} unset"
                eid, idx = slot
                assert self.edges[eid].ends[idx] == (c, s), "slot/edge mismatch"
        for e, x in self.edges.items():
            for idx in (0, 1):
                c, s = x.ends[idx]
                assert self.crossings[c].slots[s] == (e, idx), "edge/slot mismatch"
        self.components()  # asserts coherent directions
        pieces = self.pieces()
        assert set(self.piece_data) == set(pieces), "placement data out of sync"
        face = planar.face_of(self)
        for key, grp in pieces.items():
            V = len(grp)
            piece_edges = [
                e
                for e, x in self.edges.items()
                if x.ends[0][0] in grp
            ]
            E = len(piece_edges)
            F = len({face[d] for e in piece_edges for d in ((e, 0), (e, 1))})
            if V - E + F != 2:
                raise ValueError(f"piece {key} is not planar: V-E+F = {V - E + F}")
        for key, (own, host) in self.piece_data.items():
            assert own[0] in self.edges
            if host is not None:
                assert host[0] in self.edges
                assert self.edges[host[0]].ends[0][0] not in pieces[key], (
                    "piece hosted on its own dart"
                )
        for x in self.loops.values():
            if x.host is not None:
                assert x.host[0] in self.edges


def _dart_map(edge_map: dict[int, tuple[int, bool]]) -> dict[Dart, Dart]:
    """Darts moved by an edit's edge map (old id -> (new id, reversed))."""
    return {
        (e, t): (e2, t ^ rev) for e, (e2, rev) in edge_map.items() for t in (0, 1)
    }


def _flip_edge(D: LinkDiagram, eid: int) -> None:
    t, h = D.edges[eid].ends
    D.edges[eid] = Edge((h, t))
    D.crossings[h[0]].slots[h[1]] = (eid, 0)
    D.crossings[t[0]].slots[t[1]] = (eid, 1)
