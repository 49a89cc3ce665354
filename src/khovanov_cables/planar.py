"""Faces of a diagram and planar data of its resolved states.

Face traversal: a dart (edge, toward) keeps the face on its LEFT; arriving
at a crossing slot s, the walk leaves along the clockwise-next slot
(s - 1 mod 4). Orbits of that walk are the faces of each connected piece.

For a resolved state (a smoothing choice at every crossing) the faces of
the resulting disjoint circles are obtained by merging crossing sectors:
smoothing a crossing welds the two sectors not spanned by its smoothing
arcs. Pieces and loops are then glued into one plane via their recorded
host darts, the face adjacency across circles forms a tree, and depth in
that tree (from the outer face) is the nesting number of each circle.
A circle's clockwise indicator and parity (nesting plus indicator, mod 2)
are read under an orientation given as the reversed edges and loops that
`LinkDiagram.reversed_parts` returns.
"""

from __future__ import annotations

from dataclasses import dataclass

from .diagrams import Dart, LinkDiagram, UnionFind, smoothing_arcs, smoothing_pairs


class Embedding:
    """Faces of the full (unresolved) diagram, one orbit per face per piece."""

    def __init__(self, D: LinkDiagram):
        self.D = D
        self.face_of: dict[Dart, int] = {}
        self.faces: list[list[Dart]] = []
        for eid in sorted(D.edges):
            for toward in (0, 1):
                d = (eid, toward)
                if d in self.face_of:
                    continue
                orbit = []
                cur = d
                while cur not in self.face_of:
                    self.face_of[cur] = len(self.faces)
                    orbit.append(cur)
                    cur = self._next(cur)
                assert cur == d, "face walk did not close up"
                self.faces.append(orbit)

    def _next(self, dart: Dart) -> Dart:
        c, s = self.D.end_of_dart(dart)
        eid, idx = self.D.crossings[c].slots[(s - 1) % 4]
        return (eid, 1 - idx)

    def left_face(self, dart: Dart) -> int:
        return self.face_of[dart]

    def sector(self, cid: int, s: int) -> int:
        """Face filling the sector between slots s and s+1 at the crossing."""
        eid, idx = self.D.crossings[cid].slots[(s + 1) % 4]
        return self.face_of[(eid, idx)]


@dataclass(frozen=True)
class Circle:
    """One circle of a resolved state: a set of edges, or a bare loop."""

    edges: frozenset[int]
    loop: int | None = None


def state_circles(D: LinkDiagram, smoothings: dict[int, int]) -> list[Circle]:
    """Circles of a resolved state, edged ones by min edge id, then loops."""
    arcs = [a for cid, x in D.crossings.items() for a in smoothing_arcs(x, smoothings[cid])]
    return circles_of_arcs(D, arcs)


def circles_of_arcs(D: LinkDiagram, arcs: list[tuple[int, int]]) -> list[Circle]:
    """state_circles from the edge pairs that the state's smoothings join."""
    uf = UnionFind(D.edges)
    for ea, eb in arcs:
        uf.union(ea, eb)
    circles = [Circle(frozenset(g)) for g in uf.groups().values()]
    circles.sort(key=lambda c: min(c.edges))
    for lid in sorted(D.loops):
        circles.append(Circle(frozenset(), loop=lid))
    return circles


class ResolvedState:
    """Planar data of one resolved state: circles, nesting, handedness."""

    def __init__(self, D: LinkDiagram, smoothings: dict[int, int]):
        self.D = D
        self.smoothings = dict(smoothings)
        self.circles = state_circles(D, smoothings)
        self.circle_of_edge: dict[int, int] = {}
        self.circle_of_loop: dict[int, int] = {}
        for i, c in enumerate(self.circles):
            for e in c.edges:
                self.circle_of_edge[e] = i
            if c.loop is not None:
                self.circle_of_loop[c.loop] = i
        self._compute_depths()

    def _compute_depths(self) -> None:
        D = self.D
        if not D.edges:
            self.nesting = [0] * len(self.circles)
            return
        emb = Embedding(D)
        uf = UnionFind(range(len(emb.faces)))
        for cid, x in D.crossings.items():
            pairs = smoothing_pairs(x.over_diag, self.smoothings[cid])
            spanned = {p[0] for p in pairs}
            merged = [s for s in range(4) if s not in spanned]
            uf.union(emb.sector(cid, merged[0]), emb.sector(cid, merged[1]))
        outer_classes = set()
        for own, host in D.piece_data.values():
            if host is None:
                outer_classes.add(uf.find(emb.left_face(own)))
            else:
                uf.union(emb.left_face(own), emb.left_face(host))
        roots = {uf.find(f) for f in outer_classes}
        assert len(roots) == 1, "no unique outer face; placement data broken"
        outer = roots.pop()

        # adjacency across circles: the two sides of every edge
        adj: dict[int, list[tuple[int, int]]] = {}
        pair_of_circle: dict[int, tuple[int, int]] = {}
        for eid in D.edges:
            fl = uf.find(emb.left_face((eid, 1)))
            fr = uf.find(emb.left_face((eid, 0)))
            ci = self.circle_of_edge[eid]
            assert fl != fr, "a circle fails to separate its two sides"
            if ci in pair_of_circle:
                assert pair_of_circle[ci] in ((fl, fr), (fr, fl)), (
                    "inconsistent side faces along a circle"
                )
            else:
                pair_of_circle[ci] = (fl, fr)
                adj.setdefault(fl, []).append((fr, ci))
                adj.setdefault(fr, []).append((fl, ci))
        n_edged = sum(1 for c in self.circles if c.loop is None)
        classes = {uf.find(f) for f in range(len(emb.faces))}
        assert len(classes) == n_edged + 1, "resolved faces do not form a tree"

        depth = {outer: 0}
        frontier = [outer]
        while frontier:
            nxt = []
            for f in frontier:
                for g, _ in adj.get(f, []):
                    if g not in depth:
                        depth[g] = depth[f] + 1
                        nxt.append(g)
            frontier = nxt
        assert set(depth) == classes, "face tree is disconnected"

        self._uf = uf
        self._emb = emb
        self._depth = depth
        self.nesting = []
        for i, c in enumerate(self.circles):
            if c.loop is None:
                fl, fr = pair_of_circle[i]
                assert abs(depth[fl] - depth[fr]) == 1
                self.nesting.append(min(depth[fl], depth[fr]))
            else:
                host = D.loops[c.loop].host
                if host is None:
                    self.nesting.append(0)
                else:
                    self.nesting.append(depth[uf.find(emb.left_face(host))])

    def cw_indicator(
        self, idx: int, rev_edges: frozenset[int], rev_loops: frozenset[int]
    ) -> int:
        """1 if circle idx runs clockwise under the orientation that reverses
        the given edges and loops (`LinkDiagram.reversed_parts` of a flip set).

        Only the circle's lowest edge (or its loop) is consulted, so the
        sets need only be consistent along each circle.
        """
        c = self.circles[idx]
        if c.loop is not None:
            ccw = self.D.loops[c.loop].ccw != (c.loop in rev_loops)
            return 0 if ccw else 1
        eid = min(c.edges)
        flipped = eid in rev_edges
        d_along = (eid, 0 if flipped else 1)
        d_against = (eid, 1 if flipped else 0)
        fl = self._depth[self._uf.find(self._emb.left_face(d_along))]
        fr = self._depth[self._uf.find(self._emb.left_face(d_against))]
        assert abs(fl - fr) == 1
        return 0 if fl > fr else 1

    def parity(
        self, idx: int, rev_edges: frozenset[int], rev_loops: frozenset[int]
    ) -> int:
        """Nesting plus clockwise indicator of circle idx, mod 2."""
        return (self.nesting[idx] + self.cw_indicator(idx, rev_edges, rev_loops)) % 2
