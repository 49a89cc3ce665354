"""Faces of a diagram and the parities of its canonical labels.

Face traversal: a dart (edge, toward) keeps the face on its LEFT; arriving
at a crossing slot s, the walk leaves along the clockwise-next slot
(s - 1 mod 4). Orbits of that walk are the faces of each connected piece.

Lee's canonical generators label each circle of the oriented resolution
by its parity: its nesting number plus its clockwise indicator, mod 2
(Rasmussen).  One checkerboard colouring of the unresolved diagram gives
every such parity, in every state.  Colour the faces so that the two faces
across an edge differ, with the outer face 0; a piece's own outer face
takes the colour of the face its host dart bounds.  Then in every state
a resolved face's depth, mod 2, is the colour of the faces it is made of:
  - smoothing a crossing welds two opposite sectors, which share a colour,
    so each resolved face is a union of faces of one colour;
  - crossing a circle changes the depth by one and the colour too, and the
    outer face has both 0.
A circle run counterclockwise has its inside (depth nesting + 1) on its
left, and one run clockwise its outside (depth nesting), so its parity is
1 + the colour left of a dart that runs along it.  A loop contains
nothing: its nesting is its host face's colour.  An orientation is given
as the reversed edges and loops that `LinkDiagram.reversed_parts` returns.
"""

from __future__ import annotations

from dataclasses import dataclass

from .diagrams import Dart, LinkDiagram, UnionFind


def face_of(D: LinkDiagram) -> dict[Dart, Dart]:
    """Face of the full (unresolved) diagram left of every dart, named by
    the first dart of its orbit."""
    face: dict[Dart, Dart] = {}
    for d in ((eid, toward) for eid in sorted(D.edges) for toward in (0, 1)):
        if d in face:
            continue
        cur = d
        while cur not in face:
            face[cur] = d
            c, s = D.end_of_dart(cur)
            e, idx = D.crossings[c].slots[(s - 1) % 4]
            cur = (e, 1 - idx)
        assert cur == d, "face walk did not close up"
    return face


def checkerboard(D: LinkDiagram) -> dict[Dart, int]:
    """Colour of the face left of every dart: faces across an edge differ,
    a piece's own outer face has its host face's colour, and the outer
    face is 0."""
    face = face_of(D)
    links: dict[Dart, list[tuple[Dart, int]]] = {}
    for eid in D.edges:
        a, b = face[(eid, 0)], face[(eid, 1)]
        links.setdefault(a, []).append((b, 1))
        links.setdefault(b, []).append((a, 1))
    todo = []
    for own, host in D.piece_data.values():
        if host is None:
            todo.append((face[own], 0))
        else:
            links[face[host]].append((face[own], 0))
    colour: dict[Dart, int] = {}
    while todo:
        f, c = todo.pop()
        if f in colour:
            assert colour[f] == c, "faces admit no checkerboard colouring"
            continue
        colour[f] = c
        todo.extend((g, c ^ step) for g, step in links[f])
    return {d: colour[f] for d, f in face.items()}


def parities(
    D: LinkDiagram, rev_edges: frozenset[int], rev_loops: frozenset[int]
) -> tuple[dict[int, int], dict[int, int]]:
    """Parity of the circle through every edge of the oriented resolution,
    and of every loop, under the orientation that reverses the given edges
    and loops."""
    left = checkerboard(D)
    edges = {e: 1 ^ left[(e, int(e not in rev_edges))] for e in D.edges}
    loops = {
        lid: (0 if x.host is None else left[x.host]) ^ (x.ccw == (lid in rev_loops))
        for lid, x in D.loops.items()
    }
    return edges, loops


@dataclass(frozen=True)
class Circle:
    """One circle of a resolved state: a set of edges, or a bare loop."""

    edges: frozenset[int]
    loop: int | None = None


def circles_of_arcs(D: LinkDiagram, arcs: list[tuple[int, int]]) -> list[Circle]:
    """Circles of the state whose smoothings join the given edge pairs,
    edged ones by min edge id, then loops."""
    uf = UnionFind(D.edges)
    for ea, eb in arcs:
        uf.union(ea, eb)
    circles = [Circle(frozenset(g)) for g in uf.groups().values()]
    circles.sort(key=lambda c: min(c.edges))
    for lid in sorted(D.loops):
        circles.append(Circle(frozenset(), loop=lid))
    return circles
