"""Exhaustive state-cube complex of a diagram.

Enumerates all 2^n smoothing states with their circles, labels every
circle by a basis element of the Frobenius algebra, and assembles the
full differential with the usual alternating edge signs. Exponential in
crossings; meant as the reference engine for small diagrams that the
scanning engine is checked against, and as the direct route to the
deformed homology classes of oriented resolutions: `canonical_cycle`
takes an orientation as component flips.

Generator ids are laid out by state: each state's generators take
consecutive ids from the state's first id, `first[state]`, in the order
of their labels read as binary numbers, so a generator's id is its
state's first id plus its labels' offset.  The edge maps and
`canonical_cycle` find a generator by that offset arithmetic, with each
state's circle positions computed once.
The edge pairs that each crossing's two smoothings join are read once, and
every state's circles are built from them; the canonical labels come from
one checkerboard colouring of the diagram's faces, not from the state.
"""

from __future__ import annotations

from itertools import product

from .chain_algebra import ScalarComplex, Vec
from .diagrams import LinkDiagram, oriented_smoothing, smoothing_arcs
from .frobenius import Theory
from .planar import Circle, circles_of_arcs, parities

State = tuple[int, ...]


def _circle_key(c: Circle):
    return c.loop if c.edges == frozenset() else c.edges


def _offset(labels: tuple[int, ...]) -> int:
    """Position of labels in product((0, 1), repeat=len(labels))."""
    off = 0
    for b in labels:
        off = 2 * off + b
    return off


class CubeComplex:
    """Full hypercube chain complex of a diagram in a given theory."""

    def __init__(
        self,
        D: LinkDiagram,
        theory: Theory,
        flips: frozenset[int] = frozenset(),
    ):
        self.D = D
        self.theory = theory
        self.cids = sorted(D.crossings)
        n = len(self.cids)
        n_plus = D.n_plus(flips)
        n_minus = D.n_minus(flips)

        # arcs[i][r]: the edge pairs that smoothing r of crossing i joins
        arcs = [[smoothing_arcs(D.crossings[cid], r) for r in (0, 1)] for cid in self.cids]
        self.circles: dict[State, list[Circle]] = {}
        for bits in product((0, 1), repeat=n):
            state_arcs = [a for i, r in enumerate(bits) for a in arcs[i][r]]
            self.circles[bits] = circles_of_arcs(D, state_arcs)

        self.cx = ScalarComplex(theory.p, q_exact=theory.q_exact)
        # first[state]: the id of the state's first generator
        self.first: dict[State, int] = {}
        for bits, circles in self.circles.items():
            self.first[bits] = start = self.cx.dim
            w = sum(bits)
            for labels in product((0, 1), repeat=len(circles)):
                deg = len(labels) - 2 * sum(labels)
                h = w - n_minus
                q = deg + w + n_plus - 2 * n_minus
                g = self.cx.add_generator(h, q)
                assert g == start + _offset(labels), (
                    "generator ids must run through each state's labels in binary order"
                )

        index = {
            bits: {_circle_key(c): k for k, c in enumerate(circles)}
            for bits, circles in self.circles.items()
        }
        for bits in self.circles:
            for i in range(n):
                if not bits[i]:
                    self._add_edge_maps(bits, i, index)

    def _add_edge_maps(self, bits: State, i: int, index: dict) -> None:
        """Entries of the edge from bits to bits with crossing i set to 1.

        index maps each state to its circle-key -> position map.  Circle k
        of a state with n circles is bit n - 1 - k of a generator's offset
        from the state's first id.
        """
        th = self.theory
        tbits = bits[:i] + (1,) + bits[i + 1 :]
        sign = -1 if sum(bits[:i]) % 2 else 1
        src_index, tgt_index = index[bits], index[tbits]
        ns, nt = len(src_index), len(tgt_index)
        # per source circle, the target bit it carries to, or 0 at the saddle
        steps = [1 << (nt - 1 - tgt_index[key]) if key in tgt_index else 0 for key in src_index]
        changed_src = [ns - 1 - k for k, step in enumerate(steps) if not step]
        changed_tgt = [nt - 1 - k for key, k in tgt_index.items() if key not in src_index]
        if len(changed_src) == 2:
            (a, b), (out,) = changed_src, changed_tgt
            terms = {
                la << a | lb << b: [(bit << out, sign * c) for bit, c in th.m_basis(la, lb)]
                for la in (0, 1)
                for lb in (0, 1)
            }
            mask = 1 << a | 1 << b
        else:
            (a,), (x, y) = changed_src, changed_tgt
            terms = {
                la << a: [(bx << x | by << y, sign * c) for bx, by, c in th.delta_basis(la)]
                for la in (0, 1)
            }
            mask = 1 << a
        # spread[off]: the target state's first id plus the bits that the
        # carried circles of source offset off keep
        spread = [self.first[tbits]]
        for step in steps:
            spread = [t + bit for t in spread for bit in (0, step)]
        src0 = self.first[bits]
        for off, t in enumerate(spread):
            for dt, c in terms[off & mask]:
                self.cx.add_entry(src0 + off, t + dt, c)

    # -- distinguished vectors --------------------------------------------

    def canonical_cycle(self, flips: frozenset[int] = frozenset()) -> Vec:
        """Deformed-theory cycle of the orientation `flips`: at its oriented
        resolution, the tensor of the root labels picked by each circle's
        parity under that orientation, which `planar.parities` reads off
        any of the circle's edges (or its loop)."""
        th = self.theory
        rev_edges, rev_loops = self.D.reversed_parts(flips)
        bits = tuple(oriented_smoothing(self.D.crossings[c], rev_edges) for c in self.cids)
        circle_of = {e: k for k, c in enumerate(self.circles[bits]) for e in c.edges}
        for cid in self.cids:
            pair = {circle_of[e] for e, _ in self.D.crossings[cid].slots}
            assert len(pair) == 2, "oriented smoothing produced a self-joined circle"
        edges, loops = parities(self.D, rev_edges, rev_loops)
        labels = [
            th.canonical_label(edges[min(c.edges)] if c.loop is None else loops[c.loop])
            for c in self.circles[bits]
        ]
        vec: Vec = {}
        for choice in product((0, 1), repeat=len(labels)):
            coeff = 1
            for lab, bit in zip(labels, choice):
                coeff = (coeff * lab[bit]) % th.p
            if coeff:
                vec[self.first[bits] + _offset(choice)] = coeff
        return vec
