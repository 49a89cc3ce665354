"""Exhaustive state-cube complex of a diagram.

Enumerates all 2^n smoothing states with their circles, labels every
circle by a basis element of the Frobenius algebra, and assembles the
full differential with the usual alternating edge signs. Exponential in
crossings; meant as the reference engine for small diagrams that the
scanning engine is checked against, and as the direct route to the
deformed homology classes of oriented resolutions: `canonical_cycle`
takes an orientation as component flips.
"""

from __future__ import annotations

from itertools import product

from .chain_algebra import ScalarComplex, Vec
from .diagrams import LinkDiagram, oriented_smoothing
from .frobenius import Theory
from .planar import Circle, ResolvedState, state_circles

State = tuple[int, ...]
GenKey = tuple[State, tuple[int, ...]]


def _circle_key(c: Circle):
    return c.loop if c.edges == frozenset() else c.edges


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

        self.circles: dict[State, list[Circle]] = {}
        for bits in product((0, 1), repeat=n):
            sm = dict(zip(self.cids, bits))
            self.circles[bits] = state_circles(D, sm)

        self.cx = ScalarComplex(theory.p, q_exact=theory.q_exact)
        self.gid: dict[GenKey, int] = {}
        for bits, circles in self.circles.items():
            w = sum(bits)
            for labels in product((0, 1), repeat=len(circles)):
                deg = sum(1 if b == 0 else -1 for b in labels)
                h = w - n_minus
                q = deg + w + n_plus - 2 * n_minus
                self.gid[(bits, labels)] = self.cx.add_generator(h, q)

        for bits in self.circles:
            for i, c in enumerate(self.cids):
                if bits[i]:
                    continue
                self._add_edge_maps(bits, i)

    def _add_edge_maps(self, bits: State, i: int) -> None:
        th = self.theory
        tbits = bits[:i] + (1,) + bits[i + 1 :]
        sign = -1 if sum(bits[:i]) % 2 else 1
        src_c = self.circles[bits]
        tgt_c = self.circles[tbits]
        tgt_index = {_circle_key(c): k for k, c in enumerate(tgt_c)}
        src_index = {_circle_key(c): k for k, c in enumerate(src_c)}
        changed_src = [k for k, c in enumerate(src_c) if _circle_key(c) not in tgt_index]
        changed_tgt = [k for k, c in enumerate(tgt_c) if _circle_key(c) not in src_index]
        carry = {
            k: tgt_index[_circle_key(c)]
            for k, c in enumerate(src_c)
            if _circle_key(c) in tgt_index
        }

        for labels in product((0, 1), repeat=len(src_c)):
            src_gid = self.gid[(bits, labels)]
            base = [0] * len(tgt_c)
            for k, pos in carry.items():
                base[pos] = labels[k]
            if len(changed_src) == 2:
                (a, b), (out,) = changed_src, changed_tgt
                terms = []
                for bit, coeff in th.m_basis(labels[a], labels[b]):
                    tl = list(base)
                    tl[out] = bit
                    terms.append((tuple(tl), coeff))
            else:
                (a,), (x, y) = changed_src, changed_tgt
                terms = []
                for bx, by, coeff in th.delta_basis(labels[a]):
                    tl = list(base)
                    tl[x], tl[y] = bx, by
                    terms.append((tuple(tl), coeff))
            for tlabels, coeff in terms:
                dst_gid = self.gid[(tbits, tlabels)]
                self.cx.add_entry(src_gid, dst_gid, sign * coeff)

    # -- distinguished vectors --------------------------------------------

    def canonical_cycle(self, flips: frozenset[int] = frozenset()) -> Vec:
        """Deformed-theory cycle of the orientation `flips`: at its oriented
        resolution, the tensor of the root labels picked by each circle's
        parity under that orientation."""
        th = self.theory
        rev_edges, rev_loops = self.D.reversed_parts(flips)
        bits = tuple(oriented_smoothing(self.D.crossings[c], rev_edges) for c in self.cids)
        circle_of = {e: k for k, c in enumerate(self.circles[bits]) for e in c.edges}
        for cid in self.cids:
            pair = {circle_of[e] for e, _ in self.D.crossings[cid].slots}
            assert len(pair) == 2, "oriented smoothing produced a self-joined circle"
        rs = ResolvedState(self.D, dict(zip(self.cids, bits)))
        labels = [
            th.canonical_label(rs.parity(k, rev_edges, rev_loops))
            for k in range(len(rs.circles))
        ]
        vec: Vec = {}
        for choice in product((0, 1), repeat=len(labels)):
            coeff = 1
            for lab, bit in zip(labels, choice):
                coeff = (coeff * lab[bit]) % th.p
            if coeff:
                vec[self.gid[(bits, choice)]] = coeff
        return vec
