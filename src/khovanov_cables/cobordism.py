"""One crossing of a diagram as a mapping cone, and its long exact sequence.

Splitting a complex at a chosen crossing exhibits it as a mapping cone:
the 1-smoothing side is a subcomplex, the 0-smoothing side the quotient.
Every one-crossing skein triangle that the induction harness audits is
such a cone.  This module builds the cone by scanning or from the state
cube, and audits the three homology-level maps of its long exact
sequence together with their rank bookkeeping.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

from .chain_algebra import (
    HomologySpace,
    ScalarComplex,
    Vec,
    induced_matrix,
    product_is_zero,
    rank,
)
from .cube import CubeComplex
from .diagrams import LinkDiagram
from .frobenius import Theory
from .scanning import ScanResult, scan_complex


def theory_label(t: Theory) -> str:
    if (t.h, t.t) == (0, 0):
        return "khovanov"
    if (t.h, t.t) == (0, 1):
        return "lee"
    return "bar_natan"


# -- one crossing as a mapping cone --------------------------------------


@dataclass
class ConeSlices:
    """A complex split at one crossing: the 1-smoothing side, the ids in
    sub_ids, is a subcomplex, and the 0-smoothing side, every other id,
    the quotient.  All three share the ambient generator ids, so
    inclusion is the identity on coordinates, projection just drops the
    subcomplex part, and the connecting map is the ambient differential
    applied to a quotient cycle.

    reduced() is the same cone after Gaussian elimination within each
    side; its long exact sequence is isomorphic to this one.  les_report
    computes on reduced() but takes its gradings from the cone given."""

    theory: Theory
    cx: ScalarComplex
    sub_ids: frozenset[int]

    @property
    def quot_ids(self) -> frozenset[int]:
        return frozenset(self.cx.grading.keys() - self.sub_ids)

    def sub_complex(self) -> ScalarComplex:
        return self.cx.restrict(self.sub_ids)

    def quot_complex(self) -> ScalarComplex:
        return self.cx.restrict(self.quot_ids)

    def include(self, vec: Vec) -> Vec:
        return dict(vec)

    def project(self, vec: Vec) -> Vec:
        return {g: u for g, u in vec.items() if g not in self.sub_ids}

    def connect(self, vec: Vec) -> Vec:
        y = self.cx.apply_d(vec)
        assert all(g in self.sub_ids for g in y), "connecting map left the subcomplex"
        return y

    def _check_sub_closed(self) -> None:
        """Assert that no entry of d leaves the 1-side."""
        for g in self.sub_ids:
            assert all(t in self.sub_ids for t in self.cx.cols[g]), (
                "differential escaped the 1-smoothing side"
            )

    def reduced(self) -> "ConeSlices":
        """A shallow copy whose complex is simplified within each side.

        Only entries with both ends on one side are eliminated, so the
        1-side stays a subcomplex and the 0-side its quotient.  Structure
        maps set on this instance carry over to the copy.
        """
        cx = self.cx.copy()
        cx.simplify(side=self.sub_ids)
        out = copy.copy(self)
        out.cx = cx
        out.sub_ids = self.sub_ids.intersection(cx.grading)
        out._check_sub_closed()
        return out


def cone_over_crossing(D: LinkDiagram, theory: Theory, cid: int) -> ConeSlices:
    """Scan the diagram, splitting it at `cid`, and package the result as
    a cone.  From the attach of `cid` on, elimination stays within each
    smoothing's side, so the sub and quotient blocks come out already
    reduced.  Scales to diagrams far beyond the full cube."""
    return split_cone(theory, scan_complex(D, theory, split_at=cid))


def split_cone(theory: Theory, res: ScanResult) -> ConeSlices:
    """The cone of a split scan: its one side is the subcomplex."""
    cone = ConeSlices(theory, res.complex, res.sub)
    cone._check_sub_closed()
    return cone


def cone_from_cube(D: LinkDiagram, theory: Theory, cid: int) -> ConeSlices:
    """Cube-route cone for small diagrams; mainly a cross-check."""
    if cid not in D.crossings:
        raise ValueError(f"crossing {cid} is not in the diagram")
    cube = CubeComplex(D, theory)
    i = cube.cids.index(cid)
    sub = frozenset(
        g
        for bits, circles in cube.circles.items() if bits[i]
        for g in range(cube.first[bits], cube.first[bits] + (1 << len(circles)))
    )
    return ConeSlices(theory, cube.cx, sub)


# -- the long exact sequence of a cone -----------------------------------


@dataclass
class TriangleReport:
    """Per-grading dimension and rank audit of a cone's homology
    sequence.  Exactness holds when every alternating dimension relation
    and every consecutive composite comes out right; failures list the
    grading locations that did not."""

    label: str
    buckets: list = field(default_factory=list)
    checks: int = 0
    failures: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def _check(rep: TriangleReport, q, h, name: str, lhs, rhs) -> None:
    rep.checks += 1
    if lhs != rhs:
        rep.failures.append((q, h, name, lhs, rhs))


def les_report(cone: ConeSlices) -> TriangleReport:
    """Verify, per grading, the rank conditions of the long exact
    sequence of the cone: the alternating dimension bounds and the
    vanishing of consecutive composites, at homology level.

    A q-exact theory is audited in each quantum grading separately; a
    deformed theory in homological grading only.  The gradings and each
    one's range of h are those of the cone as given; the homology and
    the induced maps are computed on cone.reduced(), whose sequence is
    isomorphic, so every rank is the same.
    """
    spans: dict = {}  # q (None when deformed) -> (lowest h, highest h)
    for h, q in cone.cx.grading.values():
        key = q if cone.cx.q_exact else None
        lo, hi = spans.get(key, (h, h))
        spans[key] = (min(lo, h), max(hi, h))
    cone = cone.reduced()
    cx = cone.cx
    p = cx.p
    rep = TriangleReport(label=theory_label(cone.theory))
    for q in sorted(spans):
        lo, hi = spans[q][0] - 1, spans[q][1] + 1
        gens = {g for g, (_, qq) in cx.grading.items() if q is None or qq == q}
        amb = cx.restrict(gens)
        sub = cx.restrict(gens & cone.sub_ids)
        quo = cx.restrict(gens - cone.sub_ids)
        A = {h: HomologySpace(amb, h) for h in range(lo, hi + 1)}
        S = {h: HomologySpace(sub, h) for h in range(lo, hi + 1)}
        Q = {h: HomologySpace(quo, h) for h in range(lo, hi + 1)}
        Mi = {
            h: induced_matrix(cone.include, S[h], A[h])
            for h in range(lo, hi + 1)
        }
        Mp = {
            h: induced_matrix(cone.project, A[h], Q[h])
            for h in range(lo, hi + 1)
        }
        Md = {
            h: induced_matrix(cone.connect, Q[h], S[h + 1])
            for h in range(lo, hi)
        }
        ri = {h: rank(Mi[h], p) for h in Mi}
        rp = {h: rank(Mp[h], p) for h in Mp}
        rd = {h: rank(Md[h], p) for h in Md}
        rows = []
        for h in range(lo, hi + 1):
            _check(
                rep, q, h, "sub-dim", S[h].dim, ri[h] + rd.get(h - 1, 0)
            )
            _check(rep, q, h, "total-dim", A[h].dim, ri[h] + rp[h])
            _check(rep, q, h, "quot-dim", Q[h].dim, rp[h] + rd.get(h, 0))
            if not product_is_zero(Mp[h], Mi[h], p):
                rep.failures.append((q, h, "project-include", None, None))
            rep.checks += 1
            if h in Md:
                if not product_is_zero(Md[h], Mp[h], p):
                    rep.failures.append((q, h, "connect-project", None, None))
                if not product_is_zero(Mi[h + 1], Md[h], p):
                    rep.failures.append((q, h, "include-connect", None, None))
                rep.checks += 2
            rows.append(
                (h, S[h].dim, A[h].dim, Q[h].dim, ri[h], rp[h], rd.get(h))
            )
        rep.buckets.append({"q": q, "rows": rows})
    return rep
