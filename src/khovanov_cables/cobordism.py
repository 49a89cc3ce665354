"""Band surgeries on link diagrams and the chain maps they induce.

A band is attached by plumbing: the two feet slide together along the
joining arc and are replaced by one extra crossing whose smoothings are
the original link and the surgered one.  For a flat band the original
link is the 0-smoothing and the surgery the 1-smoothing.  A half-twisted
band keeps the same projection with the opposite crossing decoration;
there the whole diagram is already the surgered link and the original
sits inside it as the 1-smoothing.  Either way every chain-level
question about the band map becomes a question about one crossing of
one diagram.

The same one-crossing viewpoint drives the skein triangles.  Splitting
a complex at a chosen crossing exhibits it as a mapping cone, and this
module computes the three homology-level maps of the resulting long
exact sequence together with their rank bookkeeping.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

from .chain_algebra import (
    HomologySpace,
    ScalarComplex,
    Vec,
    induced_matrix,
    inv_mod,
    product_is_zero,
    rank,
)
from .cube import CubeComplex
from .diagrams import LinkDiagram, _make_coherent, incoming, oriented_smoothing
from .frobenius import (
    Theory,
    bar_natan_deformation,
    khovanov,
    lee_deformation,
)
from .planar import Embedding
from .scanning import scan_complex

Foot = tuple[str, int]

# slot layout of the plumbed crossing: the first foot enters at 2 and
# leaves at 3, the second enters at 0 and leaves at 1, so the two feet
# run anti-parallel through the corridor
_A_IN, _A_OUT, _B_IN, _B_OUT = 2, 3, 0, 1


def theory_label(t: Theory) -> str:
    if (t.h, t.t) == (0, 0):
        return "khovanov"
    if (t.h, t.t) == (0, 1):
        return "lee"
    return "bar_natan"


@dataclass(frozen=True)
class BandSpec:
    """A band to attach: two feet plus a half-twist flag.

    Each foot is ("edge", eid) or ("loop", lid).  Naming the same edge
    twice marks two points of it in tail-to-head order; naming the same
    loop twice attaches both feet to that circle.  Feet are spliced so
    they run anti-parallel with respect to the base orientation.  With
    half_twist the band core carries a half twist, which flips the
    band's orientability class whenever both feet sit on one component.
    """

    foot_a: Foot
    foot_b: Foot
    half_twist: bool = False


@dataclass
class PlumbedBand:
    """A band recorded as one extra crossing of a bigger diagram.

    ident names the smoothing of that crossing which restores the base
    link (0 for a flat band, 1 for a half-twisted one).  For a flat band
    the other smoothing performs the surgery; for a twisted band the
    diagram itself is the surgered link.  edge_children / loop_children
    map every base edge and consumed loop to its pieces in the new
    diagram, each with a flag marking reversal against the base
    direction.
    """

    diagram: LinkDiagram
    crossing: int
    base: LinkDiagram
    spec: BandSpec
    ident: int
    edge_children: dict[int, tuple[tuple[int, bool], ...]]
    loop_children: dict[int, tuple[tuple[int, bool], ...]]


def _foot_ok(D: LinkDiagram, foot: Foot) -> None:
    kind, oid = foot
    if kind == "edge":
        if oid not in D.edges:
            raise ValueError("band foot names a missing edge")
    elif kind == "loop":
        if oid not in D.loops:
            raise ValueError("band foot names a missing loop")
    else:
        raise ValueError("band foot must be ('edge', id) or ('loop', id)")


def _face_guards(D: LinkDiagram, band: BandSpec) -> None:
    """Feet involving free circles must see each other across one face;
    the Euler audit cannot catch a circle quietly teleported into the
    wrong region, so this is checked against the source embedding."""
    a_kind, a_id = band.foot_a
    b_kind, b_id = band.foot_b
    if a_kind == "edge" and b_kind == "edge":
        return
    if a_kind == "loop" and b_kind == "loop" and a_id == b_id:
        return
    emb = Embedding(D)

    def loop_face(lid):
        h = D.loops[lid].host
        return None if h is None else emb.left_face(h)

    if a_kind == "loop" and b_kind == "loop":
        if loop_face(a_id) != loop_face(b_id):
            raise ValueError("band feet not joinable in the plane")
        return
    eid = a_id if a_kind == "edge" else b_id
    lid = b_id if b_kind == "loop" else a_id
    faces = {emb.left_face((eid, 0)), emb.left_face((eid, 1))}
    f = loop_face(lid)
    if f is None:
        root = D.piece_of_crossing()[D.edges[eid].ends[0][0]]
        own, host = D.piece_data[root]
        if host is not None or emb.left_face(own) not in faces:
            raise ValueError("band feet not joinable in the plane")
    elif f not in faces:
        raise ValueError("band feet not joinable in the plane")


def plumb_band(D: LinkDiagram, band: BandSpec) -> PlumbedBand:
    """Replace the band by a single crossing of an enlarged diagram.

    Raises ValueError when the feet cannot be joined by a flat corridor
    in the plane (the attempted layout fails the planarity audit).
    """
    _foot_ok(D, band.foot_a)
    _foot_ok(D, band.foot_b)
    _face_guards(D, band)
    a_kind, a_id = band.foot_a
    b_kind, b_id = band.foot_b

    if a_kind == "edge" and b_kind == "edge" and a_id != b_id:
        piece_of = D.piece_of_crossing()
        ra = piece_of[D.edges[a_id].ends[0][0]]
        rb = piece_of[D.edges[b_id].ends[0][0]]
        if ra != rb:
            raise ValueError("band feet lie in separate pieces")

    E = D.copy()
    ident = 1 if band.half_twist else 0
    c = E.new_crossing(0 if band.half_twist else 1)

    edge_children: dict[int, list[tuple[int, bool]]] = {}
    loop_children: dict[int, list[tuple[int, bool]]] = {}
    dart_remap: dict[tuple[int, int], tuple[int, int]] = {}

    def split_edge(eid: int, s_in: int, s_out: int) -> None:
        t, h = E.edges[eid].ends
        del E.edges[eid]
        e1 = E.new_edge(t, (c, s_in))
        e2 = E.new_edge((c, s_out), h)
        edge_children[eid] = [(e1, False), (e2, False)]
        dart_remap[(eid, 0)] = (e1, 0)
        dart_remap[(eid, 1)] = (e2, 1)

    pure_loops = a_kind == "loop" and b_kind == "loop"
    loop_hosts = []
    if a_kind == "edge" and b_kind == "edge" and a_id == b_id:
        t, h = E.edges[a_id].ends
        del E.edges[a_id]
        p1 = E.new_edge(t, (c, _A_IN))
        mid = E.new_edge((c, _A_OUT), (c, _B_IN))
        p3 = E.new_edge((c, _B_OUT), h)
        edge_children[a_id] = [(p1, False), (mid, False), (p3, False)]
        dart_remap[(a_id, 0)] = (p1, 0)
        dart_remap[(a_id, 1)] = (p3, 1)
    elif a_kind == "loop" and b_kind == "loop" and a_id == b_id:
        loop_hosts.append(E.loops[a_id].host)
        arc1 = E.new_edge((c, _A_OUT), (c, _B_IN))
        arc2 = E.new_edge((c, _B_OUT), (c, _A_IN))
        loop_children[a_id] = [(arc1, False), (arc2, False)]
        del E.loops[a_id]
    else:
        if a_kind == "edge":
            split_edge(a_id, _A_IN, _A_OUT)
        else:
            loop_hosts.append(E.loops[a_id].host)
            arc = E.new_edge((c, _A_OUT), (c, _A_IN))
            loop_children[a_id] = [(arc, False)]
            del E.loops[a_id]
        if b_kind == "edge":
            split_edge(b_id, _B_IN, _B_OUT)
        else:
            loop_hosts.append(E.loops[b_id].host)
            arc = E.new_edge((c, _B_OUT), (c, _B_IN))
            loop_children[b_id] = [(arc, False)]
            del E.loops[b_id]

    for e in D.edges:
        if e not in edge_children:
            edge_children[e] = [(e, False)]

    E._move_darts(dart_remap)

    em = {e: (e, False) for e in E.edges}
    _make_coherent(E, em)

    if pure_loops:
        # the crossing founds a new piece; the corridor ran through the
        # unenclosed side of the loops, which pins down the face shapes
        emb = Embedding(E)
        f = [emb.sector(c, s) for s in range(4)]
        if a_id == b_id:
            ok = f[0] == f[2] and len({f[0], f[1], f[3]}) == 3
        else:
            ok = f[1] == f[3] and len({f[0], f[1], f[2]}) == 3
        if not ok:
            raise ValueError("band feet not joinable in the plane")
        outer = f[1]
        own = None
        for eid in sorted(
            ne for kids in loop_children.values() for ne, _ in kids
        ):
            for tw in (0, 1):
                if emb.left_face((eid, tw)) == outer:
                    own = (eid, tw)
                    break
            if own:
                break
        assert own is not None
        host = loop_hosts[0]
        if host is not None and em[host[0]][1]:
            host = (host[0], host[1] ^ 1)
        if host is None:
            # the loop floated in the unbounded region; if an edged piece
            # already claims it, sit next to that piece rather than fight
            # over the single outer face
            for k in sorted(E.piece_data):
                own2, host2 = E.piece_data[k]
                if k != c and host2 is None:
                    host = own2
                    break
        E.piece_data[c] = (own, host)

    try:
        E.validate()
    except AssertionError as exc:
        raise ValueError("band feet not joinable in the plane") from exc

    pb = PlumbedBand(
        diagram=E,
        crossing=c,
        base=D,
        spec=band,
        ident=ident,
        edge_children={
            e: tuple((ne, r != em[ne][1]) for ne, r in kids)
            for e, kids in edge_children.items()
        },
        loop_children={
            l: tuple((ne, r != em[ne][1]) for ne, r in kids)
            for l, kids in loop_children.items()
        },
    )

    try:
        R, _ = E.resolve_crossing(c, ident)
        assert len(R.components()) == len(D.components()), (
            "identity smoothing changed the component count"
        )
    except NotImplementedError:
        pass
    return pb


# -- orientations across the band ----------------------------------------


def reversed_sets(
    pb: PlumbedBand, flips: frozenset[int]
) -> tuple[frozenset[int], frozenset[int]]:
    """Translate an orientation of the base diagram, given as the set of
    reversed components, into the reversed edges and loops of the plumbed
    diagram."""
    base_e, base_l = pb.base.reversed_parts(flips)
    rev_e = {ne for e, kids in pb.edge_children.items() for ne, r in kids if (e in base_e) != r}
    rev_e |= {ne for l, kids in pb.loop_children.items() for ne, r in kids if (l in base_l) != r}
    return frozenset(rev_e), frozenset(l for l in base_l if l in pb.diagram.loops)


def band_compatible(pb: PlumbedBand, rev_edges: frozenset[int]) -> bool:
    """Whether the surgered strands run coherently under the orientation
    described by rev_edges."""
    inc = incoming(pb.diagram.crossings[pb.crossing], rev_edges)
    if pb.ident == 0:
        prs = ((1, 2), (3, 0))  # the surgery smoothing's joins
    else:
        prs = ((0, 2), (1, 3))  # the surgered strands are the diagonals
    return all(inc[a] != inc[b] for a, b in prs)


def compatible_flips(pb: PlumbedBand) -> list[frozenset[int]]:
    n = len(pb.base.components())
    out = []
    for mask in range(1 << n):
        fl = frozenset(i for i in range(n) if mask >> i & 1)
        if band_compatible(pb, reversed_sets(pb, fl)[0]):
            out.append(fl)
    return out


def band_orientable(pb: PlumbedBand) -> bool:
    return bool(compatible_flips(pb))


def surgered_diagram(pb: PlumbedBand) -> LinkDiagram:
    """The diagram after the surgery: the twisted plumb already is it,
    the flat plumb resolves its crossing the other way."""
    if pb.ident == 1:
        return pb.diagram.copy()
    R, _ = pb.diagram.resolve_crossing(pb.crossing, 1)
    return R


# -- the induced map on deformed homology --------------------------------


def _proportionality(cy: list[int], cx1: list[int], p: int) -> int | None:
    """lambda with cy == lambda * cx1 mod p, or None when there is none
    (a zero target counts as none)."""
    j = next((j for j, c in enumerate(cx1) if c % p), None)
    if j is None:
        return None
    lam = (cy[j] * inv_mod(cx1[j], p)) % p
    if any((y - lam * x) % p for y, x in zip(cy, cx1)):
        return None
    return lam


@dataclass
class BandImage:
    """Fate of one canonical generator under the band map."""

    flips: frozenset[int]
    compatible: bool
    h: int
    image_coords: list[int]
    target_coords: list[int] | None
    scale: int | None

    @property
    def image_zero(self) -> bool:
        return not any(self.image_coords)


def band_images(
    D: LinkDiagram, band: BandSpec, theory: Theory
) -> tuple[PlumbedBand, list[BandImage]]:
    """Push every canonical generator of the base diagram through the
    band map and read off its homology class on the surgered side.

    For a compatible orientation the class is compared against the
    surgered diagram's own canonical generator; target_coords and scale
    record that comparison.  Needs a deformed theory to mean anything.
    """
    pb = plumb_band(D, band)
    cube = CubeComplex(pb.diagram, theory, frozenset())
    i = cube.cids.index(pb.crossing)
    p = theory.p

    if pb.ident == 0:
        keep = {g for (bits, _), g in cube.gid.items() if bits[i] == 1}
        tgt = cube.cx.restrict(keep)
    else:
        keep = None
        tgt = cube.cx.copy()

    # every orientation's image y, and target x1 when compatible, rides
    # through one simplify as a tracked row
    cases = []
    n = len(D.components())
    for mask in range(1 << n):
        flips = frozenset(k for k in range(n) if mask >> k & 1)
        rev_e, rev_l = reversed_sets(pb, flips)
        compat = band_compatible(pb, rev_e)
        bits0 = tuple(
            pb.ident
            if cid == pb.crossing
            else oriented_smoothing(pb.diagram.crossings[cid], rev_e)
            for cid in cube.cids
        )
        x0 = cube.state_class(bits0, rev_e, rev_l)
        if pb.ident == 0:
            y = cube.cx.apply_d(x0)
            assert all(g in keep for g in y), "image escaped the surgery side"
            if y:
                h = cube.cx.grading[next(iter(y))][0]
            else:
                h = cube.cx.grading[next(iter(x0))][0] + 1
        else:
            y = x0
            h = cube.cx.grading[next(iter(y))][0]
        refs = [tgt.track(y)]
        if compat:
            if pb.ident == 0:
                x1 = cube.state_class(bits0[:i] + (1,) + bits0[i + 1 :], rev_e, rev_l)
            else:
                x1 = cube.oriented_class(rev_e, rev_l)
            for g in x1:
                assert cube.cx.grading[g][0] == h, (
                    "band image and target sit in different degrees"
                )
            refs.append(tgt.track(x1))
        cases.append((flips, compat, h, refs))

    tgt.simplify()
    spaces: dict[int, HomologySpace] = {}
    out = []
    for flips, compat, h, refs in cases:
        if h not in spaces:
            spaces[h] = HomologySpace(tgt, h)
        cs = spaces[h].coords([tgt.cols[ref] for ref in refs]).T
        cy = cs[0]
        if compat:
            cx1 = cs[1]
            out.append(
                BandImage(flips, True, h, cy, cx1, _proportionality(cy, cx1, p))
            )
        else:
            out.append(BandImage(flips, False, h, cy, None, None))
    return pb, out


# -- one crossing as a mapping cone --------------------------------------


@dataclass
class ConeSlices:
    """A complex split at one crossing: the 1-smoothing side is a
    subcomplex, the 0-smoothing side the quotient.  All three share the
    ambient generator ids, so inclusion is the identity on coordinates,
    projection just drops the subcomplex part, and the connecting map is
    the ambient differential applied to a quotient cycle.

    reduced() is the same cone after Gaussian elimination within each
    side; its long exact sequence is isomorphic to this one.  les_report
    computes on reduced() but takes its gradings from the cone given."""

    theory: Theory
    cx: ScalarComplex
    sub_ids: frozenset[int]
    quot_ids: frozenset[int]

    def sub_complex(self) -> ScalarComplex:
        return self.cx.restrict(self.sub_ids)

    def quot_complex(self) -> ScalarComplex:
        return self.cx.restrict(self.quot_ids)

    def include(self, vec: Vec) -> Vec:
        return dict(vec)

    def project(self, vec: Vec) -> Vec:
        return {g: u for g, u in vec.items() if g in self.quot_ids}

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
        out.quot_ids = self.quot_ids.intersection(cx.grading)
        out._check_sub_closed()
        return out


def _crossing_ok(D: LinkDiagram, cid: int) -> None:
    if cid not in D.crossings:
        raise ValueError(f"crossing {cid} is not in the diagram")


def cone_over_crossing(
    D: LinkDiagram,
    theory: Theory,
    cid: int,
    flips: frozenset[int] = frozenset(),
) -> ConeSlices:
    """Scan the diagram, attaching `cid` last, and package the result as a
    cone.  Elimination at `cid` stays within each smoothing's side, so
    the sub and quotient blocks come out already reduced.  Scales to
    diagrams far beyond the full cube."""
    _crossing_ok(D, cid)
    res = scan_complex(D, theory, flips=flips, split_at=cid)
    sub = frozenset(res.split["one"])
    quot = frozenset(res.split["zero"])
    assert sub.isdisjoint(quot)
    assert sub | quot == set(res.complex.grading)
    cone = ConeSlices(theory, res.complex, sub, quot)
    cone._check_sub_closed()
    return cone


def cone_from_cube(
    D: LinkDiagram,
    theory: Theory,
    cid: int,
    flips: frozenset[int] = frozenset(),
) -> ConeSlices:
    """Cube-route cone for small diagrams; mainly a cross-check."""
    _crossing_ok(D, cid)
    cube = CubeComplex(D, theory, flips)
    i = cube.cids.index(cid)
    sub = frozenset(g for (bits, _), g in cube.gid.items() if bits[i] == 1)
    quot = frozenset(g for (bits, _), g in cube.gid.items() if bits[i] == 0)
    return ConeSlices(theory, cube.cx, sub, quot)


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
        quo = cx.restrict(gens & cone.quot_ids)
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


# -- skein triangles -----------------------------------------------------


def block_shifts(
    D: LinkDiagram,
    cid: int,
    flips: frozenset[int] = frozenset(),
    resolved: dict[int, LinkDiagram | None] | None = None,
) -> dict[int, tuple[int, int] | None]:
    """Grading shifts identifying each smoothing's standalone complex
    with its block of the ambient one: standalone (h, q) plus the shift
    is the ambient grading.  None where the smoothing cannot be
    materialized as a diagram."""
    out: dict[int, tuple[int, int] | None] = {}
    base_m = D.n_minus(flips)
    base_w = D.n_plus(flips) - 2 * base_m
    for r in (0, 1):
        if resolved is not None:
            R = resolved.get(r)
        else:
            try:
                R, _ = D.resolve_crossing(cid, r)
            except NotImplementedError:
                R = None
        if R is None:
            out[r] = None
            continue
        dh = r + R.n_minus() - base_m
        dq = r + base_w - (R.n_plus() - 2 * R.n_minus())
        out[r] = (dh, dq)
    return out


def _nature(n_from: int, n_to: int) -> str:
    d = n_to - n_from
    assert abs(d) <= 1, "band changed the component count by more than one"
    if d == 1:
        return "split"
    if d == -1:
        return "merge"
    return "nonorientable"


@dataclass
class SkeinTriangle:
    """One crossing of a diagram viewed as the seat of a triangle.

    The oriented smoothing keeps the orientation of the ambient diagram;
    the other one is the unoriented smoothing.  The cone over the
    crossing is built once in each of Khovanov, Lee and Bar-Natan theory
    mod p; block shifts translate each smoothing's standalone gradings
    into the ambient ones.
    """

    diagram: LinkDiagram
    crossing: int
    flips: frozenset[int]
    sign: int
    oriented_r: int
    cones: dict[str, ConeSlices]
    resolved: dict[int, LinkDiagram | None]
    shifts: dict[int, tuple[int, int] | None]

    @property
    def oriented_diagram(self) -> LinkDiagram | None:
        return self.resolved[self.oriented_r]

    @property
    def unoriented_diagram(self) -> LinkDiagram | None:
        return self.resolved[1 - self.oriented_r]

    def natures(self) -> tuple[str, str, str] | None:
        """Kinds of the three arrows in cyclic order: into the diagram
        from its unoriented smoothing, out to the oriented smoothing,
        and between the smoothings."""
        d_o = self.oriented_diagram
        d_u = self.unoriented_diagram
        if d_o is None or d_u is None:
            return None
        n = len(self.diagram.components())
        n_o = len(d_o.components())
        n_u = len(d_u.components())
        return (
            _nature(n_u, n),
            _nature(n, n_o),
            _nature(n_o, n_u),
        )


def skein_triangle(
    D: LinkDiagram,
    cid: int,
    flips: frozenset[int] = frozenset(),
    p: int = 3,
) -> SkeinTriangle:
    _crossing_ok(D, cid)
    sign = D.crossing_sign(cid, flips)
    ro = 0 if sign > 0 else 1
    resolved: dict[int, LinkDiagram | None] = {}
    for r in (0, 1):
        try:
            resolved[r] = D.resolve_crossing(cid, r)[0]
        except NotImplementedError:
            resolved[r] = None
    shifts = block_shifts(D, cid, flips, resolved=resolved)
    cones = {
        theory_label(t): cone_over_crossing(D, t, cid, flips=flips)
        for t in (khovanov(p), lee_deformation(p), bar_natan_deformation(p))
    }
    return SkeinTriangle(
        diagram=D,
        crossing=cid,
        flips=flips,
        sign=sign,
        oriented_r=ro,
        cones=cones,
        resolved=resolved,
        shifts=shifts,
    )


def exactness_check(t: SkeinTriangle) -> dict[str, TriangleReport]:
    """Audit the long exact sequence of the triangle in each of its
    three theories."""
    return {name: les_report(cone) for name, cone in t.cones.items()}
