"""One crossing's mapping cone and the audit of its long exact sequence."""

import random

import numpy as np
import pytest

from khovanov_cables.braids import BraidWord, braid_closure, random_braid
from khovanov_cables.chain_algebra import HomologySpace, ScalarComplex, induced_matrix, rank
from khovanov_cables.cobordism import (
    ConeSlices,
    TriangleReport,
    cone_from_cube,
    cone_over_crossing,
    les_report,
    theory_label,
)
from khovanov_cables.frobenius import (
    bar_natan_deformation,
    khovanov,
    lee_deformation,
)


def cl(*letters, strands=2):
    return braid_closure(BraidWord(strands, tuple(letters)))


THEORIES = [khovanov(3), lee_deformation(3), bar_natan_deformation(3)]


def test_triangle_exactness_on_small_suite():
    suite = [cl(1), cl(1, 1), cl(1, 1, 1), cl(-1, -1), cl(1, -2, 1, -2, strands=3), cl(-1, -1, -1)]
    for th in THEORIES:
        for D in suite:
            for cid in sorted(D.crossings):
                rep = les_report(cone_over_crossing(D, th, cid))
                assert rep.ok, (theory_label(th), cid, rep.failures)
                assert rep.checks > 0


def nonzero_les_rows(cone) -> dict:
    rep = les_report(cone)
    assert rep.ok, rep.failures
    out = {}
    for bucket in rep.buckets:
        rows = [row for row in bucket["rows"] if any(row[1:])]
        if rows:
            out[bucket["q"]] = rows
    return out


def test_cone_routes_agree():
    th = khovanov(3)
    for D in [cl(1, 1), cl(1, 1, 1)]:
        cid = max(D.crossings)
        a = cone_over_crossing(D, th, cid)
        b = cone_from_cube(D, th, cid)
        for side in ("sub_complex", "quot_complex"):
            ca = getattr(a, side)()
            cb = getattr(b, side)()
            ca.simplify()
            cb.simplify()
            assert ca.homology_dims() == cb.homology_dims(), side
        assert les_report(b).ok
    # the scan keeps fewer generators, so only rows with a nonzero entry compare
    rng = random.Random(4242)
    for th in (khovanov(3), lee_deformation(3), bar_natan_deformation(3)):
        for _ in range(24):
            w = random_braid(rng, rng.choice([2, 3]), rng.randint(1, 5))
            D = braid_closure(w)
            cid = rng.choice(sorted(D.crossings))
            scanned = nonzero_les_rows(cone_over_crossing(D, th, cid))
            assert scanned == nonzero_les_rows(cone_from_cube(D, th, cid)), (th, w, cid)


def test_exactness_failure_is_detected():
    # a wrong structure map must trip the rank bookkeeping; the zero map
    # is a chain map, so nothing downstream can assert its way past it
    th = khovanov(3)
    D = cl(1, 1)
    cone = cone_over_crossing(D, th, max(D.crossings))
    assert les_report(cone).ok
    cone.include = lambda v: {}
    rep = les_report(cone)
    assert not rep.ok and rep.failures


def test_les_report_flags_a_composite_that_is_not_zero():
    # two classes in degree 0 and no differential; a projection that keeps
    # the subcomplex part leaves every dimension count right, so only the
    # project-include composite can catch it
    cx = ScalarComplex(3)
    s = cx.add_generator(0, 0)
    t = cx.add_generator(0, 0)
    cone = ConeSlices(khovanov(3), cx, frozenset({s}), frozenset({t}))
    assert les_report(cone).ok
    cone.project = lambda v: {t: (v.get(s, 0) + v.get(t, 0)) % 3}
    rep = les_report(cone)
    assert rep.failures == [(0, 0, "project-include", None, None)]


@pytest.mark.parametrize(
    "connect, composite",
    [
        # u spans H_0 of the cone, so the quotient class it projects to must
        # die under the connecting map
        (lambda t, u, s, w: lambda v: {s: v.get(u, 0)}, "connect-project"),
        # s is a boundary in the cone, w is not: a connecting map into w
        # survives the inclusion
        (lambda t, u, s, w: lambda v: {w: v.get(t, 0)}, "include-connect"),
    ],
    ids=["connect-project", "include-connect"],
)
def test_les_report_flags_a_connecting_composite_that_is_not_zero(connect, composite):
    # quotient t, u in degree 0, sub s, w in degree 1, and d(t) = s: the
    # connecting map t -> s has rank 1, and so has each replacement, which
    # keeps every dimension count right
    cx = ScalarComplex(3)
    t, u, s, w = (cx.add_generator(h, 0) for h in (0, 0, 1, 1))
    cx.add_entry(t, s, 1)
    cone = ConeSlices(khovanov(3), cx, frozenset({s, w}), frozenset({t, u}))
    assert les_report(cone).ok
    cone.connect = connect(t, u, s, w)
    assert les_report(cone).failures == [(0, 0, composite, None, None)]


def test_exactness_failure_is_detected_on_a_cube_cone():
    th = khovanov(3)
    D = cl(1, 1)
    cone = cone_from_cube(D, th, max(D.crossings))
    assert les_report(cone).ok
    cone.include = lambda v: {}
    rep = les_report(cone)
    assert not rep.ok and rep.failures


# -- the reduction within each side of a cone -------------------------------


def arr(M):
    return np.array(M, dtype=np.int64).reshape(M.shape)


def dense_les_report(cone):
    """The long-exact-sequence audit on the unreduced cone, kept as the
    oracle for les_report; its composites are numpy products."""
    cx = cone.cx
    p = cx.p
    rep = TriangleReport(label=theory_label(cone.theory))
    if cx.q_exact:
        qs = sorted({q for (_, q) in cx.grading.values()})
        groups = [
            (q, {g for g, (_, qq) in cx.grading.items() if qq == q})
            for q in qs
        ]
    else:
        groups = [(None, set(cx.grading))]

    for q, gens in groups:
        amb = cx.restrict(gens)
        sub = cx.restrict(gens & cone.sub_ids)
        quo = cx.restrict(gens & cone.quot_ids)
        hs = {h for (h, _) in amb.grading.values()}
        if not hs:
            continue
        lo, hi = min(hs) - 1, max(hs) + 1
        A = {h: HomologySpace(amb, h) for h in range(lo, hi + 1)}
        S = {h: HomologySpace(sub, h) for h in range(lo, hi + 1)}
        Q = {h: HomologySpace(quo, h) for h in range(lo, hi + 1)}
        Mi = {h: induced_matrix(cone.include, S[h], A[h]) for h in range(lo, hi + 1)}
        Mp = {h: induced_matrix(cone.project, A[h], Q[h]) for h in range(lo, hi + 1)}
        Md = {h: induced_matrix(cone.connect, Q[h], S[h + 1]) for h in range(lo, hi)}
        ri = {h: rank(Mi[h], p) for h in Mi}
        rp = {h: rank(Mp[h], p) for h in Mp}
        rd = {h: rank(Md[h], p) for h in Md}
        rows = []
        for h in range(lo, hi + 1):
            for name, lhs, rhs in (
                ("sub-dim", S[h].dim, ri[h] + rd.get(h - 1, 0)),
                ("total-dim", A[h].dim, ri[h] + rp[h]),
                ("quot-dim", Q[h].dim, rp[h] + rd.get(h, 0)),
            ):
                rep.checks += 1
                if lhs != rhs:
                    rep.failures.append((q, h, name, lhs, rhs))
            if np.any((arr(Mp[h]) @ arr(Mi[h])) % p):
                rep.failures.append((q, h, "project-include", None, None))
            rep.checks += 1
            if h in Md:
                if np.any((arr(Md[h]) @ arr(Mp[h])) % p):
                    rep.failures.append((q, h, "connect-project", None, None))
                if np.any((arr(Mi[h + 1]) @ arr(Md[h])) % p):
                    rep.failures.append((q, h, "include-connect", None, None))
                rep.checks += 2
            rows.append((h, S[h].dim, A[h].dim, Q[h].dim, ri[h], rp[h], rd.get(h)))
        rep.buckets.append({"q": q, "rows": rows})
    return rep


def random_cones(seed, count):
    """Seeded (closure, crossing) pairs of 2-3 strands and 1-6 letters."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        D = braid_closure(random_braid(rng, rng.choice([2, 3]), rng.randint(1, 6)))
        out.append((D, rng.choice(sorted(D.crossings))))
    return out


@pytest.mark.parametrize("th", THEORIES, ids=theory_label)
def test_les_report_matches_the_unreduced_report(th):
    # all-zero rows and buckets whose reduced block is empty included
    for D, cid in random_cones(6061, 14):
        for route in (cone_from_cube, cone_over_crossing):
            cone = route(D, th, cid)
            want = dense_les_report(cone)
            got = les_report(cone)
            assert got.label == want.label
            assert got.buckets == want.buckets, (route.__name__, cid)
            assert (got.checks, got.failures) == (want.checks, want.failures)


@pytest.mark.parametrize("th", THEORIES, ids=theory_label)
def test_side_respecting_simplify_keeps_the_cone(th, monkeypatch):
    pairs = []
    eliminate = ScalarComplex._eliminate

    def recorded(cx, x, y, u):
        pairs.append((x, y))
        return eliminate(cx, x, y, u)

    monkeypatch.setattr(ScalarComplex, "_eliminate", recorded)
    shrunk = 0
    for D, cid in random_cones(7177, 12):
        cone = cone_from_cube(D, th, cid)
        cx = cone.cx.copy()
        pairs.clear()
        cx.simplify(side=cone.sub_ids)
        sub = cone.sub_ids.intersection(cx.grading)
        quot = cone.quot_ids.intersection(cx.grading)
        for g in sub:
            assert all(t in sub for t in cx.cols[g]), "an entry left the 1-side"
        # an unrestricted simplify leaves a q-exact cone no entries at all,
        # so the eliminated pairs themselves must each stay on one side
        for x, y in pairs:
            assert (x in cone.sub_ids) == (y in cone.sub_ids), "a step crossed sides"
        assert cx.restrict(sub).homology_dims() == cone.sub_complex().homology_dims()
        assert cx.restrict(quot).homology_dims() == cone.quot_complex().homology_dims()
        assert cx.homology_dims() == cone.cx.homology_dims()
        shrunk += cx.dim < cone.cx.dim
    assert shrunk


def test_reduced_keeps_a_structure_map_set_on_the_instance():
    D = cl(1, 1, 1)
    cone = cone_from_cube(D, khovanov(3), max(D.crossings))
    dim = cone.cx.dim
    zero = lambda v: {}
    cone.include = zero
    red = cone.reduced()
    assert red.include is zero and red.cx is not cone.cx
    assert red.sub_ids | red.quot_ids == set(red.cx.grading) and red.cx.dim < dim
    assert cone.cx.dim == dim
