"""Band attachments, the maps they induce, and one-crossing triangles."""

import itertools
import random

import numpy as np
import pytest

from khovanov_cables.braids import BraidWord, braid_closure, random_braid
from khovanov_cables.chain_algebra import HomologySpace, ScalarComplex, induced_matrix, rank
from khovanov_cables.cobordism import (
    BandSpec,
    ConeSlices,
    TriangleReport,
    band_images,
    band_orientable,
    block_shifts,
    cone_from_cube,
    cone_over_crossing,
    exactness_check,
    les_report,
    plumb_band,
    skein_triangle,
    surgered_diagram,
    theory_label,
)
from khovanov_cables.cube import CubeComplex
from khovanov_cables.diagrams import LinkDiagram
from khovanov_cables.frobenius import (
    bar_natan_deformation,
    khovanov,
    lee_deformation,
)
from khovanov_cables.scanning import homology_table

UNKNOT = {(0, -1): 1, (0, 1): 1}
TWO_CIRCLES = {(0, -2): 1, (0, 0): 2, (0, 2): 1}
HOPF = {(0, 0): 1, (0, 2): 1, (2, 4): 1, (2, 6): 1}
TREFOIL = {(0, 1): 1, (0, 3): 1, (2, 5): 1, (3, 9): 1}


def cl(*letters, strands=2):
    return braid_closure(BraidWord(strands, tuple(letters)))


def two_circles():
    return LinkDiagram().with_free_loop().with_free_loop()


# -- plumbing ------------------------------------------------------------


def test_plumb_flat_band_between_circles():
    D = two_circles()
    la, lb = sorted(D.loops)
    pb = plumb_band(D, BandSpec(("loop", la), ("loop", lb)))
    pb.diagram.validate()
    assert pb.ident == 0 and pb.diagram.n_crossings == 1
    assert homology_table(pb.diagram, khovanov(3)) == UNKNOT
    S = surgered_diagram(pb)
    assert len(S.components()) == 1
    assert homology_table(S, khovanov(3)) == UNKNOT


def test_plumb_twisted_self_band_is_a_kink():
    D = LinkDiagram().with_free_loop()
    l0 = next(iter(D.loops))
    pb = plumb_band(D, BandSpec(("loop", l0), ("loop", l0), half_twist=True))
    pb.diagram.validate()
    assert pb.ident == 1 and pb.diagram.n_crossings == 1
    # the surgered link is the whole plumbed diagram: an unknot again
    assert homology_table(pb.diagram, khovanov(3)) == UNKNOT
    assert len(surgered_diagram(pb).components()) == 1
    assert not band_orientable(pb)


def test_plumb_preserves_the_base_link():
    # smoothing the band crossing the identity way restores the original
    T = cl(1, 1, 1)
    e = min(T.edges)
    for tw in (False, True):
        pb = plumb_band(T, BandSpec(("edge", e), ("edge", e), half_twist=tw))
        R, _ = pb.diagram.resolve_crossing(pb.crossing, pb.ident)
        assert homology_table(R, khovanov(3)) == TREFOIL


def test_plumb_rejects_bad_feet():
    D = two_circles()
    la = min(D.loops)
    with pytest.raises(ValueError):
        plumb_band(D, BandSpec(("loop", la), ("loop", 99)))
    with pytest.raises(ValueError):
        plumb_band(D, BandSpec(("arc", la), ("loop", la)))


def test_plumb_rejects_feet_in_separate_pieces():
    D = cl(1, 1, 1).disjoint_union(cl(1, 1))
    comp = D.component_of_edge()
    ea = min(D.edges)
    eb = max(e for e in D.edges if comp[e] != comp[ea])
    with pytest.raises(ValueError):
        plumb_band(D, BandSpec(("edge", ea), ("edge", eb)))


def test_plumb_rejects_parallel_banks():
    # the two closure arcs of a one-crossing unknot run parallel along
    # their shared face, so no flat corridor joins them
    K = cl(1)
    e0, e1 = sorted(K.edges)
    for tw in (False, True):
        with pytest.raises(ValueError):
            plumb_band(K, BandSpec(("edge", e0), ("edge", e1), half_twist=tw))


def test_plumb_rejects_loop_in_another_face():
    # the free circle floats in the outer region; an edge fully inside
    # a lobe of its piece cannot reach it
    T = cl(1, 1, 1).with_free_loop()
    l0 = next(iter(T.loops))
    rejected = 0
    joined = 0
    for e in sorted(T.edges):
        try:
            pb = plumb_band(T, BandSpec(("edge", e), ("loop", l0)))
            pb.diagram.validate()
            joined += 1
        except ValueError:
            rejected += 1
    assert joined and rejected


# -- the induced map on deformed homology --------------------------------


def test_merge_band_carries_lee_generators():
    # merging two circles multiplies the labels: matching orientations
    # survive, clashing ones die
    D = two_circles()
    la, lb = sorted(D.loops)
    for th in (lee_deformation(3), bar_natan_deformation(3)):
        pb, imgs = band_images(D, BandSpec(("loop", la), ("loop", lb)), th)
        assert band_orientable(pb)
        got = {im.flips: im for im in imgs}
        for fl, im in got.items():
            if len(fl) in (0, 2):
                assert im.compatible and im.scale is not None
                assert im.scale % 3 != 0
            else:
                assert not im.compatible and im.image_zero


def test_split_band_carries_lee_generators():
    D = LinkDiagram().with_free_loop()
    l0 = next(iter(D.loops))
    pb, imgs = band_images(D, BandSpec(("loop", l0), ("loop", l0)), lee_deformation(3))
    S = surgered_diagram(pb)
    assert len(S.components()) == 2
    assert homology_table(S, khovanov(3)) == TWO_CIRCLES
    for im in imgs:
        assert im.compatible and im.scale is not None and im.scale % 3 != 0


def test_nonorientable_band_kills_lee_classes():
    for th in (lee_deformation(3), bar_natan_deformation(3)):
        for D, foot in [
            (LinkDiagram().with_free_loop(), None),
            (cl(1), "edge"),
            (cl(-1), "edge"),
            (cl(1, 1), "edge"),
        ]:
            if foot is None:
                f = ("loop", next(iter(D.loops)))
            else:
                f = ("edge", min(D.edges))
            pb, imgs = band_images(D, BandSpec(f, f, half_twist=True), th)
            assert not band_orientable(pb)
            for im in imgs:
                assert not im.compatible
                assert im.image_zero


def test_twisted_band_between_components_needs_one_flip():
    # a half twist between two circles still merges them, but only the
    # orientation pairs that disagree survive
    D = two_circles()
    la, lb = sorted(D.loops)
    pb, imgs = band_images(
        D, BandSpec(("loop", la), ("loop", lb), half_twist=True), lee_deformation(3)
    )
    assert band_orientable(pb)
    for im in imgs:
        if len(im.flips) == 1:
            assert im.compatible and im.scale is not None and im.scale % 3 != 0
        else:
            assert not im.compatible and im.image_zero


def test_band_laws_randomized():
    rng = random.Random(7)
    th = lee_deformation(3)
    kept = 0
    nonzero_hits = 0
    zero_hits = 0
    trials = 0
    while kept < 60:
        trials += 1
        assert trials < 1000, "rejection rate exploded"
        strands = rng.choice([2, 2, 3])
        w = random_braid(rng, strands, rng.randint(1, 4))
        D = braid_closure(w)
        if rng.random() < 0.3:
            D = D.with_free_loop(ccw=rng.random() < 0.5)
        feet = [("edge", e) for e in D.edges] + [("loop", l) for l in D.loops]
        band = BandSpec(rng.choice(feet), rng.choice(feet), rng.random() < 0.5)
        try:
            pb, imgs = band_images(D, band, th)
        except ValueError:
            continue
        kept += 1
        for im in imgs:
            if im.compatible:
                assert im.scale is not None and im.scale % 3 != 0, (w.letters, band)
                nonzero_hits += 1
            else:
                assert im.image_zero, (w.letters, band, sorted(im.flips))
                zero_hits += 1
    assert nonzero_hits >= 50 and zero_hits >= 50


# -- triangles -----------------------------------------------------------


def test_kink_triangle_roles():
    K = cl(1)
    t = skein_triangle(K, min(K.crossings))
    assert t.sign == 1 and t.oriented_r == 0
    assert t.natures() == ("nonorientable", "split", "merge")
    assert homology_table(t.oriented_diagram, khovanov(3)) == TWO_CIRCLES
    assert homology_table(t.unoriented_diagram, khovanov(3)) == UNKNOT
    # the map to the oriented smoothing has homological degree zero
    assert t.shifts[t.oriented_r][0] == 0


def test_trefoil_triangle_roles():
    T = cl(1, 1, 1)
    t = skein_triangle(T, max(T.crossings))
    assert t.natures() == ("nonorientable", "split", "merge")
    assert homology_table(t.oriented_diagram, khovanov(3)) == HOPF
    assert homology_table(t.unoriented_diagram, khovanov(3)) == UNKNOT
    assert t.shifts[t.oriented_r][0] == 0


def test_negative_crossing_triangle():
    T = cl(-1, -1, -1)
    t = skein_triangle(T, max(T.crossings))
    assert t.sign == -1 and t.oriented_r == 1
    assert t.natures() == ("nonorientable", "split", "merge")
    assert t.shifts[t.oriented_r][0] == 0
    for rep in exactness_check(t).values():
        assert rep.ok, rep.failures


def test_triangle_exactness_on_small_suite():
    for D in [cl(1), cl(1, 1), cl(1, 1, 1), cl(1, -2, 1, -2, strands=3)]:
        for cid in sorted(D.crossings):
            t = skein_triangle(D, cid)
            reps = exactness_check(t)
            assert set(reps) == {"khovanov", "lee", "bar_natan"}
            for name, rep in reps.items():
                assert rep.ok, (name, cid, rep.failures)
                assert rep.checks > 0


def test_saddle_quantum_degree_is_minus_one():
    # in raw terms (before per-diagram orientation renormalization) the
    # merge/split between the two smoothings always drops q by one
    for D in [cl(1), cl(1, 1), cl(1, 1, 1), cl(-1, -1), cl(1, -2, 1, -2, strands=3)]:
        for cid in sorted(D.crossings):
            sh = block_shifts(D, cid)
            if sh[0] is None or sh[1] is None:
                continue
            R0, _ = D.resolve_crossing(cid, 0)
            R1, _ = D.resolve_crossing(cid, 1)
            eff = lambda R: R.n_plus() - 2 * R.n_minus()
            assert sh[0][1] - sh[1][1] + eff(R0) - eff(R1) == -1


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


THEORIES = [khovanov(3), lee_deformation(3), bar_natan_deformation(3)]


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
