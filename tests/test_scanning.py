"""Sweep engine against the state-cube oracle, then past its reach."""

import copy
import itertools
import random
import weakref

import pytest

from khovanov_cables import scanning
from khovanov_cables.braids import BraidWord, braid_closure, cable_word, random_braid
from khovanov_cables.cobordism import cone_from_cube
from khovanov_cables.cube import CubeComplex
from khovanov_cables.frobenius import (
    bar_natan_deformation,
    khovanov,
    lee_deformation,
)
from khovanov_cables.induction import LadderEntry, LevelSweep, audit_family, entry_word, family_diagram
from khovanov_cables.scanning import homology_table, scan_complex, scan_order

THEORIES = [
    khovanov(2),
    khovanov(3),
    khovanov(5),
    lee_deformation(3),
    lee_deformation(5),
    bar_natan_deformation(2),
    bar_natan_deformation(3),
]


def all_orientations(D):
    n = len(D.components())
    return [
        frozenset(s)
        for k in range(n + 1)
        for s in itertools.combinations(range(n), k)
    ]


def test_scan_order_covers_and_reports_girth():
    D = braid_closure(BraidWord(3, (1, 2, 1, 2)))
    order, girth = scan_order(D)
    assert sorted(order) == sorted(D.crossings)
    assert girth >= 2


def test_tables_match_cube_on_fixed_small_cases():
    words = [
        BraidWord(2, (1,)),
        BraidWord(2, (-1,)),
        BraidWord(2, (1, 1)),
        BraidWord(2, (1, 1, 1)),
        BraidWord(2, (-1, -1, -1)),
        BraidWord(3, (1, -2, 1, -2)),
        BraidWord(3, (1, 1, 2, 2)),
        BraidWord(4, (1, -2, 3, -2, 1)),
    ]
    for w in words:
        D = braid_closure(w)
        for th in THEORIES:
            assert (
                homology_table(D, th) == CubeComplex(D, th).cx.homology_dims()
            ), (w.letters, th.p, th.h, th.t)


def test_tables_match_cube_on_random_braids():
    rng = random.Random(97)
    for _ in range(25):
        w = random_braid(rng, rng.randint(2, 4), rng.randint(1, 7))
        D = braid_closure(w)
        th = rng.choice(THEORIES)
        assert homology_table(D, th) == CubeComplex(D, th).cx.homology_dims(), (
            w.strands,
            w.letters,
            th.p,
            th.h,
            th.t,
        )


def test_transported_cycles_close_and_match_cube_levels():
    rng = random.Random(3511)
    for _ in range(12):
        w = random_braid(rng, rng.randint(2, 3), rng.randint(1, 6))
        D = braid_closure(w)
        ors = all_orientations(D)
        for th in (lee_deformation(3), bar_natan_deformation(3)):
            res = scan_complex(D, th, orientations=ors)
            cc = CubeComplex(D, th)
            for o in ors:
                v = res.cycles[o]
                assert v and res.complex.apply_d(v) == {}
                assert res.complex.filtration_level(v) == cc.cx.filtration_level(
                    cc.canonical_cycle(o)
                ), (w.strands, w.letters, th.h, th.t, o)


def ranks_in_degree(dims, h):
    """The entries of a homology table, {(h, q): rank} or {h: rank}, in degree h."""
    return {key: v for key, v in dims.items() if (key[0] if isinstance(key, tuple) else key) == h}


@pytest.mark.parametrize(
    "th", [khovanov(3), lee_deformation(3), bar_natan_deformation(3)], ids=["khovanov", "lee", "bar-natan"]
)
def test_a_degree_window_keeps_the_homology_strictly_inside_it(th):
    rng = random.Random(6021)
    compared = nonzero = 0
    for _ in range(20):
        D = braid_closure(random_braid(rng, rng.randint(2, 4), rng.randint(2, 9)))
        flips = frozenset(c for c in range(len(D.components())) if rng.random() < 0.5)
        full = scan_complex(D, th, flips).complex
        dims = full.homology_dims()
        for lo in range(-D.n_minus(flips) - 1, D.n_plus(flips) + 1):
            hi = lo + rng.randint(0, 3)
            cut = scan_complex(D, th, flips, degrees=(lo, hi)).complex
            assert all(lo <= h <= hi for h, _ in cut.grading.values())
            inside = cut.homology_dims()
            for h in range(lo + 1, hi):
                got = ranks_in_degree(dims, h)
                assert ranks_in_degree(inside, h) == got, (len(D.crossings), flips, lo, hi, h)
                compared += 1
                nonzero += bool(got)
    assert compared > 100 and nonzero > 10


def test_deformed_total_dim_counts_orientations():
    rng = random.Random(775)
    for _ in range(10):
        w = random_braid(rng, rng.randint(2, 4), rng.randint(1, 8))
        D = braid_closure(w)
        ncomp = len(D.components())
        for th in (lee_deformation(3), bar_natan_deformation(3)):
            dims = homology_table(D, th)
            assert sum(dims.values()) == 2 ** ncomp, (w.letters, th.h, th.t)


# anchors out of the cube's reach: positive torus closures, whose distinguished
# level is twice the Seifert genus minus one


@pytest.mark.parametrize(
    "strands,reps,level",
    [(2, 7, 5), (2, 9, 7), (3, 4, 5), (3, 5, 7)],
)
def test_torus_levels_at_larger_sizes(strands, reps, level):
    base = tuple(range(1, strands))
    w = BraidWord(strands, base * reps)
    D = braid_closure(w)
    th = lee_deformation(3)
    res = scan_complex(D, th, orientations=[frozenset()])
    v = res.cycles[frozenset()]
    assert res.complex.apply_d(v) == {}
    assert res.complex.filtration_level(v) == level


def test_mirror_torus_level():
    w = BraidWord(2, (-1,) * 7)
    D = braid_closure(w)
    th = lee_deformation(3)
    res = scan_complex(D, th, orientations=[frozenset()])
    assert res.complex.filtration_level(res.cycles[frozenset()]) == -7


def test_girth_stays_small_on_torus_braids():
    D = braid_closure(BraidWord(3, (1, 2) * 6))
    res = scan_complex(D, khovanov(3))
    assert res.girth <= 8


def test_split_exposes_last_crossing_summands():
    w = BraidWord(2, (1, 1, 1))
    D = braid_closure(w)
    cid = max(D.crossings)
    th = khovanov(3)
    res = scan_complex(D, th, split_at=cid)
    one = res.sub
    assert isinstance(one, frozenset) and one and one < set(res.complex.generators())
    assert scan_complex(D, th).sub is None
    # entries never go from the one side back to the zero side
    for x in res.complex.generators():
        for y, c in res.complex.cols.get(x, {}).items():
            if c and x in one:
                assert y in one


def test_split_still_computes_the_right_homology():
    rng = random.Random(60)
    for _ in range(6):
        w = random_braid(rng, rng.randint(2, 3), rng.randint(2, 5))
        D = braid_closure(w)
        cid = rng.choice(sorted(D.crossings))
        th = khovanov(3)
        res = scan_complex(D, th, split_at=cid)
        assert res.complex.homology_dims() == CubeComplex(D, th).cx.homology_dims()


def test_split_and_tracked_scan_matches_the_cube():
    # every orientation carried through a split scan (the deformed theories
    # only: Khovanov's double root has no canonical cycles): elimination
    # stays within each side, each block keeps the cube's homology, and
    # each cycle the cube's degree and level
    rng = random.Random(2718)
    for _ in range(12):
        w = random_braid(rng, rng.randint(2, 3), rng.randint(2, 6))
        D = braid_closure(w)
        cid = rng.choice(sorted(D.crossings))
        for th in (khovanov(3), lee_deformation(3), bar_natan_deformation(3)):
            ors = [] if th.q_exact else all_orientations(D)
            res = scan_complex(D, th, orientations=ors, split_at=cid)
            cx = res.complex
            one = res.sub
            for x, col in cx.cols.items():
                for y in col:
                    # at export an entry is iso exactly when it keeps q
                    assert (x in one) != (y in one) or cx.grading[x][1] != cx.grading[y][1], (
                        w.letters, th, x, y,
                    )
            cube = CubeComplex(D, th)
            cone = cone_from_cube(D, th, cid)
            assert cx.homology_dims() == cone.cx.homology_dims()
            assert cx.restrict(one).homology_dims() == cone.sub_complex().homology_dims()
            assert cx.restrict(cx.grading.keys() - one).homology_dims() == cone.quot_complex().homology_dims()
            for o in ors:
                v, want = res.cycles[o], cube.canonical_cycle(o)
                assert cx.apply_d(v) == {}
                assert {cx.grading[g][0] for g in v} <= {cube.cx.grading[g][0] for g in want}
                assert cx.filtration_level(v) == cube.cx.filtration_level(want), (th, o)


def test_split_scan_keeps_the_plain_scan_girth():
    # the split crossing is attached where the plain order puts it, so it
    # holds no edges open; attached last, some crossings here reach 12
    D, _ = family_diagram(BraidWord(1, ()), LadderEntry(0, 2, 4, 3))
    girth = scan_order(D)[1]
    for cid in sorted(D.crossings):
        assert scan_complex(D, khovanov(3), split_at=cid).girth == girth, cid


def test_disjoint_union_and_loops_through_the_sweep():
    w = BraidWord(4, (1, 1, 1, 3))  # trefoil next to an unknot component
    D = braid_closure(w)
    th = khovanov(3)
    got = homology_table(D, th)
    assert got == CubeComplex(D, th).cx.homology_dims()
    lone = braid_closure(BraidWord(2, (1, 1, 1)))
    lone = lone.with_free_loop()
    assert homology_table(lone, th) == CubeComplex(lone, th).cx.homology_dims()


def test_a_fork_leaves_its_parent_unchanged():
    D = braid_closure(BraidWord(3, (1, -2, 1, -2, 1, 1)))
    th = khovanov(3)
    order, _ = scan_order(D)
    sc = scanning._Scan(D, th, [])
    for cid in order[:3]:
        sc.attach(cid)
    before = copy.deepcopy((sc.gens, sc.d, sc.rin, sc.open, sc.scanned, sc.girth))
    fork = sc.fork()
    for row in fork.d.values():
        for m in row.values():
            m[frozenset()] = 1  # elimination adds into morphisms in place
    for col in fork.rin.values():
        col.add(-1)
    fork.open.add(-1)
    fork = sc.fork()
    for cid in order[3:]:
        fork.attach(cid)
    assert copy.deepcopy((sc.gens, sc.d, sc.rin, sc.open, sc.scanned, sc.girth)) == before
    for cid in order[3:]:
        sc.attach(cid)
    want = homology_table(D, th)
    assert sc.finish(D, frozenset()).complex.homology_dims() == want
    assert fork.finish(D, frozenset()).complex.homology_dims() == want


# elimination order and the per-attach surface memo


def restart_sweep_eliminate_all(self, memo):
    """Oracle: the smallest iso (x, y) first, by a sorted sweep restarted after
    each elimination; it must give the same homology as the cheapest-first rule."""
    again = True
    while again:
        again = False
        for x in sorted(self.d):
            row = self.d.get(x)
            if not row:
                continue
            for y in sorted(row):
                u = self._iso_scalar(x, y, row[y])
                if u is not None:
                    self._eliminate(x, y, u, memo)
                    again = True
                    break
            if again:
                break


def exported(res):
    cx = res.complex
    return cx.grading, cx.cols, res.cycles, res.girth, res.sub


def seeded_scans(seed, count):
    """(diagram, theory, options): random 2-3 strand closures, split or carrying cycles."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        D = braid_closure(random_braid(rng, rng.randint(2, 3), rng.randint(3, 9)))
        for th in (khovanov(3), lee_deformation(3), bar_natan_deformation(3)):
            out.append((D, th, {"split_at": rng.choice(sorted(D.crossings))}))
        for th in (lee_deformation(3), bar_natan_deformation(3)):
            out.append((D, th, {"orientations": all_orientations(D)}))
    return out


def homology_view(res):
    """What the elimination order may not change: homology of the export and
    of the split blocks, and each transported cycle's degree and level."""
    cx = res.complex
    view = [cx.homology_dims(), res.girth]
    if res.sub is not None:
        # entries never leave the one side, so it is the sub, zero the quotient
        view += [cx.restrict(ids).homology_dims() for ids in (res.sub, cx.grading.keys() - res.sub)]
    for o, v in sorted(res.cycles.items(), key=lambda item: sorted(item[0])):
        view.append((o, {cx.grading[g][0] for g in v}, cx.filtration_level(v)))
    return view


def test_cheapest_first_agrees_with_the_restart_sweep_on_homology(monkeypatch):
    cases = seeded_scans(4099, 8)
    cheapest = [homology_view(scan_complex(D, th, **kw)) for D, th, kw in cases]
    monkeypatch.setattr(scanning._Scan, "_eliminate_all", restart_sweep_eliminate_all)
    for (D, th, kw), got in zip(cases, cheapest):
        assert got == homology_view(scan_complex(D, th, **kw)), (D.crossings.keys(), th, kw)


def test_elimination_takes_the_cheapest_iso_entry_first():
    # Scalar entries between empty tangles; an entry is iso when rawq drops
    # by one.  The isos (x1, y) and (x2, y) compete for y.  (x1, y) sorts
    # first, but cancelling it composes x2 -> y -> x1 -> w, while (x2, y)
    # makes no composition.
    survivors = []
    for eliminate_all in (scanning._Scan._eliminate_all, restart_sweep_eliminate_all):
        sc = scanning._Scan(braid_closure(BraidWord(2, (1,))), khovanov(3), [])
        sc.gens.clear()
        x1, x2, y, w = (sc._new_gen(frozenset(), 0, rawq, ()) for rawq in (1, 1, 0, 3))
        for src, dst in ((x1, y), (x2, y), (x1, w)):
            sc._set_entry(src, dst, {frozenset(): 1})
        eliminate_all(sc, scanning._SurfaceMemo(sc.th))
        survivors.append((sorted(sc.gens), sc.d))
    assert survivors[0] == ([x1, w], {x1: {w: {frozenset(): 1}}})
    assert survivors[1] == ([x2, w], {x2: {w: {frozenset(): 2}}})


def test_an_entry_whose_cost_grew_goes_back_on_the_heap():
    # (c, yc), (x, ya) and (x, yb) are iso, at costs 3, 3 and 4.  The tie
    # goes to (c, yc), whose cancellation writes z -> ya for the three z and
    # so raises the cost of (x, ya) to 5.  Taken at its stale cost, (x, ya)
    # would cancel ya; pushed back, it loses to (x, yb), which cancels yb.
    sc = scanning._Scan(braid_closure(BraidWord(2, (1,))), khovanov(3), [])
    sc.gens.clear()
    c, yc, x, ya, yb = (sc._new_gen(frozenset(), 0, rawq, ()) for rawq in (5, 4, 1, 0, 0))
    others = [sc._new_gen(frozenset(), 0, 9, ()) for _ in range(9)]
    zs, as_, bs = others[:3], others[3:5], others[5:]
    pairs = [(c, yc), (c, ya), (x, ya), (x, yb)]
    pairs += [(z, yc) for z in zs] + [(a, ya) for a in as_] + [(b, yb) for b in bs]
    for src, dst in pairs:
        sc._set_entry(src, dst, {frozenset(): 1})
    sc._eliminate_all(scanning._SurfaceMemo(sc.th))
    assert sorted(sc.gens) == sorted([ya, *others])
    assert sc.rin[ya] == {*zs, *as_, *bs}


def test_cheapest_first_makes_fewer_compositions(monkeypatch):
    compose = scanning.compose
    eliminate = scanning._Scan._eliminate
    counts = {"compose": 0, "eliminate": 0}

    def counted_compose(*args):
        counts["compose"] += 1
        return compose(*args)

    def counted_eliminate(self, *args):
        counts["eliminate"] += 1
        return eliminate(self, *args)

    monkeypatch.setattr(scanning, "compose", counted_compose)
    monkeypatch.setattr(scanning._Scan, "_eliminate", counted_eliminate)
    D = braid_closure(cable_word(BraidWord(2, (-1,) * 7), 2))
    runs = []
    for eliminate_all in (scanning._Scan._eliminate_all, restart_sweep_eliminate_all):
        monkeypatch.setattr(scanning._Scan, "_eliminate_all", eliminate_all)
        counts.update(compose=0, eliminate=0)
        dim = scan_complex(D, khovanov(3)).complex.dim
        runs.append((counts["compose"], counts["eliminate"], dim))
    (cheap, n_cheap, dim_cheap), (sweep, n_sweep, dim_sweep) = runs
    assert cheap < sweep
    assert (n_cheap, dim_cheap) == (n_sweep, dim_sweep)


def test_the_cable_scan_does_the_pinned_work(monkeypatch):
    # the Khovanov mod 3 scan of the 2-cable of T(2,-7) makes exactly these
    # surface calls and eliminations: a change to how entries are stored or
    # edited must not change which compositions and caps the elimination
    # sequence needs
    counts = {"compose": 0, "mor_cap": 0, "_eliminate": 0}

    def counted(owner, name):
        fn = getattr(owner, name)

        def wrapper(*args):
            counts[name] += 1
            return fn(*args)

        return wrapper

    for name in ("compose", "mor_cap"):
        monkeypatch.setattr(scanning, name, counted(scanning, name))
    monkeypatch.setattr(scanning._Scan, "_eliminate", counted(scanning._Scan, "_eliminate"))
    D = braid_closure(cable_word(BraidWord(2, (-1,) * 7), 2))
    res = scan_complex(D, khovanov(3))
    assert counts == {"compose": 21939, "mor_cap": 45464, "_eliminate": 2613}
    assert (res.complex.dim, res.girth) == (70, 8)


def check_after(monkeypatch, check):
    """Run check(scan) after every attach and every join."""
    for name in ("attach", "join"):
        step = getattr(scanning._Scan, name)

        def checked(self, *args, _step=step, **kwargs):
            _step(self, *args, **kwargs)
            check(self)

        monkeypatch.setattr(scanning._Scan, name, checked)


def test_rin_stays_the_transpose_of_d(monkeypatch):
    # after every attach and join, rin[y] is exactly the set of rows with an
    # entry at y, no row, column or morphism is empty, and every key is a
    # live generator or a tracked row's ref
    checked = []

    def check(self):
        keys = set(self.gens) | set(self.tracks)
        transpose = {}
        for x, row in self.d.items():
            assert x in keys and row
            for y, m in row.items():
                assert y in self.gens and m
                transpose.setdefault(y, set()).add(x)
        assert self.rin == transpose
        checked.append(self)

    check_after(monkeypatch, check)
    for D, th, kw in seeded_scans(5003, 4):
        scan_complex(D, th, **kw)
    assert len(checked) > 100
    # the writhe -2 unknot's level sweep closes each entry by joins
    checked.clear()
    assert audit_family(BraidWord(3, (-1, -2)), "writhe -2 unknot", max_level=1).ok()
    assert len(checked) == 57 + 53



def test_every_stored_part_label_is_monic(monkeypatch):
    # a stored label's first nonzero entry is 1 and the coefficient holds
    # the scalar, so one surface has one key; in Khovanov theory, whose
    # handle is 2X, that leaves the labels 1 and X
    labels = {}

    def check(self):
        seen = labels.setdefault(self.th, set())
        for row in self.d.values():
            for m in row.values():
                seen.update(part[3] for partition in m for part in partition)

    check_after(monkeypatch, check)
    for D, th, kw in seeded_scans(7019, 3):
        scan_complex(D, th, **kw)
    scan_complex(braid_closure(cable_word(BraidWord(2, (-1, -1, -1)), 2)), khovanov(3))
    for th, seen in labels.items():
        assert all(lab[0] == 1 or lab == (0, 1) for lab in seen), (th, seen)
    assert labels[khovanov(3)] == {(1, 0), (0, 1)}


# every table the memo has, so a table added or dropped is covered too
TABLES = tuple(name for name in vars(scanning._SurfaceMemo(khovanov(3))) if name != "th")


class NeverStores(dict):
    def __setitem__(self, key, value):
        pass


class UnstoredMemo(scanning._SurfaceMemo):
    def __init__(self, th):
        super().__init__(th)
        for name in TABLES:
            setattr(self, name, NeverStores())


def test_memo_hits_equal_fresh_computation(monkeypatch):
    glue = scanning._glue
    calls = []

    def counted(*args):
        calls.append(1)
        return glue(*args)

    monkeypatch.setattr(scanning, "_glue", counted)
    cases = seeded_scans(1733, 4)
    cases.append((braid_closure(BraidWord(3, (1, -2) * 3)), khovanov(3), {}))
    memoized = [exported(scan_complex(D, th, **kw)) for D, th, kw in cases]
    memoized_calls = len(calls)
    calls.clear()
    monkeypatch.setattr(scanning, "_SurfaceMemo", UnstoredMemo)
    for (D, th, kw), got in zip(cases, memoized):
        assert got == exported(scan_complex(D, th, **kw)), (D.crossings.keys(), th, kw)
    assert len(calls) > memoized_calls > 0


class TrackedTable(dict):
    pass


def test_memo_is_dropped_when_attach_returns(monkeypatch):
    alive = []

    class TrackedMemo(scanning._SurfaceMemo):
        def __init__(self, th):
            super().__init__(th)
            for name in TABLES:
                setattr(self, name, TrackedTable())
            alive.extend(weakref.ref(obj) for obj in (self, *(getattr(self, n) for n in TABLES)))

    attached = []

    def check(self):
        attached.append(self)
        assert alive and not [r for r in alive if r() is not None]

    monkeypatch.setattr(scanning, "_SurfaceMemo", TrackedMemo)
    check_after(monkeypatch, check)
    D = braid_closure(BraidWord(2, (1, 1, 1)))
    res = scan_complex(D, lee_deformation(3), orientations=[frozenset()], split_at=min(D.crossings))
    assert res.cycles and len(attached) == len(D.crossings)
    # a level sweep's fork closes its entry by one join per open column:
    # only the three box columns are touched again after the entry's word
    base, e = BraidWord(3, (-1, -2)), LadderEntry(-2, 1, 0, 1)
    D_e, _ = family_diagram(base, e)
    sweep = LevelSweep(base, 1, khovanov(3))
    sweep.close(entry_word(base, e), True, D_e)
    assert len(attached) == len(D.crossings) + len(D_e.crossings) + 3
    assert len(alive) == (1 + len(TABLES)) * len(attached)
    assert not [r for r in alive if r() is not None]


def test_a_step_consumes_the_complex_it_lifts_before_delooping(monkeypatch):
    # the lift pops every row of the complex it reads, and the lift-only
    # memo tables hold nothing by the time delooping starts
    lifted = []  # the scan's d from before each step
    delooped = []

    for name in ("attach", "join"):
        step = getattr(scanning._Scan, name)

        def checked(self, *args, _step=step, **kwargs):
            old = self.d
            lifted.append(old)
            _step(self, *args, **kwargs)
            assert self.d is not old and not old

        monkeypatch.setattr(scanning._Scan, name, checked)
    deloop_all = scanning._Scan._deloop_all

    def checked_deloop(self, memo):
        assert not lifted[-1], "a row of the pre-step complex is still there"
        assert not (memo.rewired or memo.lifts or memo.lifted)
        delooped.append(memo)
        deloop_all(self, memo)

    monkeypatch.setattr(scanning._Scan, "_deloop_all", checked_deloop)
    for D, th, kw in seeded_scans(6007, 2):
        scan_complex(D, th, **kw)
    D = braid_closure(cable_word(BraidWord(2, (-1, -1, -1)), 2))
    scan_complex(D, lee_deformation(3), degrees=(-1, 1))
    attaches = len(lifted)
    # a level sweep forks its scan and closes each fork by joins
    assert audit_family(BraidWord(3, (-1, -2)), "writhe -2 unknot", max_level=1).ok()
    assert attaches > 50 and len(lifted) - attaches == 57 + 53
    assert len(delooped) == len(lifted)


# the bitmask surface layer on hand-built input


def bits(*points):
    return sum(1 << e for e in points)


def disk(*points, label=(1, 0)):
    """A normalized part on two points: one source and one target arc."""
    return (bits(*points), 0, 0, label, 1)


def key(*pairs):
    return frozenset(pair for a, b in pairs for pair in ((a, b), (b, a)))


def test_every_surface_check_fires_on_bad_input():
    memo = scanning._SurfaceMemo(khovanov(3))
    k = key((0, 1), (2, 3))
    circle = 1 << 9
    bad = [
        ("composition boundaries do not match",
         lambda: scanning._glue(frozenset({disk(0, 1)}), frozenset({disk(0, 1), disk(2, 3)}), memo, k, k)),
        ("uncapped circle at a composition",
         lambda: scanning._glue(frozenset({(bits(0, 1), 0, circle, (1, 0), 0)}), frozenset({disk(0, 1)}), memo, k, k)),
        ("uncapped circle at a composition",
         lambda: scanning._glue(frozenset({disk(0, 1)}), frozenset({(bits(0, 1), circle, 0, (1, 0), 0)}), memo, k, k)),
        ("point on two parts",
         lambda: scanning._glue(frozenset({disk(0, 1), disk(1, 2)}), frozenset({disk(0, 1, 2)}), memo, k, k)),
        ("point on two parts",
         lambda: scanning._glue(frozenset({disk(0, 1, 2)}), frozenset({disk(0, 1), disk(1, 2)}), memo, k, k)),
        ("part is not a union of cycles",
         lambda: scanning._rebuild([(bits(0, 2), 0, 0, (1, 0), 1)], memo, memo.cycles_of(k, k))),
        ("part has impossible topology",
         lambda: scanning._rebuild([(bits(0, 1), 0, 0, (1, 0), 2)], memo, memo.cycles_of(k, k))),
        ("part has impossible topology",
         lambda: scanning._rebuild([(bits(0, 1, 2, 3), 0, 0, (1, 0), 1)], memo, memo.cycles_of(k, k))),
        ("capped circle is not on the boundary",
         lambda: scanning._cap(frozenset({(bits(0, 1), circle, 0, (1, 0), 0)}), 0, circle, (1, 0), memo)),
        ("gluing points with no incident part",
         lambda: scanning._apply_piece([disk(0, 1)], (1, bits(2), bits(4), 0, 0), memo.th)),
        ("lift sides consume or open different points",
         lambda: scanning._lift_pieces(((bits(0), bits(4), 0),), ((bits(1), bits(4), 0),))),
        ("lift sides consume or open different points",
         lambda: scanning._lift_pieces(((bits(0), bits(4), 0),), ((bits(0), bits(5), 0),))),
    ]
    for message, make in bad:
        with pytest.raises(AssertionError, match=message):
            make()


def test_the_well_formed_twins_of_the_bad_input_pass():
    memo = scanning._SurfaceMemo(khovanov(3))
    k = key((0, 1), (2, 3))
    identity = frozenset({disk(0, 1), disk(2, 3)})
    assert scanning._glue(identity, identity, memo, k, k) == (identity, 1)
    assert scanning._rebuild([(bits(0, 1), 0, 0, (1, 0), 1)], memo, memo.cycles_of(k, k)) == (
        frozenset({disk(0, 1)}), 1)
    # a disk on a source circle caps to a sphere labeled X, whose counit is 1
    circle = 1 << 9
    assert scanning._cap(frozenset({(0, circle, 0, (1, 0), 1)}), circle, 0, (0, 1), memo) == (frozenset(), 1)
    assert scanning._cap(frozenset({(0, circle, 0, (1, 0), 1)}), circle, 0, (1, 0), memo) == (None, 0)
    assert scanning._apply_piece([disk(0, 1)], (1, bits(1), bits(4), 0, 0), memo.th) == [
        (bits(0, 4), 0, 0, (1, 0), 1)]
    assert scanning._lift_pieces(((bits(0), bits(4), 0),), ((bits(0), bits(4), 1 << 8),)) == (
        (1, bits(0), bits(4), 0, 1 << 8),)


def arc_walk_cycles(src, tgt):
    """Brute force: the point sets of the components of the graph whose
    edges are the arcs of both matchings."""
    left = set(src)
    out = []
    while left:
        todo = [min(left)]
        comp = set()
        while todo:
            pt = todo.pop()
            if pt not in comp:
                comp.add(pt)
                todo += [src[pt], tgt[pt]]
        left -= comp
        out.append(comp)
    return out


def random_matching(rng, points):
    pts = list(points)
    rng.shuffle(pts)
    return {e: f for a, b in zip(pts[::2], pts[1::2]) for e, f in ((a, b), (b, a))}


def test_cycle_count_matches_an_arc_walk():
    rng = random.Random(6151)
    for _ in range(300):
        points = rng.sample(range(40), 2 * rng.randint(0, 8))
        src, tgt = random_matching(rng, points), random_matching(rng, points)
        memo = scanning._SurfaceMemo(khovanov(3))
        cycles = memo.cycles_of(frozenset(src.items()), frozenset(tgt.items()))
        walked = arc_walk_cycles(src, tgt)
        assert sorted(cycles) == sorted(bits(*c) for c in walked)
        chosen = [c for c in walked if rng.random() < 0.5]
        assert scanning._strand_circles(bits(*set().union(*chosen)), cycles) == len(chosen)
        if chosen and len(chosen[0]) > 2:
            with pytest.raises(AssertionError, match="not a union of cycles"):
                scanning._strand_circles(bits(*chosen[0]) & ~bits(min(chosen[0])), cycles)


@pytest.mark.parametrize(
    "partition, unit",
    [
        (frozenset({disk(0, 1, label=(2, 0)), disk(2, 3)}), 2),  # identity cylinder
        (frozenset(), 1),  # the empty tangle's identity
        (frozenset({(bits(0, 1, 2, 3), 0, 0, (1, 0), 0)}), None),  # a four-point part
        (frozenset({(bits(0, 1), 1 << 6, 0, (1, 0), 0)}), None),  # a source circle bit
        (frozenset({(bits(0, 1), 0, 1 << 6, (1, 0), 0)}), None),  # a target circle bit
        (frozenset({disk(0, 1, label=(0, 1))}), None),  # an X label
        (frozenset({disk(0, 1, label=(1, 1))}), None),  # 1 + X, not a unit scalar
        (frozenset({disk(0, 1, label=(0, 0))}), None),  # a zero label
    ],
)
def test_iso_scalar_truth_table(partition, unit):
    sc = scanning._Scan(braid_closure(BraidWord(2, (1,))), khovanov(3), [])
    x, y = (sc._new_gen(frozenset(), 0, rawq, ()) for rawq in (1, 0))
    assert sc._iso_scalar(x, y, {partition: 1}) == unit
    assert sc._iso_scalar(x, y, {partition: 1, frozenset({disk(4, 5)}): 1}) is None
