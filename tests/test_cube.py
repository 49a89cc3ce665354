"""State-cube engine: homology tables, deformations, canonical cycles."""

from itertools import product
from random import Random

import pytest

from khovanov_cables import chain_algebra
from khovanov_cables import frobenius as fr
from khovanov_cables.braids import BraidWord, braid_closure, random_braid
from khovanov_cables.chain_algebra import add_into, rank
from khovanov_cables.cube import CubeComplex


def cube_table(D, theory, flips=frozenset()):
    return CubeComplex(D, theory, flips).cx.homology_dims()


def cl(*letters, strands=None):
    n = strands or (max(abs(l) for l in letters) + 1 if letters else 1)
    return braid_closure(BraidWord(n, tuple(letters)))


THEORIES = [
    fr.khovanov(3),
    fr.khovanov(5),
    fr.lee_deformation(3),
    fr.lee_deformation(5),
    fr.bar_natan_deformation(3),
    fr.bar_natan_deformation(2),
]


UNKNOT_TABLE = {(0, -1): 1, (0, 1): 1}
TREFOIL_TABLE = {(0, 1): 1, (0, 3): 1, (2, 5): 1, (3, 9): 1}
HOPF_TABLE = {(0, 0): 1, (0, 2): 1, (2, 4): 1, (2, 6): 1}
FIG8_TABLE = {
    (-2, -5): 1,
    (-1, -1): 1,
    (0, -1): 1,
    (0, 1): 1,
    (1, 1): 1,
    (2, 5): 1,
}


def test_lee_rejects_char_two():
    with pytest.raises(ValueError):
        fr.lee_deformation(2)


def test_label_algebra():
    th = fr.lee_deformation(5)
    x = (0, 1)
    assert th.mul(x, x) == (1, 0)  # X^2 = t = 1
    assert th.counit(x) == 1 and th.counit((1, 0)) == 0
    assert th.handle() == (0, 2)
    bn = fr.bar_natan_deformation(3)
    assert bn.mul(x, x) == (0, 1)  # X^2 = hX = X
    assert bn.handle() == (2, 2)
    assert fr.khovanov(3).mul(x, x) == (0, 0)


@pytest.mark.parametrize("theory", THEORIES)
def test_d_squared_random(theory):
    rng = Random(5)
    for _ in range(6):
        w = random_braid(rng, rng.randint(2, 4), rng.randint(1, 5))
        CubeComplex(braid_closure(w), theory).cx.check_d_squared()


def test_unknot_tables():
    for D in (cl(strands=1), cl(1), cl(-1), cl(1, -2)):
        assert cube_table(D, fr.khovanov(3)) == UNKNOT_TABLE


def test_trefoil_table():
    T = cl(1, 1, 1)
    for p in (3, 5):
        assert cube_table(T, fr.khovanov(p)) == TREFOIL_TABLE
    mirror = {(-h, -q): d for (h, q), d in TREFOIL_TABLE.items()}
    assert cube_table(T.mirror(), fr.khovanov(3)) == mirror


def test_hopf_table():
    assert cube_table(cl(1, 1), fr.khovanov(3)) == HOPF_TABLE


def test_figure_eight_table():
    assert cube_table(cl(1, -2, 1, -2), fr.khovanov(3)) == FIG8_TABLE


def test_unlink_tables():
    assert cube_table(cl(strands=2), fr.khovanov(3)) == {
        (0, -2): 1,
        (0, 0): 2,
        (0, 2): 1,
    }
    # disjoint unknot tensors the two-dimensional algebra onto every slot
    T = cl(1, 1, 1).with_free_loop()
    expect = {}
    for (h, q), d in TREFOIL_TABLE.items():
        for dq in (-1, 1):
            expect[(h, q + dq)] = expect.get((h, q + dq), 0) + d
    assert cube_table(T, fr.khovanov(3)) == expect


def test_reidemeister_pairs():
    pairs = [
        (cl(1, 1, 1), cl(1, 1, 1, 2)),  # stabilization adds a curl
        (cl(1, 1, 1, 2), cl(1, 1, 2, -2, 1, 2)),  # cancelling pair inserted
        (cl(1, 2, 1), cl(2, 1, 2)),  # slide the middle strand
    ]
    for A, B in pairs:
        assert cube_table(A, fr.khovanov(3)) == cube_table(B, fr.khovanov(3))


def test_orientation_flip_shifts_table():
    H = cl(1, 1)
    flipped = cube_table(H, fr.khovanov(3), flips=frozenset({0}))
    # two positive crossings turn negative: degrees drop by (2, 6)
    assert flipped == {(h - 2, q - 6): d for (h, q), d in HOPF_TABLE.items()}


def test_orientation_flip_preserves_deformed_dims():
    H = cl(1, 1)
    th = fr.lee_deformation(3)
    base = CubeComplex(H, th).cx.homology_dims()
    flipped = CubeComplex(H, th, flips=frozenset({0})).cx.homology_dims()
    assert base == {0: 2, 2: 2}
    assert flipped == {-2: 2, 0: 2}


@pytest.mark.parametrize(
    "theory",
    [fr.lee_deformation(3), fr.lee_deformation(5), fr.bar_natan_deformation(3)],
)
def test_deformed_dims_anchors(theory):
    assert CubeComplex(cl(1), theory).cx.homology_dims() == {0: 2}
    assert CubeComplex(cl(1, 1, 1), theory).cx.homology_dims() == {0: 2}
    assert CubeComplex(cl(1, 1), theory).cx.homology_dims() == {0: 2, 2: 2}
    assert CubeComplex(cl(1, -2, 1, -2), theory).cx.homology_dims() == {0: 2}


@pytest.mark.parametrize("theory", [fr.lee_deformation(3), fr.bar_natan_deformation(2)])
def test_canonical_cycles_close_and_span(theory):
    rng = Random(9)
    for _ in range(8):
        w = random_braid(rng, rng.randint(2, 4), rng.randint(1, 5))
        D = braid_closure(w)
        cc = CubeComplex(D, theory)
        ncomp = len(D.components())
        total = sum(cc.cx.homology_dims().values())
        assert total == 2**ncomp
        for bits in product((0, 1), repeat=ncomp):
            flips = frozenset(i for i, b in enumerate(bits) if b)
            v = cc.canonical_cycle(flips)
            assert v and cc.cx.apply_d(v) == {}


def test_canonical_cycle_gradings():
    # flipping a component moves the cycle to h = (negatives under the new
    # orientation) - (negatives under the base one)
    D = cl(1, 1)
    cc = CubeComplex(D, fr.lee_deformation(3))
    v = cc.canonical_cycle(frozenset({0}))
    hs = {cc.cx.grading[g][0] for g in v}
    assert hs == {2}


S_ANCHORS = [
    (lambda: cl(1), 0),
    (lambda: cl(-1), 0),
    (lambda: cl(1, -2), 0),
    (lambda: cl(1, 1, 1), 2),
    (lambda: cl(-1, -1, -1), -2),
    (lambda: cl(1, -2, 1, -2), 0),
]


@pytest.mark.parametrize("theory", [fr.lee_deformation(3), fr.bar_natan_deformation(3)])
@pytest.mark.parametrize("mk,expect", S_ANCHORS)
def test_s_invariant_anchors(theory, mk, expect):
    cc = CubeComplex(mk(), theory)
    v = cc.canonical_cycle(frozenset())
    level = cc.cx.filtration_level(v)
    assert level is not None and level + 1 == expect


def test_hopf_levels_regression():
    cc = CubeComplex(cl(1, 1), fr.lee_deformation(3))
    levels = {}
    for bits in product((0, 1), repeat=2):
        flips = frozenset(i for i, b in enumerate(bits) if b)
        levels[bits] = cc.cx.filtration_level(cc.canonical_cycle(flips))
    assert levels == {(0, 0): 0, (0, 1): 4, (1, 0): 4, (1, 1): 0}


def test_cycle_combination_levels():
    # the two unknot classes sit at the bottom level; their difference is a
    # multiple of the counit-dual generator and reaches the top one
    cc = CubeComplex(cl(1), fr.lee_deformation(3))
    a = cc.canonical_cycle(frozenset())
    b = cc.canonical_cycle(frozenset({0}))
    assert cc.cx.filtration_level(a) == -1
    assert cc.cx.filtration_level(b) == -1
    assert cc.cx.filtration_level(add_into(dict(a), b.items(), 3, -1)) == 1
    assert cc.cx.filtration_level(add_into(dict(a), b.items(), 3)) == -1


def unreduced_table(cx):
    """Homology ranks from dense ranks of the blocks as built, never simplified."""
    blocks: dict = {}
    for g, (h, q) in cx.grading.items():
        blocks.setdefault(q if cx.q_exact else None, {}).setdefault(h, []).append(g)
    out = {}
    for q, byh in blocks.items():
        rk = {h: rank(cx.dense_block(gens, byh.get(h + 1, [])), cx.p) for h, gens in byh.items()}
        for h, gens in byh.items():
            dim = len(gens) - rk[h] - rk.get(h - 1, 0)
            if dim:
                out[(h, q) if cx.q_exact else h] = dim
    return out


def test_simplify_preserves_tables():
    rng = Random(31)
    for theory in (fr.khovanov(3), fr.lee_deformation(3), fr.bar_natan_deformation(3)):
        for _ in range(4):
            w = random_braid(rng, rng.randint(2, 4), rng.randint(2, 5))
            cx = CubeComplex(braid_closure(w), theory).cx
            want = unreduced_table(cx)
            red = cx.copy()
            red.simplify()
            assert unreduced_table(red) == want
            assert cx.homology_dims() == want


@pytest.mark.parametrize(
    "theory", [fr.khovanov(3), fr.lee_deformation(3), fr.bar_natan_deformation(3)]
)
def test_homology_dims_counts_without_row_reduction(theory, monkeypatch):
    # a fully reduced complex has zero differential: its generators are
    # the ranks, so no dense rank is taken
    calls = []
    row_reduce = chain_algebra.row_reduce

    def counted(A, p):
        calls.append(A.shape)
        return row_reduce(A, p)

    monkeypatch.setattr(chain_algebra, "row_reduce", counted)
    for D in (cl(1, -2, 1, -2), cl(1, 1, 2, -1, 2), cl(1, 1).with_free_loop()):
        cx = CubeComplex(D, theory).cx
        want = unreduced_table(cx)
        calls.clear()
        assert cx.homology_dims() == want
        assert not calls, calls
