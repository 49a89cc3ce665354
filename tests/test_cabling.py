"""Braid-route cables against closed coloured Jones formulas, plus writhe
censuses and strand bookkeeping."""

import pytest

from khovanov_cables.braids import (
    BraidWord,
    braid_closure,
    count_inter_crossings,
    full_twist,
    row_word,
)
from khovanov_cables.cabling import (
    alternating_flips,
    cable_family_diagram,
    cable_of_braid,
    orientation_flips,
)
from khovanov_cables.frobenius import khovanov
from khovanov_cables.invariants import graded_euler
from khovanov_cables.pdcodes import read_pd, write_pd
from khovanov_cables.scanning import homology_table

NEG_TREFOIL = BraidWord(2, (-1, -1, -1))
FIGURE_EIGHT = BraidWord(3, (1, -2, 1, -2))
# one positive kink: the closure is an unknot of writhe 1, so its 1-framed
# cables need no framing twists
KINK = BraidWord(2, (1,))


def same_diagram(A, B):
    if set(A.crossings) != set(B.crossings) or set(A.edges) != set(B.edges):
        return False
    for c in A.crossings:
        x, y = A.crossings[c], B.crossings[c]
        if x.over_diag != y.over_diag or x.slots != y.slots:
            return False
    return all(A.edges[e].ends == B.edges[e].ends for e in A.edges)


# Laurent polynomials in q as {exponent: coefficient}, as graded_euler gives


def times(a, b):
    out = {}
    for e, c in a.items():
        for g, d in b.items():
            out[e + g] = out.get(e + g, 0) + c * d
    return {e: c for e, c in out.items() if c}


def plus(a, b):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def coloured_jones(c, n, s):
    """J_K(n) = sum_{k<n} c_k prod_{j=1..k} (x^((n+j)/2) - x^(-(n+j)/2))
    (x^((n-j)/2) - x^(-(n-j)/2)) at x = q^(2s), so x^(a/2) = q^(s*a).

    c(k, s) is the k-th coefficient as a polynomial in q."""
    total, prod = {}, {0: 1}
    for k in range(n):
        if k:
            up, down = s * (n + k), s * (n - k)
            prod = times(prod, times({up: 1, -up: -1}, {down: 1, -down: -1}))
        total = plus(total, times(c(k, s), prod))
    return total


# (companion, c_k, framings): J = 1 for the unknot; c_k = 1 for the
# figure-eight (Habiro); c_k = (-1)^k x^(k(k+3)/2) for the trefoil (Masbaum)
COLOURED_JONES = {
    "unknot": (BraidWord(1, ()), lambda k, s: {0: 1} if k == 0 else {}, range(-3, 4)),
    "mirror-trefoil": (NEG_TREFOIL, lambda k, s: {s * k * (k + 3): (-1) ** k}, range(-2, 3)),
    "figure-eight": (FIGURE_EIGHT, lambda k, s: {0: 1}, range(-2, 3)),
}


@pytest.mark.parametrize("base, c, framings", COLOURED_JONES.values(), ids=list(COLOURED_JONES))
def test_two_cables_match_coloured_jones(base, c, framings):
    # V (x) V = V_2 (+) V_0: the f-framed 2-cable's Jones polynomial is
    # q^(2f) [3] J_K(3) + q^(6f). x = q^2 or q^-2 is fixed by the
    # companion's own table, (q + 1/q) J_K(2).
    chi = graded_euler(homology_table(braid_closure(base), khovanov(3)))
    signs = [s for s in (1, -1) if times({1: 1, -1: 1}, coloured_jones(c, 2, s)) == chi]
    assert signs
    J3 = coloured_jones(c, 3, signs[0])
    for f in framings:
        D, _ = cable_of_braid(base, f, BraidWord(2, ()))
        want = plus(times({2 * f - 2: 1, 2 * f: 1, 2 * f + 2: 1}, J3), {6 * f: 1})
        assert graded_euler(homology_table(D, khovanov(3))) == want, f


def test_pure_blackboard_square_cable_is_positive_hopf():
    D, _ = cable_of_braid(KINK, 1, BraidWord(2, ()))
    D.validate()
    assert len(D.crossings) == 4
    assert D.writhe() == 4
    hopf = braid_closure(BraidWord(2, (1, 1)))
    assert homology_table(D, khovanov(3)) == homology_table(hopf, khovanov(3))


def test_spliced_letter_keeps_sign_and_joins_strands():
    D, meta = cable_of_braid(KINK, 1, BraidWord(2, (1,)))
    D.validate()
    assert len(D.crossings) == 5 and D.writhe() == 5
    assert meta.strand_component[0] == meta.strand_component[1]

    D, meta = cable_of_braid(KINK, 1, BraidWord(3, (1,)))
    D.validate()
    assert len(D.crossings) == 10 and D.writhe() == 10
    a, b, c = meta.strand_component
    assert a == b != c

    D, _ = cable_of_braid(KINK, 1, BraidWord(2, (-1,)))
    D.validate()
    assert D.writhe() == 3


def test_blackboard_cable_writhe_census():
    # one-framed cable of the one-kink round diagram: no corrective twists,
    # so reversing p strands lands exactly on (width - 2p)^2
    for width in (3, 5):
        D, meta = cable_of_braid(KINK, 1, BraidWord(width, ()))
        D.validate()
        assert len(D.crossings) == width * width
        for p in range(width + 1):
            fl = orientation_flips(meta, set(range(p)))
            assert D.writhe(fl) == (width - 2 * p) ** 2
        # reversing everything is the same as reversing nothing
        assert D.writhe(orientation_flips(meta, set(range(width)))) == D.writhe()


def test_full_twist_route_census():
    D, meta = cable_of_braid(BraidWord(1, ()), 1, BraidWord(3, ()))
    D.validate()
    assert len(D.crossings) == 6
    for p in range(4):
        fl = orientation_flips(meta, set(range(p)))
        assert D.writhe(fl) == (3 - 2 * p) ** 2 - 3

    D, meta = cable_family_diagram(NEG_TREFOIL, 0, m=1)
    assert len(D.crossings) == 45
    for p in range(4):
        fl = orientation_flips(meta, set(range(p)))
        assert D.writhe(fl) == -9


def test_framing_for_pattern_trade_is_literal():
    for f in (-3, -1, 0):
        A, _ = cable_of_braid(NEG_TREFOIL, f + 1, row_word(1, 0, 0))
        B, _ = cable_of_braid(NEG_TREFOIL, f, row_word(1, 2, 2))
        assert same_diagram(A, B)


def test_row_word_lengths():
    for m in (1, 2):
        for a in range(2 * m + 1):
            for i in range(2 * m + 1):
                assert len(row_word(m, a, i).letters) == 2 * m * a + i


def test_count_inter_crossings_examples():
    ft = full_twist(3, 1)
    assert count_inter_crossings(ft, set(range(3))) == 0
    assert count_inter_crossings(ft, set()) == 0
    for j in range(3):
        assert count_inter_crossings(ft, {j}) == 4
    # words before the full row keep strictly fewer boundary letters
    assert count_inter_crossings(row_word(1, 1, 1), {1}) == 2
    assert count_inter_crossings(row_word(1, 1, 1), {0, 2}) == 2
    assert count_inter_crossings(row_word(1, 0, 0), {2}) == 0
    with pytest.raises(ValueError):
        count_inter_crossings(row_word(1, 1, 2), {0})


def test_linking_of_one_cable_strand_against_rest():
    D, cols = braid_closure(full_twist(3, 1), with_columns=True)
    comp = D.component_of_edge()
    parts = [comp[e] for kind, e in cols]
    assert len(set(parts)) == 3
    assert D.linking_number({parts[0]}, {parts[1], parts[2]}) == 2


def test_orientation_flip_bookkeeping():
    _, meta = cable_of_braid(KINK, 1, BraidWord(3, (1,)))
    with pytest.raises(ValueError):
        orientation_flips(meta, {0})
    assert len(orientation_flips(meta, {0, 1})) == 1

    _, meta = cable_of_braid(KINK, 1, BraidWord(3, ()))
    fl = alternating_flips(meta)
    assert fl == frozenset({meta.strand_component[1]})


def test_cable_survives_pd_round_trip():
    D, _ = cable_of_braid(KINK, 1, BraidWord(3, (1,)))
    again = read_pd(write_pd(D))
    again.validate()
    assert homology_table(again, khovanov(3)) == homology_table(D, khovanov(3))
