"""Grid-surgery cables against the braid route, plus writhe censuses."""

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
    cable_insert,
    cable_of_braid,
    orientation_flips,
)
from khovanov_cables.diagrams import LinkDiagram
from khovanov_cables.frobenius import khovanov
from khovanov_cables.pdcodes import knot_5_2, read_pd, write_pd
from khovanov_cables.scanning import homology_table

TREFOIL = BraidWord(2, (1, 1, 1))
NEG_TREFOIL = BraidWord(2, (-1, -1, -1))


def kinked_unknot():
    return braid_closure(BraidWord(2, (1,)))


def same_diagram(A, B):
    if set(A.crossings) != set(B.crossings) or set(A.edges) != set(B.edges):
        return False
    for c in A.crossings:
        x, y = A.crossings[c], B.crossings[c]
        if x.over_diag != y.over_diag or x.slots != y.slots:
            return False
    return all(A.edges[e].ends == B.edges[e].ends for e in A.edges)


def test_pure_blackboard_square_cable_is_positive_hopf():
    D, _ = cable_insert(kinked_unknot(), 1, BraidWord(2, ()))
    D.validate()
    assert len(D.crossings) == 4
    assert D.writhe() == 4
    hopf = braid_closure(BraidWord(2, (1, 1)))
    assert homology_table(D, khovanov(3)) == homology_table(hopf, khovanov(3))


def test_spliced_letter_keeps_sign_and_joins_strands():
    D, meta = cable_insert(kinked_unknot(), 1, BraidWord(2, (1,)))
    D.validate()
    assert len(D.crossings) == 5 and D.writhe() == 5
    assert meta.strand_component[0] == meta.strand_component[1]

    D, meta = cable_insert(kinked_unknot(), 1, BraidWord(3, (1,)))
    D.validate()
    assert len(D.crossings) == 10 and D.writhe() == 10
    a, b, c = meta.strand_component
    assert a == b != c

    D, _ = cable_insert(kinked_unknot(), 1, BraidWord(2, (-1,)))
    D.validate()
    assert D.writhe() == 3


def test_blackboard_cable_writhe_census():
    # one-framed cable of the one-kink round diagram: no corrective twists,
    # so reversing p strands lands exactly on (width - 2p)^2
    for width in (3, 5):
        D, meta = cable_insert(kinked_unknot(), 1, BraidWord(width, ()))
        D.validate()
        assert len(D.crossings) == width * width
        for p in range(width + 1):
            fl = orientation_flips(meta, set(range(p)))
            assert D.writhe(fl) == (width - 2 * p) ** 2
        # reversing everything is the same as reversing nothing
        assert D.writhe(orientation_flips(meta, set(range(width)))) == D.writhe()


def test_full_twist_route_census():
    U = LinkDiagram().with_free_loop()
    D, meta = cable_insert(U, 1, BraidWord(3, ()))
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


def test_grid_route_matches_braid_route():
    cases = [
        (TREFOIL, 3, BraidWord(2, ())),
        (TREFOIL, 2, BraidWord(2, (1,))),
        (TREFOIL, 3, BraidWord(2, (-1,))),
    ]
    for base, f, pattern in cases:
        G, _ = cable_insert(braid_closure(base), f, pattern)
        G.validate()
        B, _ = cable_of_braid(base, f, pattern)
        B.validate()
        assert homology_table(G, khovanov(3)) == homology_table(B, khovanov(3))


def test_framing_for_pattern_trade_is_literal():
    for f in (-3, -1, 0):
        A, _ = cable_of_braid(NEG_TREFOIL, f + 1, row_word(1, 0, 0))
        B, _ = cable_of_braid(NEG_TREFOIL, f, row_word(1, 2, 2))
        assert same_diagram(A, B)
        host = braid_closure(NEG_TREFOIL)
        A, _ = cable_insert(host, f + 1, row_word(1, 0, 0))
        B, _ = cable_insert(host, f, row_word(1, 2, 2))
        assert same_diagram(A, B)


def test_width_one_routes():
    U = LinkDiagram().with_free_loop()
    K, _ = cable_insert(U, 1, BraidWord(1, ()))
    K.validate()
    assert len(K.crossings) == 1 and K.writhe() == 1

    host = braid_closure(NEG_TREFOIL)
    assert same_diagram(cable_insert(host, -3, BraidWord(1, ()))[0], host)

    K, _ = cable_insert(host, -5, BraidWord(1, ()))
    K.validate()
    assert len(K.crossings) == 5 and K.writhe() == -5

    assert len(cable_insert(U, 0, BraidWord(1, ()))[0].crossings) == 0


def test_row_word_lengths():
    for m in (1, 2):
        for a in range(2 * m + 1):
            for i in range(2 * m + 1):
                assert len(row_word(m, a, i).letters) == 2 * m * a + i


def test_splice_respects_placement_darts():
    K = knot_5_2()
    D, _ = cable_insert(K, -7, BraidWord(2, ()))
    D.validate()
    assert len(D.crossings) == 28 and D.writhe() == -28


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
    _, meta = cable_insert(kinked_unknot(), 1, BraidWord(3, (1,)))
    with pytest.raises(ValueError):
        orientation_flips(meta, {0})
    assert len(orientation_flips(meta, {0, 1})) == 1

    _, meta = cable_insert(kinked_unknot(), 1, BraidWord(3, ()))
    fl = alternating_flips(meta)
    assert fl == frozenset({meta.strand_component[1]})


def test_cable_survives_pd_round_trip():
    D, _ = cable_insert(kinked_unknot(), 1, BraidWord(3, (1,)))
    again = read_pd(write_pd(D))
    again.validate()
    assert homology_table(again, khovanov(3)) == homology_table(D, khovanov(3))
