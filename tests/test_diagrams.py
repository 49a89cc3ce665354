"""Closure diagrams: structure, orientations, placement, smoothings."""

from itertools import product
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from khovanov_cables import planar
from khovanov_cables.braids import (
    BraidWord,
    braid_closure,
    cable_word,
    full_twist,
    random_braid,
    row_word,
)
from khovanov_cables.cobordism import cone_from_cube, cone_over_crossing
from khovanov_cables.diagrams import Crossing, oriented_smoothing, smoothing_arcs, smoothing_pairs
from khovanov_cables.frobenius import khovanov
from khovanov_cables.induction import translation_match
from khovanov_cables.lee import s_invariant

UNKNOT = {(0, -1): 1, (0, 1): 1}
TWO_CIRCLES = {(0, -2): 1, (0, 0): 2, (0, 2): 1}
HOPF = {(0, 0): 1, (0, 2): 1, (2, 4): 1, (2, 6): 1}


def closure(*letters, strands=None):
    n = strands or (max(abs(l) for l in letters) + 1 if letters else 1)
    return braid_closure(BraidWord(n, tuple(letters)))


def oriented_smoothings(D, flips=frozenset()):
    """Per crossing, its smoothing under the orientation reversing flips, read
    through reversed_parts and oriented_smoothing; its sign is 1 - 2 times it."""
    rev_edges, _ = D.reversed_parts(flips)
    return {c: oriented_smoothing(x, rev_edges) for c, x in D.crossings.items()}


def signs_of(D, flips=frozenset()):
    return {c: 1 - 2 * r for c, r in oriented_smoothings(D, flips).items()}


# -- braid words -----------------------------------------------------------


def test_word_roundtrip():
    w = BraidWord(4, (1, -2, 3, 3, -1))
    assert BraidWord.from_text(w.to_text()) == w
    assert w.inverse().inverse() == w
    assert (w * w.inverse()).writhe == 0
    assert w.mirror().writhe == -w.writhe


def test_word_validation():
    with pytest.raises(ValueError):
        BraidWord(2, (2,))
    with pytest.raises(ValueError):
        BraidWord(3, (0,))
    with pytest.raises(ValueError):
        BraidWord(2, (0, 5))
    with pytest.raises(ValueError):
        BraidWord(0, ())


def test_permutation_cycles():
    assert BraidWord(2, (1,)).permutation() == [1, 0]
    assert BraidWord(3, (1, 2)).permutation() == [2, 0, 1]
    assert len(BraidWord(2, (1, 1)).closure_cycles()) == 2
    assert len(BraidWord(2, (1, 1, 1)).closure_cycles()) == 1
    assert len(BraidWord(3, ()).closure_cycles()) == 3


def test_row_word_shapes():
    assert row_word(1, 2, 2).letters == (1, 2, 1, 2, 1, 2)
    assert row_word(0, 0, 0).strands == 1
    assert row_word(0, 0, 0).letters == ()
    w = row_word(2, 3, 1)
    assert w.strands == 5 and len(w.letters) == 13


def test_full_twist_writhe():
    assert full_twist(3, 1).writhe == 6
    assert full_twist(3, -2).writhe == -12
    assert full_twist(1, 5).letters == ()


def test_cable_word_block():
    assert cable_word(BraidWord(2, (1,)), 2).letters == (2, 1, 3, 2)
    assert cable_word(BraidWord(2, (-1,)), 2).letters == (-2, -1, -3, -2)
    w = cable_word(BraidWord(3, (1, -2)), 3)
    assert w.strands == 9 and len(w.letters) == 18
    # cabling preserves writhe density: each letter becomes width^2 letters
    assert w.writhe == 0


# -- closures --------------------------------------------------------------


def test_closure_unknot_one_crossing():
    D = closure(1)
    D.validate()
    assert len(D.crossings) == 1 and len(D.edges) == 2
    assert len(D.components()) == 1
    assert D.writhe() == 1 and D.n_minus() == 0


def test_closure_loops_only():
    D = closure(strands=3)
    D.validate()
    assert len(D.crossings) == 0 and len(D.loops) == 3
    assert len(D.components()) == 3


def test_closure_trefoil():
    D = closure(1, 1, 1)
    D.validate()
    assert len(D.components()) == 1
    assert (D.writhe(), D.n_plus(), D.n_minus()) == (3, 3, 0)
    M = D.mirror()
    M.validate()
    assert (M.writhe(), M.n_plus(), M.n_minus()) == (-3, 0, 3)
    R = D.reverse_all()
    R.validate()
    assert R.writhe() == 3


def test_hopf_linking():
    D = closure(1, 1)
    assert len(D.components()) == 2
    assert D.linking_number({0}, {1}) == 1
    assert D.linking_number({0}, {1}, flips=frozenset({1})) == -1
    assert D.mirror().linking_number({0}, {1}) == -1


def test_flipped_signs():
    D = closure(1, 1)
    assert D.n_minus() == 0
    assert D.n_minus(frozenset({0})) == 2
    assert oriented_smoothings(D) == {c: 0 for c in D.crossings}
    assert oriented_smoothings(D, frozenset({0})) == {c: 1 for c in D.crossings}


# slot ends (1 = an edge's head) of hand-built crossings, over_diag 0:
# three strands in fit no smoothing, a diagonal in at both ends fits both
@pytest.mark.parametrize("ends", [(1, 1, 1, 0), (1, 0, 1, 0)])
def test_oriented_smoothing_rejects_incoherent_crossings(ends):
    x = Crossing([(eid, idx) for eid, idx in enumerate(ends)], over_diag=0)
    with pytest.raises(AssertionError, match="orientation incoherent at a crossing"):
        oriented_smoothing(x, frozenset())


def test_signs_writhe_and_linking_under_every_flip_set():
    rng = Random(4410)
    for _ in range(12):
        w = random_braid(rng, rng.randint(2, 4), rng.randint(1, 9))
        D = braid_closure(w)
        comp = D.component_of_edge()
        ends = {
            c: (comp[x.slots[x.over_diag][0]], comp[x.slots[(x.over_diag + 1) % 4][0]])
            for c, x in D.crossings.items()
        }
        # the closure makes one crossing per letter, in order, signed like it
        base = signs_of(D)
        assert base == {c: 1 if l > 0 else -1 for c, l in zip(sorted(D.crossings), w.letters)}
        k = len(D.components())
        for bits in product((0, 1), repeat=k):
            flips = frozenset(i for i, b in enumerate(bits) if b)
            signs = signs_of(D, flips)
            # reversing exactly one strand of a crossing reverses its sign
            assert signs == {
                c: base[c] * (-1) ** ((a in flips) + (b in flips)) for c, (a, b) in ends.items()
            }
            values = list(signs.values())
            assert D.writhe(flips) == sum(values)
            assert (D.n_plus(flips), D.n_minus(flips)) == (values.count(1), values.count(-1))
            lk = {
                (a, b): D.linking_number({a}, {b}, flips)
                for a in range(k)
                for b in range(a + 1, k)
            }
            for (a, b), v in lk.items():
                assert v == D.linking_number({a}, {b}) * (-1) ** ((a in flips) + (b in flips))
            own = sum(s for c, s in signs.items() if ends[c][0] == ends[c][1])
            assert D.writhe(flips) == own + 2 * sum(lk.values())
            assert D.linking_number(flips, set(range(k)) - flips, flips) == sum(
                v for (a, b), v in lk.items() if (a in flips) != (b in flips)
            )


def test_crossing_table_agrees_with_a_per_crossing_derivation():
    # the oracle reads every crossing's smoothing through reversed_parts and
    # oriented_smoothing; the pair counts must give the same writhe, n± and
    # linking numbers
    rng = Random(7215)
    compared = 0
    for _ in range(16):
        D = braid_closure(random_braid(rng, rng.randint(2, 5), rng.randint(1, 10)))
        if rng.random() < 0.3:
            D = D.with_free_loop()
        comp = D.component_of_edge()
        ends = {
            c: (comp[x.slots[x.over_diag][0]], comp[x.slots[(x.over_diag + 1) % 4][0]])
            for c, x in D.crossings.items()
        }
        k = len(D.components())
        for bits in product((0, 1), repeat=k):
            flips = frozenset(i for i, b in enumerate(bits) if b)
            signs = signs_of(D, flips)
            values = list(signs.values())
            assert D.writhe(flips) == sum(values)
            assert (D.n_plus(flips), D.n_minus(flips)) == (values.count(1), values.count(-1))
            for sub in product((0, 1), repeat=k):
                a = {i for i, b in enumerate(sub) if b}
                b = set(range(k)) - a
                twice = sum(signs[c] for c, (o, u) in ends.items() if (o in a) != (u in a))
                assert 2 * D.linking_number(a, b, flips) == twice
                compared += 1
    assert compared > 200


def test_multi_piece_closure():
    # two separated pieces plus two untouched strands
    D = closure(1, 1, 4, 4, strands=6)
    D.validate()
    assert len(D.pieces()) == 2
    assert len(D.loops) == 2
    assert len(D.components()) == 6


def test_disjoint_union_and_free_loop():
    A = closure(1, 1, 1)
    B = closure(1, 1)
    D = A.disjoint_union(B)
    D.validate()
    assert len(D.crossings) == 5 and len(D.components()) == 3
    E = A.with_free_loop()
    E.validate()
    assert len(E.components()) == 2


def test_add_kink():
    T = closure(1, 1, 1)
    e = min(T.edges)
    for sign in (1, -1):
        K = T.add_kink(e, sign)
        K.validate()
        assert K.writhe() == 3 + sign
        assert len(K.crossings) == 4
        assert len(K.components()) == 1
    K = T.add_kink(e, 1)
    KK = K.add_kink(min(K.edges), -1)
    KK.validate()
    assert KK.writhe() == 3


def placed_diagrams():
    """Diagrams with several pieces or hosted loops: the two-piece closure
    and random closures, some with a free loop added."""
    rng = Random(31)
    out = [closure(1, 1, 4, 4, strands=6)]
    for _ in range(29):
        D = braid_closure(random_braid(rng, rng.randint(2, 6), rng.randint(1, 6)))
        out.append(D.with_free_loop(rng.random() < 0.5) if rng.random() < 0.5 else D)
    return out


def test_edits_start_from_an_empty_component_cache():
    # every edit works on a fresh copy, which never carries the source's
    # caches: the components and the crossing table
    edits = 0
    for D in placed_diagrams():
        D.components()
        D.crossing_table()
        edited = [
            D.mirror(),
            D.reverse_all(),
            D.disjoint_union(closure(1, 1).with_free_loop()),
            D.with_free_loop(),
        ]
        edited += [D.add_kink(e, sign) for e in sorted(D.edges) for sign in (1, -1)]
        for E in edited:
            assert E.components() == E.copy().components()
            assert E.crossing_table() == E.copy().crossing_table()
        edits += len(edited)
    assert edits > 300
    # each low-level constructor resets both caches
    D = closure(1, 1)
    for build in (lambda: D.new_loop(False, None), lambda: D.new_crossing(0)):
        D.crossing_table()
        build()
        assert D._components is None and D._crossing_table is None


def placement(D):
    return D.crossings, D.edges, D.loops, D.piece_data


def host_face_edges(D):
    """Per loop, the edges bounding its host face; None in the outer face."""
    face = planar.face_of(D)
    return {
        lid: None if x.host is None else {e for (e, _), f in face.items() if f == face[x.host]}
        for lid, x in D.loops.items()
    }


def loop_parities(D):
    return planar.parities(D, frozenset(), frozenset())[1]


def test_reverse_all_is_an_involution_with_placement():
    hosted = 0
    for D in placed_diagrams():
        R = D.reverse_all()
        R.validate()
        # flipped darts keep their geometric side, so loops stay put
        assert host_face_edges(R) == host_face_edges(D)
        hosted += sum(f is not None for f in host_face_edges(D).values())
        assert placement(R.reverse_all()) == placement(D)
    assert hosted >= 10


def test_kinks_carry_placement_darts():
    with_loops = kinks = 0
    for D in placed_diagrams():
        with_loops += bool(D.loops)
        darts = [x.host for x in D.loops.values()]
        darts += [d for pair in D.piece_data.values() for d in pair]
        darts = [d for d in darts if d is not None]
        s, loops = s_invariant(D), loop_parities(D)
        for eid in sorted({e for e, _ in darts}):
            for sign in (1, -1):
                K = D.add_kink(eid, sign)
                K.validate()
                kinks += 1
                # the first half keeps the kinked edge's tail
                (e1,) = [e for e, x in K.edges.items() if x.ends[0] == D.edges[eid].ends[0]]
                moved = {(eid, t): (e1, t) for t in (0, 1)}
                assert {l: x.host for l, x in K.loops.items()} == {
                    l: moved.get(x.host, x.host) for l, x in D.loops.items()
                }
                assert K.piece_data == {
                    k: (moved.get(own, own), moved.get(host, host))
                    for k, (own, host) in D.piece_data.items()
                }
                assert s_invariant(K) == s
                assert loop_parities(K) == loops
    assert with_loops >= 20 and kinks >= 100


# -- smoothings as cone blocks --------------------------------------------


def assert_blocks(D, zero, one):
    """zero and one are (table, shift) pairs: at D's first crossing, the
    0-side and 1-side Khovanov tables of both cones are each table moved
    by its shift."""
    c = min(D.crossings)
    for make in (cone_from_cube, cone_over_crossing):
        cone = make(D, khovanov(3), c)
        assert translation_match(cone.quot_complex().homology_dims(), zero[0]) == zero[1]
        assert translation_match(cone.sub_complex().homology_dims(), one[0]) == one[1]


def test_trefoil_cone_blocks_are_its_smoothings():
    # the oriented 0-smoothing leaves the positive Hopf link, the 1-smoothing
    # a two-crossing unknot
    assert_blocks(closure(1, 1, 1), (HOPF, (0, 1)), (UNKNOT, (3, 8)))


def test_kink_cone_blocks_are_its_smoothings():
    # both smoothings of the one-crossing unknot shed every crossing: the
    # 0-smoothing leaves two circles, the 1-smoothing one
    assert_blocks(closure(1), (TWO_CIRCLES, (0, 1)), (UNKNOT, (1, 2)))


# -- canonical labels from the checkerboard colouring ----------------------


def state_circles(D, smoothings):
    arcs = [a for c, x in D.crossings.items() for a in smoothing_arcs(x, smoothings[c])]
    return planar.circles_of_arcs(D, arcs)


def circle_parities(D, flips=frozenset()):
    """Parity of each circle of the oriented resolution, read off its lowest
    edge (or its loop), in circles_of_arcs order."""
    edges, loops = planar.parities(D, *D.reversed_parts(flips))
    return [
        edges[min(c.edges)] if c.loop is None else loops[c.loop]
        for c in state_circles(D, oriented_smoothings(D, flips))
    ]


def circle_walks(D, smoothings):
    """Each edged circle of a state as the darts met walking once round it."""
    partner = {}
    for c, x in D.crossings.items():
        for sa, sb in smoothing_pairs(x.over_diag, smoothings[c]):
            partner[(c, sa)], partner[(c, sb)] = sb, sa
    seen, walks = set(), []
    for eid in sorted(D.edges):
        dart, walk = (eid, 1), []
        while dart[0] not in seen:
            seen.add(dart[0])
            walk.append(dart)
            c, s = D.end_of_dart(dart)
            e, idx = D.crossings[c].slots[partner[(c, s)]]
            dart = (e, 1 - idx)
        if walk:
            assert dart == walk[0], "a circle walk did not close up"
            walks.append(walk)
    return walks


def test_trefoil_state_circles():
    D = closure(1, 1, 1)
    cids = sorted(D.crossings)
    counts = {}
    for bits in product((0, 1), repeat=3):
        counts[bits] = len(state_circles(D, dict(zip(cids, bits))))
    assert counts[(0, 0, 0)] == 2
    assert counts[(1, 1, 1)] == 3
    for bits, n in counts.items():
        k = sum(bits)
        assert n == (2 if k == 0 else k)


def test_trefoil_oriented_state_parities():
    # two nested circles, both counterclockwise: nesting 0 and 1
    assert circle_parities(closure(1, 1, 1)) == [0, 1]


def test_hopf_oriented_state_parities():
    assert circle_parities(closure(1, 1)) == [0, 1]


def test_nested_loops_and_pieces_depths():
    # identity smoothing: columns nest west to east (nesting 0, 1, 2, 3, 2,
    # 4); untouched strands sit in the face of the nearest edged column
    # west of them
    assert circle_parities(closure(1, 1, 4, 4, strands=6)) == [0, 1, 0, 1, 0, 0]
    # a piece hosted in a face at depth 3 (nesting 1, 0, 2, then 3, 4) and
    # a loop at depth 5: both host faces have colour 1
    assert circle_parities(closure(1, 2, 4, strands=6)) == [1, 0, 0, 1, 0, 1]


def test_loop_parity_matches_edged_presentation():
    # unlink beside a trefoil, once as a loop and once as a closure strand:
    # the loop (third strand, nesting 2) reads parity 0
    A = closure(1, 1, 1, strands=3)
    (lid,) = A.loops
    assert circle_parities(A) == [0, 1, 0]
    assert loop_parities(A) == {lid: 0}


def test_reversal_flips_cw_not_nesting():
    # reversing a circle flips its clockwise indicator, not its nesting
    D = closure(1, 1, 1)
    assert circle_parities(D, frozenset({0})) == [1 - k for k in circle_parities(D)]


def test_state_sweep_invariants():
    # in every state, one colour lies left of a circle all the way round
    # and the other right of it: smoothing welds sectors of one colour
    rng = Random(23)
    walks = 0
    for _ in range(15):
        D = braid_closure(random_braid(rng, rng.randint(2, 4), rng.randint(1, 5)))
        left = planar.checkerboard(D)
        cids = sorted(D.crossings)
        for bits in product((0, 1), repeat=len(cids)):
            for walk in circle_walks(D, dict(zip(cids, bits))):
                assert {left[d] for d in walk} == {left[walk[0]]}
                assert {left[(e, 1 - t)] for e, t in walk} == {1 - left[walk[0]]}
                walks += 1
    assert walks > 100


@settings(max_examples=30, deadline=None)
@given(st.randoms(use_true_random=False))
def test_rasmussen_alternation_in_every_orientation(rnd):
    # closures with loops and split pieces: in every orientation, each edge
    # of a circle of the oriented resolution reads the circle's parity, and
    # the two circles at each crossing differ in parity
    D = braid_closure(random_braid(rnd, rnd.randint(1, 5), rnd.randint(1, 6)))
    if rnd.random() < 0.5:
        D = D.with_free_loop(rnd.random() < 0.5)
    if rnd.random() < 0.5:
        D = closure(1, 1, 1, strands=3).disjoint_union(D)
    if D.edges and rnd.random() < 0.5:
        D = D.add_kink(rnd.choice(sorted(D.edges)), rnd.choice((1, -1)))
    k = len(D.components())
    for flips in product((0, 1), repeat=k):
        flips = frozenset(i for i in range(k) if flips[i])
        edges, loops = planar.parities(D, *D.reversed_parts(flips))
        circles = state_circles(D, oriented_smoothings(D, flips))
        circle_of = {}
        for i, c in enumerate(circles):
            assert c.loop is not None or len({edges[e] for e in c.edges}) == 1
            circle_of.update((e, i) for e in c.edges)
        for x in D.crossings.values():
            a, b = {circle_of[e] for e, _ in x.slots}
            assert edges[min(circles[a].edges)] != edges[min(circles[b].edges)]
        assert set(loops) == set(D.loops)


@settings(max_examples=40, deadline=None)
@given(st.randoms(use_true_random=False))
def test_closure_always_validates(rnd):
    w = random_braid(rnd, rnd.randint(1, 6), rnd.randint(0, 8))
    D = braid_closure(w)
    D.validate()
    assert D.writhe() == w.writhe
    assert len(D.components()) == len(w.closure_cycles())
    assert D.n_plus() == sum(l > 0 for l in w.letters)
    assert D.n_minus() == sum(l < 0 for l in w.letters)
