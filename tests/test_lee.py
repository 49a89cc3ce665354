"""Canonical-class gradings and the s-invariant."""

import itertools
import random

import pytest

from khovanov_cables.braids import BraidWord, braid_closure, random_braid
from khovanov_cables.frobenius import bar_natan_deformation, lee_deformation
from khovanov_cables.lee import (
    canonical_classes,
    expected_h_difference,
    lee_homology_dims,
    s_invariant,
)
from khovanov_cables.pdcodes import knot_5_2
from khovanov_cables.scanning import scan_complex


def all_orientations(D):
    n = len(D.components())
    return [
        frozenset(s)
        for k in range(n + 1)
        for s in itertools.combinations(range(n), k)
    ]


def test_s_anchors():
    assert s_invariant(braid_closure(BraidWord(2, (1,)))) == 0
    assert s_invariant(braid_closure(BraidWord(2, (1, 1, 1)))) == 2
    assert s_invariant(braid_closure(BraidWord(2, (-1, -1, -1)))) == -2
    assert s_invariant(braid_closure(BraidWord(3, (1, -2, 1, -2)))) == 0


def test_s_of_twist_knot():
    assert s_invariant(knot_5_2()) == -2
    assert s_invariant(knot_5_2(), p=5) == -2


def test_s_mirror_negates_on_knots():
    for w in [BraidWord(2, (1, 1, 1)), BraidWord(3, (1, 1, 2, 1, 1, 2))]:
        D = braid_closure(w)
        assert s_invariant(D.mirror()) == -s_invariant(D)


def test_torus_knot_s_values():
    for reps, want in [(5, 4), (7, 6)]:
        D = braid_closure(BraidWord(2, (1,) * reps))
        assert s_invariant(D) == want


def test_h_gaps_follow_writhe_census_on_random_links():
    rng = random.Random(2024)
    seen_multi = 0
    for _ in range(12):
        w = random_braid(rng, rng.randint(2, 3), rng.randint(2, 6))
        D = braid_closure(w)
        ors = all_orientations(D)
        if len(ors) > 2:
            seen_multi += 1
        cls = canonical_classes(D, ors)
        for a, b in itertools.product(ors, repeat=2):
            assert cls[b].h - cls[a].h == expected_h_difference(D, a, b), (
                w.letters,
                a,
                b,
            )
    assert seen_multi >= 3


def test_h_gaps_for_bar_natan_theory_too():
    D = braid_closure(BraidWord(2, (1, 1)))
    ors = all_orientations(D)
    cls = canonical_classes(D, ors, theory=bar_natan_deformation(3))
    for a, b in itertools.product(ors, repeat=2):
        assert cls[b].h - cls[a].h == expected_h_difference(D, a, b)


@pytest.mark.parametrize("th", [lee_deformation(3), bar_natan_deformation(3)], ids=["lee", "bar-natan"])
def test_windowed_classes_match_the_full_scan(th):
    # canonical_classes scans one degree around the classes it reads; the
    # full scan here keeps every degree
    rng = random.Random(5127)
    compared = 0
    for _ in range(10):
        D = braid_closure(random_braid(rng, rng.randint(2, 4), rng.randint(2, 7)))
        ors = all_orientations(D)
        base = rng.choice(ors)
        res = scan_complex(D, th, flips=base, orientations=ors)
        full = {}
        for o in ors:
            v = res.cycles[o]
            (h,) = {res.complex.grading[g][0] for g in v}
            full[o] = (h, res.complex.filtration_level(v))
        together = canonical_classes(D, ors, base_flips=base, theory=th)
        assert {o: (c.h, c.level) for o, c in together.items()} == full
        for o in ors:
            alone = canonical_classes(D, [o], base_flips=base, theory=th)[o]
            assert (alone.h, alone.level) == full[o], (len(D.crossings), base, o)
            compared += 1
    assert compared >= 20


def test_lee_dimension_counts_orientations():
    rng = random.Random(11)
    for _ in range(6):
        w = random_braid(rng, rng.randint(2, 4), rng.randint(1, 7))
        D = braid_closure(w)
        dims = lee_homology_dims(D)
        assert sum(dims.values()) == 2 ** len(D.components())


def test_s_depends_on_orientation_for_links():
    D = braid_closure(BraidWord(2, (1, 1)))
    plain = s_invariant(D)
    flipped = s_invariant(D, flips=frozenset({0}))
    assert plain != flipped
