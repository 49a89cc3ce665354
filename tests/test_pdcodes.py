"""PD-code interchange and the stock 7-crossing twist knot diagram."""

import pytest

from khovanov_cables.braids import BraidWord, braid_closure
from khovanov_cables.cube import CubeComplex
from khovanov_cables.frobenius import khovanov
from khovanov_cables.invariants import determinant_from_dims
from khovanov_cables.pdcodes import PRETZEL_7_5, knot_5_2, read_pd, write_pd

# frozen mod-3 table of the negative twist knot with seven crossings
TWIST_KNOT_TABLE = {
    (-5, -13): 1,
    (-4, -9): 1,
    (-3, -9): 1,
    (-2, -7): 1,
    (-2, -5): 1,
    (-1, -3): 1,
    (0, -3): 1,
    (0, -1): 1,
}


def table(D):
    return CubeComplex(D, khovanov(3)).cx.homology_dims()


def test_round_trip_preserves_homology():
    words = [
        BraidWord(2, (1, 1, 1)),
        BraidWord(3, (1, -2, 1, -2)),
        BraidWord(3, (1, 1, 1, 2, -1, 2)),
    ]
    for w in words:
        D = braid_closure(w)
        again = read_pd(write_pd(D))
        again.validate()
        assert table(again) == table(D), w.letters


def test_read_pd_rejects_bad_label_multiplicity():
    with pytest.raises(ValueError):
        read_pd("PD[X[1,2,3,4]]")
    with pytest.raises(ValueError):
        read_pd("PD[X[1,2,1,2], X[1,3,4,3]]")


def test_read_pd_rejects_component_that_never_goes_under():
    # two round strands, one always on top: edge directions undecidable
    with pytest.raises(ValueError):
        read_pd("PD[X[1,3,2,4], X[2,4,1,3]]")


def test_pretzel_core_is_positive_mirror():
    D = read_pd(PRETZEL_7_5)
    assert len(D.crossings) == 5
    assert D.writhe() == -5
    assert D.n_plus() == 0


def test_twist_knot_structure():
    K = knot_5_2()
    K.validate()
    assert len(K.crossings) == 7
    assert K.writhe() == -7
    assert K.n_plus() == 0
    assert len(K.components()) == 1


def test_twist_knot_table_and_determinant():
    dims = table(knot_5_2())
    assert dims == TWIST_KNOT_TABLE
    assert determinant_from_dims(dims) == 7
    assert sum(dims.values()) == 8


def test_twist_knot_agrees_with_braid_presentation():
    B = braid_closure(BraidWord(3, (1, 1, 1, 2, -1, 2))).mirror()
    assert table(B) == TWIST_KNOT_TABLE
