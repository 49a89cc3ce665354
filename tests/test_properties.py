"""Invariance properties of the homology tables, on both engines at once.

Every table below is computed by the sweep and by the state cube, and the
two must agree before the property itself is checked.
"""

import random

import pytest

from khovanov_cables.braids import braid_closure, random_braid
from khovanov_cables.cube import CubeComplex
from khovanov_cables.frobenius import (
    bar_natan_deformation,
    khovanov,
    lee_deformation,
)
from khovanov_cables.scanning import homology_table

THEORIES = {
    "khovanov": khovanov(3),
    "lee": lee_deformation(3),
    "bar_natan": bar_natan_deformation(3),
}


def random_closures(seed, count=12, max_crossings=6):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        w = random_braid(rng, rng.randint(2, 4), rng.randint(1, max_crossings))
        out.append((w, braid_closure(w)))
    return out


def both_engines(D, th):
    table = homology_table(D, th)
    assert table == CubeComplex(D, th).cx.homology_dims()
    return table


def dual(table):
    """(h, q) -> (-h, -q) for an exact table, h -> -h for a deformed one."""
    return {
        ((-k[0], -k[1]) if isinstance(k, tuple) else -k): v
        for k, v in table.items()
    }


@pytest.mark.parametrize("name", sorted(THEORIES))
def test_mirror_dualizes_the_table(name):
    th = THEORIES[name]
    for w, D in random_closures(4241):
        M = D.mirror()
        M.validate()
        assert both_engines(M, th) == dual(both_engines(D, th)), w.letters


@pytest.mark.parametrize("name", sorted(THEORIES))
def test_reversing_every_component_keeps_the_table(name):
    th = THEORIES[name]
    for w, D in random_closures(5113):
        R = D.reverse_all()
        R.validate()
        assert both_engines(R, th) == both_engines(D, th), w.letters
