"""Invariance properties of the homology tables, on both engines at once.

Every table below is computed by the sweep and by the state cube, and the
two must agree before the property itself is checked.
"""

import random

import pytest

from khovanov_cables.braids import BraidWord, braid_closure, random_braid
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


def tensor(a, b):
    """Graded tensor product of two tables: gradings add, ranks multiply."""
    out = {}
    for ka, da in a.items():
        for kb, db in b.items():
            k = (ka[0] + kb[0], ka[1] + kb[1]) if isinstance(ka, tuple) else ka + kb
            out[k] = out.get(k, 0) + da * db
    return out


@pytest.mark.parametrize("name", sorted(THEORIES))
def test_markov_stabilisation_keeps_the_table(name):
    # closing w sigma_n^(+-1) on n + 1 strands adds one Reidemeister I kink
    th = THEORIES[name]
    rng = random.Random(6007)
    for w, D in random_closures(6007, max_crossings=5):
        n = w.strands
        S = braid_closure(BraidWord(n + 1, w.letters + (rng.choice([n, -n]),)))
        S.validate()
        assert both_engines(S, th) == both_engines(D, th), w.letters


@pytest.mark.parametrize("name", sorted(THEORIES))
def test_disjoint_union_is_the_tensor_product(name):
    th = THEORIES[name]
    pairs = zip(random_closures(7019, max_crossings=3), random_closures(7020, max_crossings=3))
    for (v, A), (w, B) in pairs:
        U = A.disjoint_union(B)
        U.validate()
        assert both_engines(U, th) == tensor(both_engines(A, th), both_engines(B, th)), (
            v.letters,
            w.letters,
        )
