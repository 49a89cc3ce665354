"""Unit tests for the mod-p kernels and the sparse complex machinery."""

from __future__ import annotations

import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from khovanov_cables import chain_algebra
from khovanov_cables.braids import BraidWord, braid_closure
from khovanov_cables.chain_algebra import (
    HomologySpace,
    Matrix,
    ScalarComplex,
    add_into,
    induced_matrix,
    inv_mod,
    nullspace,
    product_is_zero,
    rank,
    row_reduce,
    solve,
)
from khovanov_cables.cube import CubeComplex
from khovanov_cables.frobenius import khovanov, lee_deformation
from khovanov_cables.scanning import homology_table

PRIMES = (2, 3, 5)


# The package's dense matrices are Matrix objects; the tests build and
# check them as numpy arrays, converting at each call.


def mat(A) -> Matrix:
    A = np.asarray(A, dtype=np.int64)
    return Matrix(A.tolist(), A.shape[1])


def arr(M: Matrix) -> np.ndarray:
    return np.array(M, dtype=np.int64).reshape(M.shape)


def test_inv_mod():
    for p in (2, 3, 5, 7):
        for a in range(1, p):
            assert (a * inv_mod(a, p)) % p == 1
    with pytest.raises(ZeroDivisionError):
        inv_mod(0, 3)
    with pytest.raises(ZeroDivisionError):
        inv_mod(6, 3)


def test_row_reduce_and_rank():
    rng = random.Random(11)
    for _ in range(40):
        p = rng.choice(PRIMES)
        m, n = rng.randrange(0, 7), rng.randrange(0, 7)
        A = np.array(
            [[rng.randrange(p) for _ in range(n)] for _ in range(m)], dtype=np.int64
        ).reshape(m, n)
        R, pivots = row_reduce(mat(A), p)
        R = arr(R)
        assert pivots == sorted(pivots)
        r = len(pivots)
        assert rank(mat(A), p) == rank(mat(A.T), p) == rank(mat(A).T, p) == r
        # rows past the rank vanish, pivot columns are unit vectors
        assert not R[r:].any()
        for i, c in enumerate(pivots):
            col = np.zeros(m, dtype=np.int64)
            col[i] = 1
            assert (R[:, c] == col).all()
        K = nullspace(mat(A), p)
        assert K.shape == (n, n - r)
        K = arr(K)
        if K.size:
            assert not ((A @ K) % p).any()
            assert rank(mat(K), p) == n - r


def full_row_reduce(A, p):
    """The row reduction that rewrites the whole matrix at every pivot,
    kept as the oracle for row_reduce."""
    R = np.mod(A.astype(np.int64, copy=True), p)
    nrows, ncols = R.shape
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        hot = np.nonzero(R[r:, c])[0]
        if hot.size == 0:
            continue
        i = r + int(hot[0])
        if i != r:
            R[[r, i]] = R[[i, r]]
        R[r] = (R[r] * inv_mod(int(R[r, c]), p)) % p
        other = R[:, c].copy()
        other[r] = 0
        if other.any():
            R = (R - np.outer(other, R[r])) % p
        pivots.append(c)
        r += 1
    return R, pivots


def assert_same_reduction(A, p):
    R, pivots = row_reduce(mat(A), p)
    R0, pivots0 = full_row_reduce(np.asarray(A, dtype=np.int64), p)
    assert pivots == pivots0
    assert R.shape == R0.shape and (arr(R) == R0).all()
    assert all(type(x) is int for row in R for x in row)


@pytest.mark.parametrize("p", PRIMES)
def test_row_reduce_matches_full_reduction(p):
    rng = np.random.default_rng(p)
    shapes = [(0, 0), (0, 4), (5, 0), (1, 1), (7, 3), (3, 7), (12, 12), (20, 31)]
    for m, n in shapes:
        for fill in (0.1, 0.5, 1.0):
            for _ in range(4):
                A = rng.integers(1, p, size=(m, n)) * (rng.random((m, n)) < fill)
                # entries outside 0..p-1 are reduced first
                assert_same_reduction(A + p * rng.integers(-2, 3, size=(m, n)), p)


@pytest.mark.parametrize("theory", [khovanov(3), lee_deformation(3)])
def test_row_reduce_matches_full_reduction_on_a_cube(theory):
    cx = CubeComplex(braid_closure(BraidWord(3, (1, -2, 1, -2))), theory).cx
    hs = sorted({h for h, _ in cx.grading.values()})
    for h in hs:
        A = arr(cx.dense_block(cx.gens_at(h), cx.gens_at(h + 1)))
        assert_same_reduction(A, cx.p)
        assert_same_reduction(A.T, cx.p)


def test_solve_negative_case():
    A = Matrix([[1], [0]], 1)
    assert solve(A, Matrix([[0], [1]], 1), 3) is None
    assert solve(A, Matrix([[2], [1]], 1), 3) is None
    assert solve(A, Matrix([[2], [0]], 1), 3) is not None


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 5),
    st.integers(0, 5),
    st.sampled_from(PRIMES),
    st.randoms(use_true_random=False),
)
def test_solve_roundtrip(m, n, p, rng):
    A = np.array(
        [[rng.randrange(p) for _ in range(n)] for _ in range(m)], dtype=np.int64
    ).reshape(m, n)
    for k in (1, 2):
        x = np.array([rng.randrange(p) for _ in range(n * k)], dtype=np.int64)
        b = (A @ x.reshape(n, k)) % p
        x2 = solve(mat(A), mat(b), p)
        assert x2 is not None and x2.shape == (n, k)
        assert ((A @ arr(x2)) % p == b).all()


def test_matrix_solve_is_columnwise_solve():
    rng = np.random.default_rng(5)
    spoiled = 0
    for p in PRIMES:
        for m, n, k in [(4, 6, 3), (6, 3, 4), (5, 5, 1), (3, 0, 2), (0, 3, 2)]:
            A = rng.integers(0, p, size=(m, n)) * (rng.random((m, n)) < 0.6)
            B = (A @ rng.integers(0, p, size=(n, k))) % p
            X = solve(mat(A), mat(B), p)
            assert X is not None and X.shape == (n, k)
            for j in range(k):
                assert (arr(X)[:, j] == arr(solve(mat(A), mat(B[:, [j]]), p))[:, 0]).all()
            # one column outside the span spoils the whole matrix
            outside = [e for e in np.eye(m, dtype=np.int64) if solve(mat(A), mat(e[:, None]), p) is None]
            for e in outside[:1]:
                for j in range(k):
                    bad = B.copy()
                    bad[:, j] = e
                    assert solve(mat(A), mat(bad), p) is None
                    spoiled += 1
    assert spoiled


@pytest.mark.parametrize("m, n", [(0, 0), (0, 3), (3, 0)])
def test_dense_helpers_on_matrices_without_cells(m, n):
    p = 3
    A = Matrix.zeros(m, n)
    assert A.shape == (m, n) and A.T.shape == (n, m)
    assert rank(A, p) == rank(A.T, p) == 0
    # every column is free
    K = nullspace(A, p)
    assert K.shape == (n, n) and (arr(K) == np.eye(n, dtype=np.int64)).all()
    for k in (0, 2):
        X = solve(A, Matrix.zeros(m, k), p)
        assert X is not None and X.shape == (n, k) and not arr(X).any()
    if m:
        # no column to span a nonzero right-hand side
        assert solve(A, Matrix([[1] for _ in range(m)], 1), p) is None


def test_product_is_zero_matches_numpy():
    rng = np.random.default_rng(9)
    seen = set()
    for p in PRIMES:
        for m, k, n in [(0, 3, 2), (3, 0, 2), (2, 3, 0), (1, 1, 1), (3, 4, 2), (4, 2, 5)]:
            for fill in (0.0, 0.3, 1.0):
                A = rng.integers(0, p, size=(m, k)) * (rng.random((m, k)) < fill)
                B = rng.integers(0, p, size=(k, n)) * (rng.random((k, n)) < fill)
                want = not ((A @ B) % p).any()
                assert product_is_zero(mat(A), mat(B), p) == want, (p, A, B)
                seen.add(want)
    assert seen == {True, False}
    # zero mod 3 though not over the integers, and a product that is not zero
    assert product_is_zero(Matrix([[1, 1]], 2), Matrix([[1], [2]], 1), 3)
    assert not product_is_zero(Matrix([[1, 1]], 2), Matrix([[1], [1]], 1), 3)


def test_vec_helpers():
    p = 5
    a = {1: 2, 2: 3}
    assert add_into(dict(a), a.items(), p, -1) == {}
    assert add_into(dict(a), {2: 2}.items(), p) == {1: 2}


# -- complex construction helpers ----------------------------------------


def build_reference_complex(rng, p, q_exact, pieces=20, moves=60):
    """Random complex with known homology.

    Start from a direct sum of isolated generators and acyclic two-step
    pieces, then shuffle the basis with filtered elementary moves. The
    moves conjugate the differential, so the homology of the result is the
    bookkept answer by construction.
    """
    cx = ScalarComplex(p, q_exact=q_exact)
    expected_graded: dict[tuple[int, int], int] = {}
    expected_filtered: dict[int, int] = {}
    for _ in range(pieces):
        h = rng.randrange(-2, 4)
        q = rng.randrange(-4, 6)
        if rng.random() < 0.45:
            cx.add_generator(h, q)
            expected_graded[(h, q)] = expected_graded.get((h, q), 0) + 1
            expected_filtered[h] = expected_filtered.get(h, 0) + 1
        else:
            q2 = q if q_exact else q + 2 * rng.randrange(0, 2)
            x = cx.add_generator(h, q)
            y = cx.add_generator(h + 1, q2)
            cx.add_entry(x, y, rng.randrange(1, p))
    gens = cx.generators()
    for _ in range(moves):
        a, b = rng.choice(gens), rng.choice(gens)
        if a == b:
            continue
        ha, qa = cx.grading[a]
        hb, qb = cx.grading[b]
        if ha != hb or (q_exact and qa != qb) or qb < qa:
            continue
        c = rng.randrange(1, p)
        # basis move e_a -> e_a + c e_b: column of a picks up c * column of b,
        # rows feeding a leak -c times onto b
        for w, cw in list(cx.cols[b].items()):
            cx.add_entry(a, w, c * cw)
        for z, alpha in list(cx.rows[a].items()):
            cx.add_entry(z, b, -c * alpha)
    cx.check_d_squared()
    expected = expected_graded if q_exact else expected_filtered
    return cx, {k: v for k, v in expected.items() if v}


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("p", PRIMES)
def test_simplify_preserves_graded_homology(seed, p):
    rng = random.Random(seed)
    cx, expected = build_reference_complex(rng, p, q_exact=True)
    before = cx.homology_dims()
    assert before == expected
    cx.simplify()
    # a q-exact complex over a field reduces to zero differential
    assert all(not col for col in cx.cols.values())
    assert cx.homology_dims() == expected


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("p", (3, 5))
def test_simplify_preserves_filtered_homology(seed, p):
    rng = random.Random(100 + seed)
    cx, expected = build_reference_complex(rng, p, q_exact=False)
    assert cx.homology_dims() == expected
    for h, d in expected.items():
        assert HomologySpace(cx, h).dim == d
    cx.simplify()
    for s, col in cx.cols.items():
        for t in col:
            assert cx.grading[t][1] > cx.grading[s][1]
    assert cx.homology_dims() == expected


def test_copy_is_the_whole_restriction_and_shares_no_dict():
    cx, _ = build_reference_complex(random.Random(7), 3, q_exact=True)
    cx.simplify(side={g for g in cx.grading if g % 2})  # gaps in the ids, entries left
    assert any(cx.cols.values())
    dup, full = cx.copy(), cx.restrict(cx.grading)
    for name in ("grading", "cols", "rows"):
        a, b = getattr(dup, name), getattr(full, name)
        assert a == b and list(a) == list(b) and a is not getattr(cx, name)
        if name != "grading":
            assert all(list(a[g]) == list(b[g]) and a[g] is not getattr(cx, name)[g] for g in a)
    assert (dup.p, dup.q_exact, dup._next_id) == (full.p, full.q_exact, full._next_id)


def test_simplify_cancels_the_cheapest_pivot_first():
    # A filtered complex: (a, y) and (b, y) are pivots competing for y, and
    # b -> w jumps q, so it is no pivot.  Cancelling (b, y) composes
    # a -> y -> b -> w, while (a, y) makes no composition and goes first.
    cx = ScalarComplex(3, q_exact=False)
    a, b, y, w = (cx.add_generator(h, q) for h, q in ((0, 0), (0, 0), (1, 0), (1, 3)))
    for src, dst in ((a, y), (b, y), (b, w)):
        cx.add_entry(src, dst, 1)
    cx.simplify()
    assert sorted(cx.grading) == [b, w]
    assert cx.cols == {b: {w: 1}, w: {}}


def test_simplify_keeps_the_fill_in_down(monkeypatch):
    # Stack-order elimination makes 3 727 835 add_entry calls on this cube.
    D = braid_closure(BraidWord(4, (-1, 3, -1, -3, -2, 3, 3, -3)))
    cube = CubeComplex(D, lee_deformation(3))
    add_entry = ScalarComplex.add_entry
    calls = [0]

    def counted(cx, *args):
        calls[0] += 1
        return add_entry(cx, *args)

    monkeypatch.setattr(ScalarComplex, "add_entry", counted)
    dims = cube.cx.homology_dims()
    monkeypatch.undo()
    assert calls[0] <= 25_000
    assert dims == homology_table(D, lee_deformation(3))


def test_grading_asserts():
    cx = ScalarComplex(3, q_exact=True)
    a = cx.add_generator(0, 0)
    b = cx.add_generator(1, 2)
    c = cx.add_generator(2, 0)
    with pytest.raises(AssertionError):
        cx.add_entry(a, b, 1)  # q jump in a q-exact complex
    with pytest.raises(AssertionError):
        cx.add_entry(a, c, 1)  # h jump of 2
    fx = ScalarComplex(3, q_exact=False)
    x = fx.add_generator(0, 2)
    y = fx.add_generator(1, 0)
    with pytest.raises(AssertionError):
        fx.add_entry(x, y, 1)  # filtered differential cannot lower q


def test_filtration_level_handmade():
    # gens: x at (0, 1); targets y at (1, 1), z at (1, 3); d(x) = y + z
    fx = ScalarComplex(5, q_exact=False)
    x = fx.add_generator(0, 1)
    y = fx.add_generator(1, 1)
    z = fx.add_generator(1, 3)
    fx.add_entry(x, y, 1)
    fx.add_entry(x, z, 1)
    fx.check_d_squared()
    # y + z is a boundary
    assert fx.filtration_level({y: 1, z: 1}) is None
    # y alone is homologous to -z, which lives at level 3
    assert fx.filtration_level({y: 1}) == 3
    assert fx.filtration_level({z: 1}) == 3
    # two-circle style degree-0 complex with no differential
    ux = ScalarComplex(3, q_exact=False)
    one = ux.add_generator(0, 1)
    dot = ux.add_generator(0, -1)
    assert ux.filtration_level({one: 1}) == 1
    assert ux.filtration_level({dot: 1, one: 1}) == -1
    assert ux.filtration_level({dot: 2}) == -1


def lowest_q_oracle(cx: ScalarComplex, vec) -> int | None:
    """filtration_level by brute force: the best lowest q of vec - d(x) over
    every chain x one degree down."""
    h = cx.grading[next(iter(vec))][0]
    tgts, srcs = cx.gens_at(h), cx.gens_at(h - 1)
    A = arr(cx.dense_block(srcs, tgts))
    b = np.array([vec.get(g, 0) for g in tgts], dtype=np.int64)
    best = None
    for x in itertools.product(range(cx.p), repeat=len(srcs)):
        left = (b - A @ np.array(x, dtype=np.int64)) % cx.p
        if not left.any():
            return None
        low = min(cx.grading[g][1] for g, c in zip(tgts, left) if c)
        best = low if best is None else max(best, low)
    return best


@pytest.mark.parametrize("seed", range(8))
def test_filtration_level_matches_brute_force(seed):
    rng = random.Random(300 + seed)
    p = 3
    cx, _ = build_reference_complex(rng, p, q_exact=False, pieces=14, moves=50)
    compared = 0
    for h in sorted({h for h, _ in cx.grading.values()}):
        if len(cx.gens_at(h - 1)) > 6:
            continue
        reps = HomologySpace(cx, h).rep_vectors()
        bounds = [cx.apply_d({g: 1}) for g in cx.gens_at(h - 1)]
        for _ in range(6):
            z: dict[int, int] = {}
            for v in reps + bounds:
                add_into(z, v.items(), p, rng.randrange(p))
            if z:
                assert cx.filtration_level(z) == lowest_q_oracle(cx, z), (h, z)
                compared += 1
    assert compared


def test_one_echelon_form_per_homology_question(monkeypatch):
    calls = [0]

    def counted(A, p):
        calls[0] += 1
        return row_reduce(A, p)

    monkeypatch.setattr(chain_algebra, "row_reduce", counted)
    D = braid_closure(BraidWord(3, (1, -2, 1, -2)))
    dims = set()
    for th in (khovanov(3), lee_deformation(3)):
        cube = CubeComplex(D, th)
        for h in range(-3, 3):
            calls[0] = 0
            space = HomologySpace(cube.cx, h)
            # nullspace of d_out, then [boundaries | cycles]
            assert calls[0] <= 2, (th, h, space.dim)
            # one solve for all the representatives, none with no homology
            calls[0] = 0
            M = induced_matrix(lambda v: v, space, space)
            assert calls[0] == (1 if space.dim else 0), (th, h, space.dim)
            assert (arr(M) == np.eye(space.dim, dtype=np.int64)).all()
            dims.add(space.dim > 0)
        if not th.q_exact:
            calls[0] = 0
            assert cube.cx.filtration_level(cube.canonical_cycle()) == -1
            assert calls[0] == 1
    assert dims == {True, False}


def test_homology_space_and_induced_matrix():
    p = 3
    cx = ScalarComplex(p)
    a = cx.add_generator(0, 0)
    b = cx.add_generator(0, 0)
    y = cx.add_generator(1, 0)
    cx.add_entry(a, y, 1)
    cx.add_entry(b, y, 1)
    h0 = HomologySpace(cx, 0)
    h1 = HomologySpace(cx, 1)
    assert h0.dim == 1 and h1.dim == 0
    rep = h0.rep_vectors()[0]
    # the class of a - b spans, and coords are stable under adding cycles
    assert h0.coords([rep]) != [[0]]
    ident = induced_matrix(lambda v: v, h0, h0)
    assert ident.shape == (1, 1) and ident[0][0] != 0
    zero = induced_matrix(lambda v: {}, h0, h0)
    assert not arr(zero).any()
    assert h0.coords([]).shape == (1, 0)
    with pytest.raises(ValueError, match="not a cycle"):
        h0.coords([rep, {a: 1}])


def test_homology_spaces_of_dimension_zero():
    p = 3
    cx = ScalarComplex(p)
    x = cx.add_generator(0, 0)
    y = cx.add_generator(1, 0)
    z = cx.add_generator(1, 0)
    cx.add_entry(x, y, 1)
    # degree 0 is acyclic, degree 2 has no generators, degree 1 is spanned by z
    h0, h1, h2 = (HomologySpace(cx, h) for h in (0, 1, 2))
    assert (h0.dim, h1.dim, h2.dim) == (0, 1, 0)
    for space in (h0, h2):
        assert space.rep_vectors() == []
        assert space.coords([]).shape == (0, 0)
    assert h1.coords([]).shape == (1, 0)
    # a boundary has no coordinates in a space of dimension 0, and is 0 in h1
    assert HomologySpace(cx, 1).coords([{y: 2}]) == [[0]]
    shapes = {
        (h0, h2): (0, 0),
        (h0, h0): (0, 0),
        (h0, h1): (1, 0),
        (h1, h2): (0, 1),
    }
    for (src, dst), shape in shapes.items():
        # h1's class has no image in degree 2: map it there by zero
        M = induced_matrix((lambda v: {}) if dst is h2 else (lambda v: v), src, dst)
        assert M.shape == shape and not arr(M).any()


def test_homology_dims_two_term():
    cx = ScalarComplex(5)
    x = cx.add_generator(0, 2)
    y = cx.add_generator(1, 2)
    cx.add_entry(x, y, 2)
    assert cx.homology_dims() == {}
    cx2 = ScalarComplex(5)
    cx2.add_generator(0, 2)
    cx2.add_generator(1, 2)
    assert cx2.homology_dims() == {(0, 2): 1, (1, 2): 1}
