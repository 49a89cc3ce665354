"""Exact linear algebra over prime fields and sparse graded chain complexes.

Everything downstream reduces to the primitives here: row reduction mod p,
sparse complexes with (homological, quantum) bigraded generators, Gaussian
simplification, homology ranks counted on a fully reduced copy (no row
reduction), and filtration levels of cycles.

Every Gaussian elimination in the package, on a ScalarComplex here and on
the scan engine's complexes of tangles, runs through eliminate_cheapest:
it cancels the cheapest pivot first, the one whose cancellation makes the
fewest new entries, as Bar-Natan's local elimination does to limit
fill-in.

Dense matrices are Matrix objects: lists of rows of Python ints reduced
mod p, so the arithmetic is exact at any size.  Gaussian simplification
runs first wherever homology is asked for, so the dense matrices left are
small (about three cells per row reduction on the cone audits), and plain
lists need no array library.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Callable, Iterable

# sparse vector: generator id -> nonzero coefficient mod p
Vec = dict[int, int]


def inv_mod(a: int, p: int) -> int:
    a %= p
    if a == 0:
        raise ZeroDivisionError(f"0 is not invertible mod {p}")
    return pow(a, p - 2, p)


# -- dense matrices ------------------------------------------------------


class Matrix(list):
    """Dense matrix: a list of int rows that keeps its column count.

    M[i][j] is the entry in row i, column j.  The column count is stored,
    so 0 x n and n x 0 matrices keep their width; a row of another length
    raises ValueError.  The dense helpers below take and return Matrix.
    """

    def __init__(self, rows: Iterable[list[int]], ncols: int):
        super().__init__(rows)
        if any(len(row) != ncols for row in self):
            raise ValueError(f"every row of the matrix must have {ncols} entries")
        self.ncols = ncols

    @classmethod
    def zeros(cls, nrows: int, ncols: int) -> "Matrix":
        return cls([[0] * ncols for _ in range(nrows)], ncols)

    @property
    def shape(self) -> tuple[int, int]:
        return len(self), self.ncols

    @property
    def T(self) -> "Matrix":
        return Matrix([[row[j] for row in self] for j in range(self.ncols)], len(self))

    def beside(self, other: "Matrix") -> "Matrix":
        """The block matrix [self | other]; the row counts must agree."""
        if len(self) != len(other):
            raise ValueError(f"row counts differ: {len(self)} and {len(other)}")
        return Matrix([a + b for a, b in zip(self, other)], self.ncols + other.ncols)


def row_reduce(A: Matrix, p: int) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form of A mod p, with the list of pivot columns.

    A pivot touches only the rows with a nonzero in its column c, and in
    them only the columns where the pivot row is nonzero: those lie at or
    right of c, since the pivot row is zero left of its pivot.
    """
    R = Matrix([[x % p for x in row] for row in A], A.ncols)
    nrows = len(R)
    pivots: list[int] = []
    r = 0
    for c in range(R.ncols):
        if r == nrows:
            break
        i = next((i for i in range(r, nrows) if R[i][c]), None)
        if i is None:
            continue
        R[r], R[i] = R[i], R[r]
        u = inv_mod(R[r][c], p)
        piv = R[r]
        hot = [(j, piv[j] * u % p) for j in range(c, R.ncols) if piv[j]]
        for j, y in hot:
            piv[j] = y
        for k, row in enumerate(R):
            f = row[c]
            if f and k != r:
                for j, y in hot:
                    row[j] = (row[j] - f * y) % p
        pivots.append(c)
        r += 1
    return R, pivots


def rank(A: Matrix, p: int) -> int:
    if not (A and A.ncols):
        return 0
    return len(row_reduce(A, p)[1])


def nullspace(A: Matrix, p: int) -> Matrix:
    """Matrix whose columns form a basis of ker(A) mod p."""
    ncols = A.ncols
    # a matrix with no cells has no pivots: every column is free
    R, pivots = row_reduce(A, p) if A and ncols else (A, [])
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    K = Matrix.zeros(ncols, len(free))
    for j, c in enumerate(free):
        K[c][j] = 1
    for i, c in enumerate(pivots):
        K[c] = [-R[i][f] % p for f in free]
    return K


def solve(A: Matrix, B: Matrix, p: int) -> Matrix | None:
    """One solution X of A X = B mod p, or None if a column of B is outside
    the span of A's columns.

    Every column is solved with one reduction of [A | B], giving one column
    of X per column of B.  A and B must have the same number of rows.
    """
    ncols = A.ncols
    R, pivots = row_reduce(A.beside(B), p)
    if pivots and pivots[-1] >= ncols:
        return None
    X = Matrix.zeros(ncols, B.ncols)
    for i, c in enumerate(pivots):
        X[c] = R[i][ncols:]
    return X


def product_is_zero(A: Matrix, B: Matrix, p: int) -> bool:
    """Whether A B == 0 mod p; A's column count must be B's row count."""
    if A.ncols != len(B):
        raise ValueError(f"cannot multiply: {A.ncols} columns against {len(B)} rows")
    cols = B.T
    return not any(sum(a * b for a, b in zip(row, col)) % p for row in A for col in cols)


# -- sparse vector helpers -----------------------------------------------


def add_into(out: dict, terms: Iterable[tuple], p: int, scalar: int = 1) -> dict:
    """out += scalar * terms mod p, in place; keys whose sum is 0 are dropped.

    terms yields (key, coefficient) pairs; a pair with coefficient 0 is a
    vanishing term (its key may be None) and is skipped.
    """
    for k, c in terms:
        if not c:
            continue
        nc = (out.get(k, 0) + scalar * c) % p
        if nc:
            out[k] = nc
        else:
            out.pop(k, None)
    return out


# -- Gaussian elimination ------------------------------------------------


def eliminate_cheapest(
    pivots: Iterable[tuple],
    pivot: Callable[[object, object], int | None],
    cost: Callable[[object, object], int],
    eliminate: Callable[[object, object, int], Iterable[tuple]],
) -> None:
    """Cancel the cheapest pivot (x, y) until none is left.

    pivots are the entries that are pivots to begin with.  pivot(x, y) is
    the unit of a cancellable entry, else None (also when the entry is
    gone); cost(x, y) counts the compositions cancelling it makes;
    eliminate(x, y, u) cancels it and returns the pairs it rewrote.  A
    lazy min-heap holds (cost, x, y), with the cost an entry had when
    pushed.  A popped entry that is no longer a pivot is skipped, and one
    whose cost has grown goes back with its current cost.  The caller's
    pivot test must change only where eliminate rewrites: a rewritten pair
    that is a pivot is pushed then.  Ties fall to the smaller (x, y), so
    the order is deterministic.
    """
    heap = [(cost(x, y), x, y) for x, y in pivots]
    heapify(heap)
    while heap:
        was, x, y = heappop(heap)
        u = pivot(x, y)
        if u is None:
            continue
        now = cost(x, y)
        if now > was:
            heappush(heap, (now, x, y))
            continue
        for z, w in eliminate(x, y, u):
            if pivot(z, w) is not None:
                heappush(heap, (cost(z, w), z, w))


# -- complexes -----------------------------------------------------------


class ScalarComplex:
    """Sparse complex of F_p vector spaces with bigraded generators.

    Generators carry (h, q). The differential raises h by exactly one; in a
    q-exact complex it preserves q, in a filtered one it never lowers q.
    Entries are indexed both by column and by row so elimination stays local.
    """

    def __init__(self, p: int, q_exact: bool = True):
        if p < 2:
            raise ValueError("p must be a prime >= 2")
        self.p = int(p)
        self.q_exact = bool(q_exact)
        self.grading: dict[int, tuple[int, int]] = {}
        self.cols: dict[int, Vec] = {}
        self.rows: dict[int, Vec] = {}
        self._next_id = 0

    # construction

    def add_generator(self, h: int, q: int) -> int:
        g = self._next_id
        self._next_id += 1
        self.grading[g] = (int(h), int(q))
        self.cols[g] = {}
        self.rows[g] = {}
        return g

    def add_entry(self, src: int, dst: int, coeff: int) -> None:
        hs, qs = self.grading[src]
        hd, qd = self.grading[dst]
        assert hd == hs + 1, "differential must raise h by exactly 1"
        if self.q_exact:
            assert qd == qs, "q-exact differential must preserve q"
        else:
            assert qd >= qs, "filtered differential must not lower q"
        col = self.cols[src]
        c = (col.get(dst, 0) + coeff) % self.p
        if c:
            col[dst] = c
            self.rows[dst][src] = c
        else:
            col.pop(dst, None)
            self.rows[dst].pop(src, None)

    def restrict(self, keep) -> "ScalarComplex":
        """The span of the generators in keep, with their ids and order.

        Entries leaving keep are dropped: a subcomplex when keep is closed
        under d, a quotient when its complement is.
        """
        keep = set(keep)
        cx = ScalarComplex(self.p, self.q_exact)
        cx.grading = {g: hq for g, hq in self.grading.items() if g in keep}
        cx.cols = {g: {t: u for t, u in self.cols[g].items() if t in keep} for g in cx.grading}
        cx.rows = {g: {s: u for s, u in self.rows[g].items() if s in keep} for g in cx.grading}
        cx._next_id = self._next_id
        return cx

    def copy(self) -> "ScalarComplex":
        """The same complex, ids and order kept, sharing no column or row."""
        cx = ScalarComplex(self.p, self.q_exact)
        cx.grading = dict(self.grading)
        cx.cols = {g: dict(col) for g, col in self.cols.items()}
        cx.rows = {g: dict(row) for g, row in self.rows.items()}
        cx._next_id = self._next_id
        return cx

    # inspection

    @property
    def dim(self) -> int:
        return len(self.grading)

    def generators(self) -> list[int]:
        return list(self.grading)

    def gens_at(self, h: int) -> list[int]:
        return sorted(g for g, (hh, _) in self.grading.items() if hh == h)

    def apply_d(self, vec: Vec) -> Vec:
        out: Vec = {}
        for g, c in vec.items():
            add_into(out, self.cols[g].items(), self.p, c)
        return out

    def check_d_squared(self) -> None:
        for g in self.grading:
            dd = self.apply_d(self.apply_d({g: 1}))
            assert not dd, f"d^2 != 0 at generator {g}"

    def dense_block(self, srcs: list[int], dsts: list[int]) -> Matrix:
        """Matrix of d restricted to the given bases; M[i][j] = <d srcs[j], dsts[i]>."""
        M = Matrix.zeros(len(dsts), len(srcs))
        index = {g: i for i, g in enumerate(dsts)}
        for j, s in enumerate(srcs):
            for t, c in self.cols[s].items():
                i = index.get(t)
                if i is not None:
                    M[i][j] = c
        return M

    # homology

    def homology_dims(self) -> dict:
        """Ranks of homology: {(h, q): dim} when q-exact, else {h: dim}.

        Over a field every nonzero entry is invertible, so eliminating them
        all leaves zero differential, and the generators of that fully
        reduced copy count the homology.  A filtered complex is reduced with
        its q forgotten, since its ranks are indexed by h only.  The complex
        itself is left as it is.
        """
        red = self.copy()
        if not red.q_exact:
            red.q_exact = True
            red.grading = {g: (h, 0) for g, (h, _) in red.grading.items()}
        red.simplify()
        out: dict = {}
        for h, q in red.grading.values():
            key = (h, q) if self.q_exact else h
            out[key] = out.get(key, 0) + 1
        return out

    # simplification

    def simplify(self, side=None) -> None:
        """Eliminate every invertible entry with no q jump, in place.

        A q-exact complex ends with zero differential; a filtered one keeps
        only strictly q-raising entries.  The cheapest entry s -> t goes
        first (eliminate_cheapest), at cost (entries into t - 1) times
        (entries out of s - 1): the entries its cancellation writes.

        With side, a set of generator ids, only entries whose two ends are
        both in side or both outside it are eliminated.  If side spans a
        subcomplex, it stays one and its complement the quotient: cancelling
        x -> y adds entries z -> w for z -> y and x -> w, so w is in side
        when x is, and z is outside side when y is.
        """
        grading, cols, rows, exact = self.grading, self.cols, self.rows, self.q_exact

        def ok(s: int, t: int) -> bool:
            return (exact or grading[s][1] == grading[t][1]) and (
                side is None or (s in side) == (t in side)
            )

        def pivot(s: int, t: int) -> int | None:
            # cols[s] drops t when t goes, and cols loses s when s goes
            col = cols.get(s)
            u = None if col is None else col.get(t)
            return u if u and ok(s, t) else None

        def cost(s: int, t: int) -> int:
            return (len(rows[t]) - 1) * (len(cols[s]) - 1)

        pivots = [(s, t) for s, col in cols.items() for t in col if ok(s, t)]
        eliminate_cheapest(pivots, pivot, cost, self._eliminate)

    def _eliminate(self, x: int, y: int, u: int) -> list[tuple[int, int]]:
        phi = [(w, c) for w, c in self.cols[x].items() if w != y]
        srcs = [(z, c) for z, c in self.rows[y].items() if z != x]
        uinv = inv_mod(u, self.p)
        for z, v in srcs:
            f = (v * uinv) % self.p
            for w, c in phi:
                self.add_entry(z, w, -f * c)
        self._drop_generator(x)
        self._drop_generator(y)
        return [(z, w) for z, _ in srcs for w, _ in phi]

    def _drop_generator(self, g: int) -> None:
        for t in self.cols.pop(g):
            self.rows[t].pop(g, None)
        for s in self.rows.pop(g):
            self.cols[s].pop(g, None)
        del self.grading[g]

    # filtration

    def filtration_level(self, vec: Vec) -> int | None:
        """Largest Q with vec in span{q >= Q} + boundaries; None if vec bounds.

        vec must be a cycle concentrated in a single homological degree;
        any other vector raises ValueError.  The boundaries are put in
        echelon form over the degree's generators ordered by q ascending,
        so clearing vec on the pivots leaves the representative whose
        lowest q is as high as it can be: that q is the level.
        """
        if not vec:
            return None
        hs = {self.grading[g][0] for g in vec}
        if len(hs) != 1 or self.apply_d(vec):
            raise ValueError("filtration level needs an h-homogeneous cycle")
        h = hs.pop()
        tgts = sorted(self.gens_at(h), key=lambda g: self.grading[g][1])
        R, pivots = row_reduce(self.dense_block(self.gens_at(h - 1), tgts).T, self.p)
        b = [vec.get(g, 0) for g in tgts]
        for i, c in enumerate(pivots):
            f = b[c]
            if f:
                b = [(x - f * y) % self.p for x, y in zip(b, R[i])]
        left = next((g for g, x in zip(tgts, b) if x), None)
        return None if left is None else self.grading[left][1]


class HomologySpace:
    """Basis data for the homology of a complex in one degree.

    The frame is the leftmost pivot columns of [boundaries | cycles]: the
    independent boundary columns, then the cycle-basis columns that extend
    them to a basis of the cycle space, which are the representatives.
    coords() expresses a list of cycles' classes in that basis, one column
    per cycle.
    """

    def __init__(self, cx: ScalarComplex, h: int):
        self.cx = cx
        self.h = h
        self.tgts = cx.gens_at(h)
        d_in = cx.dense_block(cx.gens_at(h - 1), self.tgts)
        K = nullspace(cx.dense_block(self.tgts, cx.gens_at(h + 1)), cx.p)
        frame = d_in.beside(K)
        pivots = row_reduce(frame, cx.p)[1]
        self._frame = Matrix([[row[c] for c in pivots] for row in frame], len(pivots))
        self.boundary_rank = sum(c < d_in.ncols for c in pivots)
        self.dim = len(pivots) - self.boundary_rank

    def rep_vectors(self) -> list[Vec]:
        return [
            {g: row[j] for g, row in zip(self.tgts, self._frame) if row[j]}
            for j in range(self.boundary_rank, self._frame.ncols)
        ]

    def coords(self, vecs: list[Vec]) -> Matrix:
        """Classes of cycles in the representative basis, one column each.

        All the cycles are solved against the frame in one reduction; a
        vector that is not a cycle in this degree, or has support outside
        it, raises ValueError.
        """
        if not vecs:
            return Matrix.zeros(self.dim, 0)
        inside = set(self.tgts)
        if any(c % self.cx.p and g not in inside for v in vecs for g, c in v.items()):
            raise ValueError("vector has support outside this degree")
        B = Matrix([[v.get(g, 0) for v in vecs] for g in self.tgts], len(vecs))
        x = solve(self._frame, B, self.cx.p)
        if x is None:
            raise ValueError("vector is not a cycle in this degree")
        del x[: self.boundary_rank]
        return x


def induced_matrix(
    f: Callable[[Vec], Vec], src: HomologySpace, dst: HomologySpace
) -> Matrix:
    """Matrix of the map a chain map induces on homology, rep basis to rep basis."""
    return dst.coords([f(rep) for rep in src.rep_vectors()])
