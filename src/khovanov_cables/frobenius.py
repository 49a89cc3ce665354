"""Rank-two Frobenius algebras k[X]/(X^2 - hX - t) over a prime field.

Labels are pairs (c0, c1) meaning c0*1 + c1*X. The three supported
parameter points: (h,t) = (0,0) exact in the second grading, (0,1) with
grading jumps of 4, (1,0) with jumps of 2. The deformed points factor as
(X - r1)(X - r2) with distinct roots, which is what makes the canonical
circle labels below idempotent-like and the deformed homology small.
"""

from __future__ import annotations

from dataclasses import dataclass

Label = tuple[int, int]

_SMALL_PRIMES = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31}


@dataclass(frozen=True)
class Theory:
    p: int = 3
    h: int = 0
    t: int = 0

    def __post_init__(self) -> None:
        if self.p not in _SMALL_PRIMES:
            raise ValueError(f"field order {self.p} not supported")
        if (self.h, self.t) not in {(0, 0), (0, 1), (1, 0)}:
            raise ValueError("unsupported deformation point")
        if self.t and self.p == 2:
            # X^2 = t needs two distinct square roots of t in the field
            raise ValueError("the t-deformation degenerates in characteristic 2")

    @property
    def q_exact(self) -> bool:
        return self.h == 0 and self.t == 0

    @property
    def roots(self) -> tuple[int, int]:
        """The two roots of X^2 - hX - t, distinct for deformed points."""
        if (self.h, self.t) == (0, 1):
            return (1, self.p - 1)
        if (self.h, self.t) == (1, 0):
            return (1, 0)
        raise ValueError("undeformed algebra has a double root")

    # -- label arithmetic --------------------------------------------------

    def mul(self, a: Label, b: Label) -> Label:
        p = self.p
        return (
            (a[0] * b[0] + a[1] * b[1] * self.t) % p,
            (a[0] * b[1] + a[1] * b[0] + a[1] * b[1] * self.h) % p,
        )

    def handle(self) -> Label:
        """Genus-one factor 2X - h, the product of counit-dual elements."""
        return ((-self.h) % self.p, 2 % self.p)

    def counit(self, a: Label) -> int:
        return a[1] % self.p

    def label_pow(self, a: Label, k: int) -> Label:
        out: Label = (1, 0)
        for _ in range(k):
            out = self.mul(out, a)
        return out

    # -- structure maps on basis bits (0 means 1, 1 means X) ---------------

    def m_basis(self, b1: int, b2: int) -> list[tuple[int, int]]:
        if b1 and b2:
            return [(bit, c) for bit, c in ((1, self.h), (0, self.t)) if c]
        return [(b1 | b2, 1)]

    def delta_basis(self, b: int) -> list[tuple[int, int, int]]:
        if b:
            out = [(1, 1, 1), (0, 0, self.t)]
        else:
            out = [(0, 1, 1), (1, 0, 1), (0, 0, (-self.h) % self.p)]
        return [(x, y, c) for x, y, c in out if c % self.p]

    def canonical_label(self, parity: int) -> Label:
        """Circle label X - r for the root picked by the circle's parity."""
        r1, r2 = self.roots
        r = r2 if parity == 0 else r1
        return ((-r) % self.p, 1)


def khovanov(p: int = 3) -> Theory:
    return Theory(p=p, h=0, t=0)


def lee_deformation(p: int = 3) -> Theory:
    return Theory(p=p, h=0, t=1)


def bar_natan_deformation(p: int = 3) -> Theory:
    return Theory(p=p, h=1, t=0)
