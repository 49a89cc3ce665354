"""Classical invariants read off a bigraded dimension table."""

from __future__ import annotations


def graded_euler(dims: dict[tuple[int, int], int]) -> dict[int, int]:
    """Coefficients of sum_h (-1)^h q^j dim^{h,j} as {exponent: coeff}."""
    poly: dict[int, int] = {}
    for (h, q), d in dims.items():
        poly[q] = poly.get(q, 0) + (-1) ** (h % 2) * d
    return {e: c for e, c in poly.items() if c}


def determinant_from_dims(dims: dict[tuple[int, int], int]) -> int:
    """Knot determinant from an undeformed dimension table.

    Divides the graded Euler characteristic by q + q^-1 and evaluates the
    quotient at q^2 = -1. Only valid for knots: a table with an even
    quantum grading, or whose Euler characteristic q + q^-1 does not
    divide, raises ValueError.
    """
    poly = graded_euler(dims)
    if any(e % 2 == 0 for e in poly):
        raise ValueError("determinant helper expects a knot table (odd quantum gradings)")
    quotient: dict[int, int] = {}
    # divide by (q + q^-1), top down: P = (q + 1/q) Q; every quotient
    # exponent lies above the lowest exponent of P
    work = dict(poly)
    floor = min(work, default=0)
    while work and max(work) > floor + 1:
        top = max(work)
        c = work.pop(top)
        quotient[top - 1] = c
        low = top - 2
        work[low] = work.get(low, 0) - c
        if work[low] == 0:
            work.pop(low)
    if work:
        raise ValueError("q + q^-1 does not divide the graded Euler characteristic")
    return abs(sum(c * (-1) ** ((e // 2) % 2) for e, c in quotient.items()))
