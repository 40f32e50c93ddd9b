"""Fraction arithmetic that only the tests and their oracles use.

The engine signs and solves in plain integers; these helpers evaluate signs,
embed chart points and multiply small matrices on Fractions, so the oracles
check the kernel with arithmetic it does not share.  `solve_by_echelon` is
the engine's earlier integer solver, kept as the reference for the flats
that replaced it: each system on its own, its rows reduced to echelon form
and then back-substituted.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from operator import mul
from typing import Iterable, Optional, Sequence

from arrangement_lab.arrangement import Hyperplane, Restriction, Sign
from arrangement_lab.errors import DimensionMismatchError
from arrangement_lab.rational import IntPoint, IntRow, Mat, Vec, dot, sign_affine, vector


def evaluate_sign(h: Hyperplane, x: Vec) -> Sign:
    """Exact sign of h at the point x."""
    return sign_affine(h.a, h.b, x)


def embed(restriction: Restriction, t: Vec) -> Vec:
    """The ambient point base + sum(t[k] * directions[k]) of a chart point."""
    point = restriction.base
    for coord, direction in zip(t, restriction.directions):
        point = vec_add(point, vec_scale(direction, coord))
    return point


def matrix(rows: Iterable[Iterable]) -> Mat:
    """Coerce nested iterables into a rectangular tuple-of-tuples matrix."""
    converted = tuple(vector(row) for row in rows)
    if converted:
        width = len(converted[0])
        for row in converted:
            if len(row) != width:
                raise DimensionMismatchError("inconsistent row widths")
    return converted


def identity_matrix(d: int) -> Mat:
    return tuple(
        tuple(Fraction(1 if i == j else 0) for j in range(d)) for i in range(d)
    )


def vec_add(u: Vec, v: Vec) -> Vec:
    if len(u) != len(v):
        raise DimensionMismatchError("vector addition length mismatch")
    return tuple(a + b for a, b in zip(u, v))


def vec_scale(u: Vec, c: Fraction) -> Vec:
    return tuple(a * c for a in u)


def mat_vec(m: Mat, v: Vec) -> Vec:
    return tuple(dot(row, v) for row in m)


def reduce_row(
    row: Sequence[int], echelon: Sequence[Sequence[int]], pivots: Sequence[int]
) -> tuple[Sequence[int], Optional[int]]:
    """One Bareiss level: `row` (a_1, ..., a_d, b) reduced against the
    echelon rows before it, and the column it pivots on.

    `echelon[t]` is the t-th row as this function returned it, which is zero
    on the pivot columns `pivots[:t]` and nonzero on `pivots[t]`.  Each step
    is Bareiss's update with the previous pivot as exact divisor, taken in
    the column order the pivots chose, so no row ever moves; where the row
    is already zero in the step's pivot column, the update only rescales
    it.  The result is zero on every earlier pivot column; its pivot is the
    first other column of A where it is nonzero, or None when its normal
    depends on the echelon rows' normals.
    """
    reduced = row
    prev = 1
    for e, c in zip(echelon, pivots):
        pivot, lead = e[c], reduced[c]
        if lead:
            reduced = [(x * pivot - lead * y) // prev for x, y in zip(reduced, e)]
        elif pivot != prev:
            reduced = [x * pivot // prev for x in reduced]
        prev = pivot
    for c in range(len(reduced) - 1):
        if reduced[c]:
            return reduced, c
    return reduced, None


def back_substitute(echelon: Sequence[Sequence[int]], pivots: Sequence[int]) -> IntPoint:
    """The solution of d echelon rows from `reduce_row`, one pivot each, as
    (numerators, denominator) in lowest terms with a positive denominator.

    The last pivot is ±det(A), so x·det(A) is an integer vector by Cramer's
    rule; each row, from the last, fixes its pivot coordinate of that
    vector from the later ones, dividing exactly.
    """
    d = len(echelon)
    det = echelon[-1][pivots[-1]] if echelon else 1
    x = [0] * d
    for t in range(d - 1, -1, -1):
        e, c = echelon[t], pivots[t]
        x[c] = (det * e[d] - sum(map(mul, e, x))) // e[c]
    if det < 0:
        det = -det
        x = [-v for v in x]
    g = gcd(det, *x)
    if g != 1:
        det //= g
        x = [v // g for v in x]
    return tuple(x), det


def solve_by_echelon(rows: Sequence[IntRow]) -> Optional[IntPoint]:
    """The integer system (A | b) with d rows of d+1 entries solved on its
    own, in the form of `rational.crossing`'s result: None when A is
    singular, else the point in lowest terms over a positive denominator."""
    echelon: list[Sequence[int]] = []
    pivots: list[int] = []
    for row in rows:
        reduced, col = reduce_row(row, echelon, pivots)
        if col is None:
            return None
        echelon.append(reduced)
        pivots.append(col)
    return back_substitute(echelon, pivots)
