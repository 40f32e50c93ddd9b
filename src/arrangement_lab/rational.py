"""Exact rational scalars and small dense linear algebra.

Exactness comes from plain integers.  Linear systems are solved by
fraction-free (Bareiss 1968) elimination on integer rows (A | b), in two
helpers that hold the one Bareiss formula: `reduce_row` reduces a new row
against the echelon rows before it and picks its pivot column, so rows
never move, and `back_substitute` turns d echelon rows into the solution
as integer numerators over a positive common denominator, in lowest terms.
`solve_integer_system` chains them over one system; the vertex pass of
`arrangement` chains them over a depth-first walk of subsets, so that
subsets sharing a prefix share its echelon rows.  Singularity detection is
exact, since a row is dependent exactly when it reduces to zero on every
column of A.  `integer_row` scales a rational row by a positive factor to
coprime integers, which keeps the sign of every affine functional it
describes.

`fractions.Fraction` is the boundary type: vectors are tuples of Fractions
and matrices tuples of row tuples, for input, reports and exports.
`solve_linear_system` and `sign_affine` keep that Fraction interface; the
former clears denominators and calls the integer kernel.
"""

from __future__ import annotations

import re
from decimal import ROUND_HALF_EVEN, Decimal
from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Iterable, Optional, Sequence

from .errors import DimensionMismatchError

Vec = tuple[Fraction, ...]
Mat = tuple[Vec, ...]
IntRow = tuple[int, ...]                # integer row (a_1, ..., a_d, b)
IntPoint = tuple[tuple[int, ...], int]  # numerators over a positive denominator
_RATIONAL = re.compile(r"[+-]?[0-9]+(?:/[0-9]+)?")
_SHOWN = 40  # a refused value longer than this is named by its start and length


def vector(values: Iterable) -> Vec:
    """Coerce an iterable of numbers into a tuple of Fractions."""
    return tuple(Fraction(v) for v in values)


def dot(u: Sequence[Fraction], v: Sequence[Fraction]) -> Fraction:
    if len(u) != len(v):
        raise DimensionMismatchError(f"dot of lengths {len(u)} and {len(v)}")
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


def integer_row(values: Sequence) -> IntRow:
    """Scale rational values by a positive factor to coprime integers.

    The factor is positive, so the sign of a·x − b at any point is kept when
    (a, b) is scaled this way; an all-zero row stays all zero.
    """
    entries = [Fraction(v) for v in values]
    scale = lcm(*(e.denominator for e in entries))
    ints = [e.numerator * (scale // e.denominator) for e in entries]
    g = gcd(*ints) or 1
    return tuple(v // g for v in ints)


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


def solve_integer_system(rows: Sequence[IntRow]) -> Optional[IntPoint]:
    """Solve the integer augmented system (A | b) with d rows of d+1 entries.

    Returns None when A is singular, otherwise (numerators, denominator)
    with x_i = numerators[i] / denominator, the denominator positive and
    gcd(numerators..., denominator) = 1, so equal points have equal results.
    Each row is reduced by `reduce_row` against those before it, then
    `back_substitute` solves; the vertex pass of `arrangement` shares both
    helpers, reusing the rows of a common prefix of subsets.
    """
    d = len(rows)
    if any(len(row) != d + 1 for row in rows):
        raise DimensionMismatchError(f"expected {d} rows of {d + 1} entries")
    echelon: list[Sequence[int]] = []
    pivots: list[int] = []
    for row in rows:
        reduced, col = reduce_row(row, echelon, pivots)
        if col is None:
            return None
        echelon.append(reduced)
        pivots.append(col)
    return back_substitute(echelon, pivots)


def solve_linear_system(m: Mat, rhs: Vec) -> Optional[Vec]:
    """Solve m·x = rhs exactly; return None when the matrix is singular.

    Each row of the augmented matrix is scaled to integers and solved by
    `solve_integer_system`; Fractions appear again only in the result.
    """
    d = len(rhs)
    if len(m) != d or any(len(row) != d for row in m):
        raise DimensionMismatchError(
            f"expected a {d}x{d} matrix to match rhs of length {d}"
        )
    solved = solve_integer_system([integer_row((*row, y)) for row, y in zip(m, rhs)])
    if solved is None:
        return None
    numerators, denominator = solved
    return tuple(Fraction(p, denominator) for p in numerators)


def sign_affine(a: Sequence[Fraction], b: Fraction, x: Sequence[Fraction]) -> int:
    """Exact sign of a·x − b, one of -1, 0, +1."""
    if len(a) != len(x):
        raise DimensionMismatchError(
            f"functional of dimension {len(a)} evaluated at point of dimension {len(x)}"
        )
    value = dot(a, x) - b
    if value > 0:
        return 1
    if value < 0:
        return -1
    return 0


def format_rational(q: Fraction) -> str:
    """Serialize as "p/q", or just "p" for integers."""
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def parse_rational(text: str) -> Fraction:
    """Read "p/q" or "p", p an optionally signed integer and q a positive
    one, in ASCII digits.  Any other text (an exponent, a decimal point,
    underscores, spaces) raises ValueError naming it before a Fraction is
    built, so no literal can ask for an integer bigger than its digits.  A
    value of more than `_SHOWN` characters is named by its first half of
    that and its length, so the message stays one short line."""
    if _RATIONAL.fullmatch(text):
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError):
            pass
    shown = (repr(text) if len(text) <= _SHOWN
             else f"{text[:_SHOWN // 2]!r}... ({len(text)} characters)")
    raise ValueError(f"not a rational literal: {shown}")


def decimal_display(q: Fraction, places: int = 6) -> str:
    """Fixed-width decimal annotation, round-half-even; display only."""
    value = Decimal(q.numerator) / Decimal(q.denominator)
    return str(value.quantize(Decimal(1).scaleb(-places), rounding=ROUND_HALF_EVEN))
