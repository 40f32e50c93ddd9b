"""Exact rational scalars and small dense linear algebra.

Exactness comes from plain integers.  The one linear-system kernel,
`solve_integer_system`, runs fraction-free (Bareiss) elimination on integer
rows (A | b) and returns the solution as integer numerators over a positive
common denominator, in lowest terms; singularity detection is exact, since a
system is singular exactly when some pivot column vanishes.  `integer_row`
scales a rational row by a positive factor to coprime integers, which keeps
the sign of every affine functional it describes.

`fractions.Fraction` is the boundary type: vectors are tuples of Fractions
and matrices tuples of row tuples, for input, reports and exports.
`solve_linear_system` and `sign_affine` keep that Fraction interface; the
former clears denominators and calls the integer kernel.
"""

from __future__ import annotations

from decimal import ROUND_HALF_EVEN, Decimal
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Optional, Sequence

from .errors import DimensionMismatchError

Vec = tuple[Fraction, ...]
Mat = tuple[Vec, ...]
IntRow = tuple[int, ...]                # integer row (a_1, ..., a_d, b)
IntPoint = tuple[tuple[int, ...], int]  # numerators over a positive denominator


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


def solve_integer_system(rows: Sequence[IntRow]) -> Optional[IntPoint]:
    """Solve the integer augmented system (A | b) with d rows of d+1 entries.

    Returns None when A is singular, otherwise (numerators, denominator)
    with x_i = numerators[i] / denominator, the denominator positive and
    gcd(numerators..., denominator) = 1, so equal points have equal results.

    Bareiss elimination keeps every intermediate value an integer: each
    update divides exactly by the previous pivot, and the last pivot is
    ±det(A).  Back-substitution then works on x·det(A), which is an integer
    vector by Cramer's rule, so it divides exactly as well.
    """
    d = len(rows)
    if any(len(row) != d + 1 for row in rows):
        raise DimensionMismatchError(f"expected {d} rows of {d + 1} entries")
    m = [list(row) for row in rows]

    prev = 1
    for k in range(d):
        pivot = next((r for r in range(k, d) if m[r][k] != 0), None)
        if pivot is None:
            return None
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
        pk = m[k][k]
        for i in range(k + 1, d):
            rik = m[i][k]
            for j in range(k + 1, d + 1):
                m[i][j] = (m[i][j] * pk - rik * m[k][j]) // prev
            m[i][k] = 0
        prev = pk

    det = prev
    x = [0] * d
    for i in reversed(range(d)):
        row = m[i]
        acc = det * row[d]
        for j in range(i + 1, d):
            acc -= row[j] * x[j]
        x[i] = acc // row[i]
    if det < 0:
        det = -det
        x = [-v for v in x]
    g = gcd(det, *x)
    return tuple(v // g for v in x), det // g


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
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational literal: {text!r}") from exc


def decimal_display(q: Fraction, places: int = 6) -> str:
    """Fixed-width decimal annotation, round-half-even; display only."""
    value = Decimal(q.numerator) / Decimal(q.denominator)
    return str(value.quantize(Decimal(1).scaleb(-places), rounding=ROUND_HALF_EVEN))
