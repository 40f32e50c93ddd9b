"""Exact rational scalars and small dense linear algebra.

All geometric predicates in this package run on `fractions.Fraction`, which
already guarantees the invariants we need: positive denominator, eagerly
reduced to lowest terms, immutable and hashable.  Vectors are plain tuples of
Fractions and matrices are tuples of row tuples; dimensions are fixed at
construction and every operation validates them.

Linear systems are solved by fraction-free (Bareiss) elimination on an
integer-cleared augmented matrix, which keeps intermediate values as plain
integers and makes singularity detection exact: the solver reports "no
solution object" exactly when some pivot column vanishes.
"""

from __future__ import annotations

from decimal import ROUND_HALF_EVEN, Decimal
from fractions import Fraction
from math import lcm
from typing import Iterable, Optional, Sequence

from .errors import DimensionMismatchError

Vec = tuple[Fraction, ...]
Mat = tuple[Vec, ...]


def vector(values: Iterable) -> Vec:
    """Coerce an iterable of numbers into a tuple of Fractions."""
    return tuple(Fraction(v) for v in values)


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


def dot(u: Sequence[Fraction], v: Sequence[Fraction]) -> Fraction:
    if len(u) != len(v):
        raise DimensionMismatchError(f"dot of lengths {len(u)} and {len(v)}")
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


def vec_add(u: Vec, v: Vec) -> Vec:
    if len(u) != len(v):
        raise DimensionMismatchError("vector addition length mismatch")
    return tuple(a + b for a, b in zip(u, v))


def vec_sub(u: Vec, v: Vec) -> Vec:
    if len(u) != len(v):
        raise DimensionMismatchError("vector subtraction length mismatch")
    return tuple(a - b for a, b in zip(u, v))


def vec_scale(u: Vec, c: Fraction) -> Vec:
    return tuple(a * c for a in u)


def mat_vec(m: Mat, v: Vec) -> Vec:
    return tuple(dot(row, v) for row in m)


def solve_linear_system(m: Mat, rhs: Vec) -> Optional[Vec]:
    """Solve m·x = rhs exactly; return None when the matrix is singular.

    Uses integer-preserving (Bareiss) elimination: each row of the augmented
    matrix is scaled to integers first, so all intermediate arithmetic is
    exact integer work and the final back-substitution reintroduces
    Fractions only once.
    """
    d = len(rhs)
    if len(m) != d or any(len(row) != d for row in m):
        raise DimensionMismatchError(
            f"expected a {d}x{d} matrix to match rhs of length {d}"
        )
    if d == 0:
        return ()

    rows: list[list[int]] = []
    for row, y in zip(m, rhs):
        entries = [Fraction(v) for v in row] + [Fraction(y)]
        scale = lcm(*(e.denominator for e in entries))
        rows.append([int(e * scale) for e in entries])

    prev = 1
    for k in range(d):
        pivot = next((r for r in range(k, d) if rows[r][k] != 0), None)
        if pivot is None:
            return None
        if pivot != k:
            rows[k], rows[pivot] = rows[pivot], rows[k]
        pk = rows[k][k]
        for i in range(k + 1, d):
            rik = rows[i][k]
            for j in range(k + 1, d + 1):
                rows[i][j] = (rows[i][j] * pk - rik * rows[k][j]) // prev
            rows[i][k] = 0
        prev = pk

    x = [Fraction(0)] * d
    for i in reversed(range(d)):
        acc = Fraction(rows[i][d])
        for j in range(i + 1, d):
            acc -= rows[i][j] * x[j]
        x[i] = acc / rows[i][i]
    return tuple(x)


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
