"""Exact rational scalars and small dense linear algebra.

Exactness comes from plain integers.  Linear systems are solved on
*flats*: a flat (X, U, det) is the solution set (X + Σ t_k·U_k)/det of the
integer rows (a, b) cut so far, X and each U_k integer d-vectors, and R^d
is (0, the unit vectors, 1) (`space`).  `meet` cuts a flat by one row with
one fraction-free update (Bareiss 1968): with c_k = a·U_k, the first
nonzero c_p as pivot and r = b·det − a·X,

    X' = (c_p·X + r·U_p)/det,  U'_k = (c_p·U_k − c_k·U_p)/det (k ≠ p),  det' = c_p.

No pivot, every c_k zero, means a depends on the normals already cut.
`crossing` is the update on a line, with no direction left to carry: X'
over c_p is the point, returned in lowest terms over a positive
denominator, so equal points give equal results.  The update is exact and
keeps the flat:

* With the columns Y_0 = (X, det), Y_k = (U_k, 0) and the row as the
  functional h = (a, −b), it is Y'_k = (c_p·Y_k − (h·Y_k)·Y_p)/det for
  every k ≠ p, Y_0 included: one step of Bareiss's column elimination on
  the functionals cut so far stacked above the identity, det being the
  previous pivot (1 at first).  By Sylvester's identity each entry it
  makes is a minor of that integer matrix, on the rows cut and its own
  row and on the pivot columns and its own column, so each division is
  exact.
* Each h cut is zero on every later column: the newest by the update,
  earlier ones as they are zero on both columns it combines.  So X/det
  lies on every hyperplane cut and each U_k runs along all of them.  As
  c_p ≠ 0, the columns left and the pivot dropped span what the columns
  did, so the U_k span every direction along the cut hyperplanes, and a
  normal is orthogonal to all of them exactly when it depends on those.

The vertex pass of `arrangement` carries one flat down a depth-first walk
of subsets.  `integer_row` scales a rational row by a positive factor to
coprime integers, which keeps the sign of every affine functional it
describes.

`fractions.Fraction` is the boundary type: vectors are tuples of Fractions
and matrices tuples of row tuples, for input, reports and exports.
`solve_linear_system` and `sign_affine` keep that Fraction interface; the
former clears denominators, cuts R^d by d-1 rows and crosses the last.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import cache
from math import gcd, lcm
from operator import mul
from typing import Iterable, Optional, Sequence

from .errors import DimensionMismatchError

Vec = tuple[Fraction, ...]
Mat = tuple[Vec, ...]
IntRow = tuple[int, ...]                # integer row (a_1, ..., a_d, b)
IntPoint = tuple[tuple[int, ...], int]  # numerators over a positive denominator
Flat = tuple[tuple[int, ...], tuple[tuple[int, ...], ...], int]  # (X, U, det)
_RATIONAL = re.compile(r"[+-]?[0-9]+(?:/[0-9]+)?")
_SHOWN = 40  # a refused value longer than this is named by its start and length
_DISPLAY_SCALE = 10**6  # `decimal_display` shows six places


def vector(values: Iterable) -> Vec:
    """Coerce an iterable of numbers into a tuple of Fractions."""
    return tuple(Fraction(v) for v in values)


def dot(u: Sequence[Fraction], v: Sequence[Fraction]) -> Fraction:
    if len(u) != len(v):
        raise DimensionMismatchError(f"dot of lengths {len(u)} and {len(v)}")
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


def integer_row(values: Sequence) -> IntRow:
    """Scale Fractions and ints by a positive factor to coprime integers.

    The factor is positive, so the sign of a·x − b at any point is kept when
    (a, b) is scaled this way; an all-zero row stays all zero.
    """
    scale = lcm(*(v.denominator for v in values))
    ints = [v.numerator * (scale // v.denominator) for v in values]
    g = gcd(*ints) or 1
    return tuple(v // g for v in ints)


@cache
def space(d: int) -> Flat:
    """R^d as a flat: no rows cut, X = 0, the unit vectors, det = 1."""
    return (0,) * d, tuple(tuple(int(i == k) for i in range(d)) for k in range(d)), 1


def meet(flat: Flat, row: Sequence[int]) -> Optional[Flat]:
    """`flat` cut by the integer row (a_1, ..., a_d, b), pivoting on the
    first direction the normal a is not orthogonal to; None when there is
    none, that is when a depends on the normals already cut."""
    x, directions, det = flat
    cs = [sum(map(mul, row, u)) for u in directions]  # map stops before b
    for p, c in enumerate(cs):
        if c:
            up = directions[p]
            r = row[-1] * det - sum(map(mul, row, x))
            rest = [tuple([(c * s - ck * t) // det for s, t in zip(u, up)])
                    for k, (u, ck) in enumerate(zip(directions, cs)) if k != p]
            return tuple([(c * s + r * t) // det for s, t in zip(x, up)]), tuple(rest), c
    return None


def crossing(line: Flat, row: Sequence[int]) -> Optional[IntPoint]:
    """The point where the integer row (a_1, ..., a_d, b) crosses `line`,
    a flat with one direction, as (numerators, denominator) in lowest terms
    with a positive denominator; None when a is orthogonal to the line.
    It is `meet`'s update with no direction left to carry."""
    x, (u,), det = line
    c = sum(map(mul, row, u))
    if not c:
        return None
    r = row[-1] * det - sum(map(mul, row, x))
    p = [(c * s + r * t) // det for s, t in zip(x, u)]
    if c < 0:
        c, p = -c, [-v for v in p]
    g = gcd(c, *p)
    if g != 1:
        c, p = c // g, [v // g for v in p]
    return tuple(p), c


def solve_linear_system(m: Mat, rhs: Vec) -> Optional[Vec]:
    """Solve m·x = rhs exactly; return None when the matrix is singular.

    Each row of the augmented matrix is scaled to integers (`integer_row`),
    R^d is cut by the first d-1 (`meet`) and the last crosses the line they
    leave (`crossing`); Fractions appear again only in the result.
    """
    d = len(rhs)
    if len(m) != d or any(len(row) != d for row in m):
        raise DimensionMismatchError(
            f"expected a {d}x{d} matrix to match rhs of length {d}"
        )
    if not d:
        return ()
    *rows, last = [integer_row((*row, y)) for row, y in zip(m, rhs)]
    flat = space(d)
    for row in rows:
        flat = meet(flat, row)
        if flat is None:
            return None
    solved = crossing(flat, last)
    return None if solved is None else tuple(Fraction(p, solved[1]) for p in solved[0])


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


def brief(value) -> str:
    """`repr(value)`, or when that is longer than `_SHOWN` its first half of
    that and its length, so a message naming the value stays one short line."""
    text = repr(value)
    return text if len(text) <= _SHOWN else f"{text[:_SHOWN // 2]}... ({len(text)} characters)"


def decimal_display(q: Fraction) -> str:
    """Fixed-width decimal annotation, six places, round-half-even; display only.
    Exact at any size; a negative value that rounds to 0 shows as -0.000000."""
    units = abs(round(q * _DISPLAY_SCALE))  # Fraction.__round__ rounds half to even
    return f"{'-' if q < 0 else ''}{units // _DISPLAY_SCALE}.{units % _DISPLAY_SCALE:06d}"
