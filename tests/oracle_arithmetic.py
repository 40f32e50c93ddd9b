"""Fraction arithmetic that only the tests and their oracles use.

The engine signs and solves in plain integers; these helpers evaluate signs,
embed chart points and multiply small matrices on Fractions, so the oracles
check the kernel with arithmetic it does not share.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable

from arrangement_lab.arrangement import Hyperplane, Restriction, Sign
from arrangement_lab.errors import DimensionMismatchError
from arrangement_lab.rational import Mat, Vec, dot, sign_affine, vector


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
