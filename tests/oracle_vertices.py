"""Reference oracle for `enumerate_vertices` and `check_simple`: Fractions.

Every d-subset is solved by Gauss-Jordan elimination on Fractions, repeated
points are found by comparing Fraction tuples, and all n signs are evaluated
with `evaluate_sign` (`sign_affine` on Fractions).  The solve is kept here
instead of calling `solve_linear_system`, which now adapts the integer
kernel, so no arithmetic is shared with the code under test.  The defects
are checked in the same order and reported with the same witness and reason
as the kernel.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Iterator, Optional

from arrangement_lab.arrangement import (
    Arrangement,
    SimplicityReport,
    Vertex,
)
from arrangement_lab.errors import NotSimpleError
from arrangement_lab.rational import Vec
from oracle_arithmetic import evaluate_sign


def solve_by_fractions(m, rhs) -> Optional[Vec]:
    """Gauss-Jordan elimination on the Fraction system m·x = rhs."""
    d = len(rhs)
    rows = [[Fraction(v) for v in row] + [Fraction(y)] for row, y in zip(m, rhs)]
    for col in range(d):
        pivot = next((r for r in range(col, d) if rows[r][col] != 0), None)
        if pivot is None:
            return None
        rows[col], rows[pivot] = rows[pivot], rows[col]
        lead = rows[col][col]
        rows[col] = [v / lead for v in rows[col]]
        for r in range(d):
            if r != col and rows[r][col] != 0:
                factor = rows[r][col]
                rows[r] = [v - factor * w for v, w in zip(rows[r], rows[col])]
    return tuple(row[d] for row in rows)


def _not_simple(witness, reason: str) -> NotSimpleError:
    report = SimplicityReport(False, witness, reason)
    return NotSimpleError(f"arrangement is not simple: {reason}", report=report)


def subset_points_by_fractions(arr: Arrangement) -> Iterator[tuple[tuple[int, ...], Vec]]:
    d, n = arr.dim, arr.n
    if n < d + 1:
        raise _not_simple(None, f"need at least {d + 1} hyperplanes, got {n}")
    seen: dict[Vec, tuple[int, ...]] = {}
    for subset in itertools.combinations(range(n), d):
        m = tuple(arr.hyperplanes[i].a for i in subset)
        rhs = tuple(arr.hyperplanes[i].b for i in subset)
        point = solve_by_fractions(m, rhs)
        if point is None:
            raise _not_simple(subset, "hyperplanes do not meet in a single point")
        if point in seen:
            raise _not_simple(
                subset, f"intersection point coincides with subset {seen[point]}"
            )
        seen[point] = subset
        yield subset, point


def check_simple_by_fractions(arr: Arrangement) -> SimplicityReport:
    try:
        for _ in subset_points_by_fractions(arr):
            pass
    except NotSimpleError as exc:
        return exc.report
    return SimplicityReport(True)


def enumerate_vertices_by_fractions(arr: Arrangement) -> list[Vertex]:
    vertices: list[Vertex] = []
    for subset, point in subset_points_by_fractions(arr):
        signs = tuple(evaluate_sign(h, point) for h in arr.hyperplanes)
        zeros = tuple(i for i, s in enumerate(signs) if s == 0)
        if zeros != subset:
            raise _not_simple(
                zeros, f"point of subset {subset} lies on extra hyperplanes "
                f"{sorted(set(zeros) - set(subset))}"
            )
        vertices.append(Vertex(point, subset, signs))
    return vertices
