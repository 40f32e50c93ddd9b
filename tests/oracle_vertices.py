"""Reference oracle for `enumerate_vertices` and `check_simple`: Fractions.

Every d-subset is solved by Gauss-Jordan elimination on Fractions, repeated
points are found by comparing Fraction tuples, and all n signs are evaluated
at every vertex with `evaluate_sign` (`sign_affine` on Fractions).  The
solve is kept here instead of calling `solve_linear_system`, which now
adapts the integer kernel, so no arithmetic is shared with the code under
test.  The defects are checked subset by subset in lexicographic order
(singular, repeated point, extra hyperplane) and reported with the same
witness and reason as the kernel; `check_simple_by_fractions` returns the
report of that error, as `check_simple` returns the kernel's.

`line_orders` is the earlier per-line sort over the Fraction points, and
`line_steps_from_orders` every vertex's steps built from it: (w-, w+, up)
on each of its lines, the neighbours on the - and + sides of the dropped
hyperplane and the side that lies above.  `Vertex.rise` must equal the up
sides they read (`signs.rise_mask`).
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import lcm
from typing import Iterator, Optional

from arrangement_lab.arrangement import (
    Arrangement,
    SimplicityReport,
    Vertex,
)
from arrangement_lab.errors import NotSimpleError
from arrangement_lab.rational import Vec
from oracle_arithmetic import evaluate_sign
from signs import face_of, rise_mask, vertex_signs


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
    seen: set[Vec] = set()
    for subset in itertools.combinations(range(n), d):
        m = tuple(arr.hyperplanes[i].a for i in subset)
        rhs = tuple(arr.hyperplanes[i].b for i in subset)
        point = solve_by_fractions(m, rhs)
        if point is None:
            raise _not_simple(subset, "hyperplanes do not meet in a single point")
        if point in seen:
            raise _not_simple(subset, "intersection point coincides with an earlier subset's")
        seen.add(point)
        yield subset, point


def check_simple_by_fractions(arr: Arrangement) -> SimplicityReport:
    """The report that `enumerate_vertices_by_fractions` raises, or
    SimplicityReport(True)."""
    try:
        enumerate_vertices_by_fractions(arr)
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
        q = lcm(*(c.denominator for c in point))
        plus = face_of(signs) & ~(-1 << arr.n)
        vertices.append(Vertex(tuple(int(c * q) for c in point), q, subset, plus, 0))
    return [v._replace(rise=rise_mask(v, steps, arr.n))
            for v, steps in zip(vertices, line_steps_from_orders(arr, vertices))]


def line_orders(
    arr: Arrangement, vertices: list[Vertex]
) -> dict[tuple[int, ...], list[tuple[int, int]]]:
    """Every line (each (d-1)-subset of hyperplanes) with its vertices as
    (vertex id, j), j the one index tight there off the line, in increasing
    lexicographic order of their Fraction points: the first coordinate in
    which two of them differ orders a line strictly, compared as its
    numerator scaled to the lcm of its denominators along the line."""
    lines: dict[tuple[int, ...], list[tuple[int, int]]] = {}
    for vid, v in enumerate(vertices):
        tight = v.tight_set
        for k, j in enumerate(tight):
            lines.setdefault(tight[:k] + tight[k + 1:], []).append((vid, j))
    for on_line in lines.values():
        p, q = vertices[on_line[0][0]].point, vertices[on_line[1][0]].point
        axis = next(c for c in range(arr.dim) if p[c] != q[c])
        coords = [vertices[vid].point[axis] for vid, _ in on_line]
        scale = lcm(*(c.denominator for c in coords))
        keys = [c.numerator * (scale // c.denominator) for c in coords]
        on_line[:] = [item for _, item in sorted(zip(keys, on_line))]
    return lines


def line_steps_from_orders(arr: Arrangement, vertices: list[Vertex]) -> list[tuple]:
    """Every vertex's steps, (w-, w+, up) for the line that drops each
    tight index in turn, from consecutive vertices of each line in
    `line_orders`: for u < w, w lies on its own side of u's index j off
    the line, which is up from u, and w's up side is the opposite of u's
    side of w's index."""
    steps = [{k: [None, None, 0] for k in v.tight_set} for v in vertices]
    signs = [vertex_signs(v, arr.n) for v in vertices]
    for on_line in line_orders(arr, vertices).values():
        for (u, ju), (w, jw) in zip(on_line, on_line[1:]):
            side = signs[w][ju]
            step = steps[u][ju]
            step[side > 0], step[2] = w, side
            side = signs[u][jw]
            step = steps[w][jw]
            step[side > 0], step[2] = u, -side
    return [tuple(tuple(row[k]) for k in v.tight_set) for v, row in zip(vertices, steps)]
