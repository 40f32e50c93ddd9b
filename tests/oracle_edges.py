"""Reference oracle for `enumerate_edges`: the geometric construction.

Each line (d-1 hyperplanes) gets a direction vector from a separate Fraction
Gaussian elimination; its vertices are sorted along the dominant axis of
that direction, and every segment and ray is signed by evaluating all n
hyperplanes at an interior point (a segment midpoint, or one direction step
beyond the extreme vertex).  Slow, but it derives each sign vector from the
geometry instead of from the vertex sign vectors, so it checks the
combinatorial kernel independently.

`line_steps_from_edges` is the step-table builder that reading the line
orders directly replaced: it fills every vertex's steps from the segments
of `enumerate_edges`, so it checks `Vertex.steps` through a second route.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from arrangement_lab.arrangement import (
    Arrangement,
    ArrangementEdge,
    SignVector,
    Vertex,
)
from arrangement_lab.errors import InternalConsistencyError
from arrangement_lab.rational import Vec
from oracle_arithmetic import evaluate_sign, vec_add, vec_scale


def _neg(u: Vec) -> Vec:
    return tuple(-a for a in u)


def line_direction(arr: Arrangement, line_set: tuple[int, ...]) -> Vec:
    """A nonzero vector parallel to the intersection of the line_set normals.

    The (d-1) x d system has rank d-1 for a simple arrangement, so exactly
    one free column remains after Gaussian elimination.
    """
    d = arr.dim
    rows = [list(arr.hyperplanes[i].a) for i in line_set]
    pivot_cols: list[int] = []
    r = 0
    for col in range(d):
        pivot = next((i for i in range(r, len(rows)) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        lead = rows[r][col]
        rows[r] = [v / lead for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col] != 0:
                factor = rows[i][col]
                rows[i] = [v - factor * w for v, w in zip(rows[i], rows[r])]
        pivot_cols.append(col)
        r += 1
        if r == len(rows):
            break
    if r != len(rows):
        raise InternalConsistencyError(f"line normals {line_set} are linearly dependent")
    free = next(c for c in range(d) if c not in pivot_cols)
    direction = [Fraction(0)] * d
    direction[free] = Fraction(1)
    for row_idx, col in enumerate(pivot_cols):
        direction[col] = -rows[row_idx][free]
    return tuple(direction)


def face_signs(arr: Arrangement, zero_set: tuple[int, ...], interior: Vec) -> SignVector:
    signs = tuple(evaluate_sign(h, interior) for h in arr.hyperplanes)
    if tuple(i for i, s in enumerate(signs) if s == 0) != zero_set:
        raise InternalConsistencyError(
            f"face on {zero_set} has unexpected zeros at its interior point"
        )
    return signs


def enumerate_edges_by_probing(arr: Arrangement, vertices: list[Vertex]) -> list[ArrangementEdge]:
    """Every line's segments between consecutive vertices plus its two
    extreme rays, each signed at an interior probe point."""
    d = arr.dim
    lines: dict[tuple[int, ...], list[int]] = {}
    for vid, v in enumerate(vertices):
        for sub in itertools.combinations(v.tight_set, d - 1):
            lines.setdefault(sub, []).append(vid)

    edges: list[ArrangementEdge] = []
    for line_set in sorted(lines):
        direction = line_direction(arr, line_set)
        # sort along the axis with the largest |direction| component,
        # ties broken by lowest axis index
        axis = max(range(d), key=lambda c: (abs(direction[c]), -c))
        if direction[axis] < 0:
            direction = _neg(direction)
        order = sorted(lines[line_set], key=lambda vid: vertices[vid].point[axis])

        first, last = order[0], order[-1]
        probe = vec_add(vertices[first].point, _neg(direction))
        edges.append(ArrangementEdge(line_set, face_signs(arr, line_set, probe), first))
        for u, w in zip(order, order[1:]):
            midpoint = vec_scale(vec_add(vertices[u].point, vertices[w].point), Fraction(1, 2))
            edges.append(
                ArrangementEdge(line_set, face_signs(arr, line_set, midpoint), u, head=w)
            )
        probe = vec_add(vertices[last].point, direction)
        edges.append(ArrangementEdge(line_set, face_signs(arr, line_set, probe), last))
    return edges


def line_steps_from_edges(vertices: list[Vertex], edges: list[ArrangementEdge]) -> list[tuple]:
    """Every vertex's `Vertex.steps`, read off the segments.

    For a segment at v, the line drops the one index of v's tight set where
    the segment's sign is nonzero.  Segments run from tail to head in
    increasing lexicographic order, so up is the segment's sign at its tail
    and the opposite at its head.
    """
    steps = [{k: [None, None, 0] for k in v.tight_set} for v in vertices]
    for edge in edges:
        if edge.is_segment:
            signs = edge.sign_vector
            for v, w, up in ((edge.tail, edge.head, 1), (edge.head, edge.tail, -1)):
                for k, step in steps[v].items():
                    if signs[k]:  # v's one tight index off the segment's line
                        step[signs[k] > 0], step[2] = w, up * signs[k]
                        break
    return [tuple(tuple(row[k]) for k in v.tight_set) for v, row in zip(vertices, steps)]
