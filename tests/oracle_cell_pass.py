"""Reference oracles for the one-pass cell kernel and the one-walk JSON
emitter.

`cell_records` is the walk-then-records path: the skeleton walk returns a
{vertex: sorted neighbours} skeleton, every bounded cell's skeleton is
kept until the last one is found, and only then are the records built,
re-reading each vertex's tight set for the facets and for
`product_factors`, and counting the edges in the skeleton.  It walks the
steps of `oracle_vertices.line_steps_from_orders`, so it reads the
kernel's vertices only for their points, tight sets and signs, and not
the kernel's bounded-cell table (`arrangement._bounded_cells`); it shares
`product_factors`, `cell_diameter` and `classify_cell`.  It returns the
skeletons beside the records, which keep none.  It works on ±1 tuples,
sorts the cells by them, and writes each record's signature as the mask
it stands for (`signs.face_of`).  `bounded_face_skeletons` is the face walk in every
codimension.

`reference_dumps` is `canonical_dumps` as two walks: `jsonify` makes the
tree JSON-ready, then `json.dumps` writes it.
"""

from __future__ import annotations

import itertools
import json
from fractions import Fraction
from math import comb
from typing import Optional

from arrangement_lab.arrangement import Arrangement, SignVector, Vertex
from arrangement_lab.cells import CellRecord, cell_diameter, classify_cell, product_factors
from arrangement_lab.errors import InternalConsistencyError
from arrangement_lab.rational import format_rational
from oracle_vertices import line_steps_from_orders
from signs import face_of, vertex_signs

Skeleton = dict[int, tuple[int, ...]]  # vertex -> sorted neighbours


def walk(
    vertices: list[Vertex], steps: list[tuple], start: int, face: SignVector
) -> Optional[Skeleton]:
    """The skeleton of `face`, reached from `start` by the steps (w-, w+,
    up), one per tight index of each vertex, toward the face's side of
    every hyperplane it is not on, in increasing vertex order; None as soon
    as a step is a ray."""
    adjacent: Skeleton = {}
    seen, todo = {start}, [start]
    for v in todo:
        nbrs = []
        for k, step in zip(vertices[v].tight_set, steps[v]):
            side = face[k]
            if side:
                w = step[side > 0]
                if w is None:
                    return None
                nbrs.append(w)
                if w not in seen:
                    seen.add(w)
                    todo.append(w)
        nbrs.sort()
        adjacent[v] = tuple(nbrs)
    return {v: adjacent[v] for v in sorted(adjacent)}


def bounded_face_skeletons(
    vertices: list[Vertex], steps: list[tuple], n: int, codim: int
) -> dict[SignVector, Skeleton]:
    """Bounded faces of codimension `codim`, as {signature: skeleton}, each
    walked on `steps` from the one candidate at its lex-min vertex; every
    up candidate is walked, and those that reach a ray are dropped."""
    faces: dict[SignVector, Skeleton] = {}
    for vid, v in enumerate(vertices):
        for kept in itertools.combinations(v.tight_set, codim):
            face = list(vertex_signs(v, n))
            for k, step in zip(v.tight_set, steps[vid]):
                if k not in kept:
                    face[k] = step[2]
            skeleton = walk(vertices, steps, vid, face)
            if skeleton is not None:
                faces[tuple(face)] = skeleton
    return faces


def lex_candidates(
    vertices: list[Vertex], steps: list[tuple], n: int, side: int
) -> set[SignVector]:
    """The cells that can have a vertex as their lex-min vertex (side 1) or
    as their lex-max vertex (side -1): its signs with each tight index set
    to the side of it that lies that way."""
    faces = set()
    for v, v_steps in zip(vertices, steps):
        face = list(vertex_signs(v, n))
        for k, step in zip(v.tight_set, v_steps):
            face[k] = step[2] * side
        faces.add(tuple(face))
    return faces


def cell_records(
    arr: Arrangement, vertices: list[Vertex]
) -> tuple[list[CellRecord], list[Skeleton]]:
    """One record per bounded cell, built after the last cell is walked, and
    its skeleton; the cell count must equal C(n-1, d)."""
    steps = line_steps_from_orders(arr, vertices)
    skeletons = bounded_face_skeletons(vertices, steps, arr.n, 0)
    expected = comb(arr.n - 1, arr.dim)
    if len(skeletons) != expected:
        raise InternalConsistencyError(f"found {len(skeletons)} bounded cells, expected {expected}")
    records = []
    for signature in sorted(skeletons):
        skeleton = skeletons[signature]
        tight_sets = [vertices[vid].tight_set for vid in skeleton]
        facets = tuple(sorted({k for tight in tight_sets for k in tight}))
        v, e, f = len(tight_sets), sum(map(len, skeleton.values())) // 2, len(facets)
        if arr.dim == 3 and (v - e + f != 2 or 2 * e != 3 * v):
            raise InternalConsistencyError(f"cell {signature} violates 3D count identities")
        factors = product_factors(tight_sets)
        records.append(CellRecord(
            signature=face_of(signature),
            vertex_ids=tuple(skeleton),
            vertex_count=v,
            edge_count=e,
            facets=facets,
            diameter=len(factors) if factors else cell_diameter(skeleton),
            cell_class=classify_cell(v, e, f, factors, arr.dim),
        ))
    return records, [skeletons[signature] for signature in sorted(skeletons)]


def jsonify(value):
    """Recursively convert to JSON-ready structures; Fractions become strings."""
    if isinstance(value, Fraction):
        return format_rational(value)
    if isinstance(value, dict):
        return {str(k): jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonify(v) for v in value]
    return value


def reference_dumps(obj) -> str:
    return json.dumps(jsonify(obj), sort_keys=True, indent=2) + "\n"
