"""Arrangement-level aggregates: censuses, average diameter, face statistics.

A census runs the stages in order: the vertex pass
(`arrangement.enumerate_vertices`), the cell pass, which lists each
bounded cell as a (plus mask, vertex ids) pair
(`arrangement.enumerate_bounded_cells`), the records built from those
pairs (`cells.build_cell_records`), and in d = 2 and 3 the facets read
off the records (`arrangement.enumerate_bounded_facets`).

Everything here is an exact rational or an integer count; decimal displays
are attached only at serialization time.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from typing import NamedTuple, Optional

from .arrangement import (
    Arrangement,
    enumerate_bounded_cells,
    enumerate_bounded_facets,
    enumerate_vertices,
)
from .cells import (
    CellClass,
    CellRecord,
    build_cell_records,
    cube,
    simplex,
    simplex_product,
)


class CensusReport(NamedTuple):
    dim: int
    n: int
    vertex_count: int
    cell_count: int
    class_counts: dict[CellClass, int]
    delta: Fraction
    f_bounded: Optional[int]
    f_external: Optional[int]
    p_odd: Optional[int]
    records: list[CellRecord]
    metadata: dict


def census(arr: Arrangement, metadata: Optional[dict] = None) -> CensusReport:
    """Full aggregate over the bounded cells of a simple arrangement, in the
    stages the module docstring lists; vertex enumeration raises
    NotSimpleError for any other input."""
    vertices = enumerate_vertices(arr)
    records = build_cell_records(arr, vertices, enumerate_bounded_cells(arr, vertices))
    counts = Counter(rec.cell_class for rec in records)
    delta = Fraction(sum(rec.diameter for rec in records), len(records))

    # bounded (d-1)-faces, and those incident to exactly one bounded cell;
    # read by P2 and P4 only, and None for d >= 4
    f_bounded = f_external = p_odd = None
    if arr.dim in (2, 3):
        facets = enumerate_bounded_facets(arr, records)
        f_bounded = len(facets)
        f_external = sum(len(rec.cells) == 1 for rec in facets)
    if arr.dim == 2:
        p_odd = sum(1 for rec in records if rec.vertex_count % 2 == 1)

    return CensusReport(
        dim=arr.dim,
        n=arr.n,
        vertex_count=len(vertices),
        cell_count=len(records),
        class_counts=dict(counts),
        delta=delta,
        f_bounded=f_bounded,
        f_external=f_external,
        p_odd=p_odd,
        records=records,
        metadata=metadata or {},
    )


# ---------------------------------------------------------------------------
# class-count views; the factories name the plane's classes, so in dimension
# 2 these count triangles and squares
# ---------------------------------------------------------------------------

def class_count(report: CensusReport, cls: CellClass) -> int:
    return report.class_counts.get(cls, 0)


def simplex_count(report: CensusReport) -> int:
    return class_count(report, simplex(report.dim))


def cube_count(report: CensusReport) -> int:
    return class_count(report, cube(report.dim))


def prism_count(report: CensusReport) -> int:
    return class_count(report, simplex_product(1, report.dim - 1))
