"""Arrangement-level aggregates: censuses, average diameter, face statistics.

Everything here is an exact rational or an integer count; decimal displays
are attached only at serialization time.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .arrangement import (
    Arrangement,
    enumerate_bounded_cells,
    enumerate_bounded_facets,
    enumerate_vertices,
    line_steps,
)
from .cells import (
    CellClass,
    CellRecord,
    build_cell_records,
    cube,
    polygon,
    simplex,
    simplex_product,
)
from .errors import UnsupportedDimensionError


@dataclass
class CensusReport:
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
    metadata: dict = field(default_factory=dict)


def census(arr: Arrangement, metadata: Optional[dict] = None) -> CensusReport:
    """Full aggregate over the bounded cells of a simple arrangement; vertex
    enumeration raises NotSimpleError for any other input.  The line-step
    table is built once and read by the one face walk, which finds the cells
    with their skeletons; the facets are read off the cells."""
    vertices = enumerate_vertices(arr)
    steps = line_steps(arr, vertices)
    cells = enumerate_bounded_cells(arr, vertices, steps)
    records = build_cell_records(arr, vertices, cells)
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
# single-number views of `census`
# ---------------------------------------------------------------------------

def average_diameter(arr: Arrangement) -> Fraction:
    """Exact mean of bounded-cell diameters."""
    return census(arr).delta


def external_face_count(arr: Arrangement) -> int:
    """Bounded (d-1)-faces incident to exactly one bounded cell."""
    if arr.dim not in (2, 3):
        raise UnsupportedDimensionError("external faces are defined for d in {2, 3}")
    return census(arr).f_external


def p_odd_count(arr: Arrangement) -> int:
    """Bounded cells with an odd number of edges (equivalently vertices)."""
    if arr.dim != 2:
        raise UnsupportedDimensionError("odd-cell counting is defined for d = 2")
    return census(arr).p_odd


# ---------------------------------------------------------------------------
# class-count views; in dimension 2 every cell is a polygon, so the square
# plays the role of both the 2-cube and the prism over a 1-simplex
# ---------------------------------------------------------------------------

def class_count(report: CensusReport, cls: CellClass) -> int:
    return report.class_counts.get(cls, 0)


def simplex_count(report: CensusReport) -> int:
    if report.dim == 2:
        return class_count(report, polygon(3))
    return class_count(report, simplex(report.dim))


def cube_count(report: CensusReport) -> int:
    if report.dim == 2:
        return class_count(report, polygon(4))
    return class_count(report, cube(report.dim))


def prism_count(report: CensusReport) -> int:
    if report.dim == 2:
        return class_count(report, polygon(4))
    return class_count(report, simplex_product(1, report.dim - 1))
