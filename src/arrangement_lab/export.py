"""Static figure exports: SVG for line arrangements, OFF for single 3D cells.

Exports are terminal artifacts, never re-ingested, so this is the one place
exact coordinates are allowed to become decimal text.  All element orders,
colors and number formats are fixed, making output byte-identical for
identical input.  Polygons are traced on their skeletons, whose vertices
are adjacent when their tight sets share d-1 hyperplanes
(`arrangement._face_edges`).
"""

from __future__ import annotations

from fractions import Fraction
from functools import cmp_to_key

from .arrangement import (
    Arrangement,
    Vertex,
    _face_edges,
    enumerate_bounded_cells,
    enumerate_vertices,
    signature_from_str,
    signature_str,
)
from .cells import build_cell_records
from .errors import InputError, UnsupportedDimensionError
from .rational import decimal_display

_SVG_WIDTH = 900.0
_RAMP_LOW = (255, 255, 204)
_RAMP_HIGH = (177, 0, 38)


def diameter_color(diameter: int, max_diameter: int) -> str:
    t = 0.0 if max_diameter <= 1 else (diameter - 1) / (max_diameter - 1)
    channels = tuple(
        round(lo + (hi - lo) * t) for lo, hi in zip(_RAMP_LOW, _RAMP_HIGH)
    )
    return "#%02x%02x%02x" % channels


def _ring(vertices: list[Vertex], n: int, face: int, vertex_ids: tuple[int, ...]) -> list[int]:
    """A bounded 2-face's increasing vertex ids in cyclic order, each joined
    to the two that share a line with it.  Starts at the smallest vertex,
    toward its smaller neighbour."""
    adj = _face_edges(vertices, n, face, vertex_ids)
    ring = [vertex_ids[0], adj[vertex_ids[0]][0]]
    while len(ring) < len(adj):
        a, b = adj[ring[-1]]
        ring.append(b if a == ring[-2] else a)
    return ring


def _extremes(vertices: list[Vertex], axis: int) -> list[Fraction]:
    """The least and the greatest coordinate `axis` of the vertices."""
    key = cmp_to_key(lambda u, w: u.numerators[axis] * w.denominator
                     - w.numerators[axis] * u.denominator)
    return [Fraction(v.numerators[axis], v.denominator)
            for v in (min(vertices, key=key), max(vertices, key=key))]


def render_svg(arr: Arrangement) -> str:
    """All lines clipped to the padded vertex bounding box, bounded cells
    filled on a diameter color ramp, vertices as dots."""
    if arr.dim != 2:
        raise UnsupportedDimensionError("SVG export requires a 2-dimensional arrangement")
    vertices = enumerate_vertices(arr)
    records = enumerate_bounded_cells(arr, vertices)

    (x_lo, x_hi), (y_lo, y_hi) = _extremes(vertices, 0), _extremes(vertices, 1)
    pad_x, pad_y = (x_hi - x_lo) * Fraction(1, 5), (y_hi - y_lo) * Fraction(1, 5)
    x0, x1 = x_lo - pad_x, x_hi + pad_x
    y0, y1 = y_lo - pad_y, y_hi + pad_y

    scale = _SVG_WIDTH / float(x1 - x0)
    height = float(y1 - y0) * scale
    a, b, c, e = x0.numerator, x0.denominator, y1.numerator, y1.denominator

    # (p/q, r/q) in pixels, as text; x - x0 and y1 - y as int / int, which
    # rounds as float(Fraction) does
    def pixel(p: int, r: int, q: int) -> tuple[str, str]:
        return (f"{(p * b - a * q) / (q * b) * scale:.3f}",
                f"{(c * q - r * e) / (q * e) * scale:.3f}")

    # each vertex converted and formatted once, for its polygons and its dot
    pixels = [pixel(*v.numerators, v.denominator) for v in vertices]

    max_diameter = max(rec.diameter for rec in records)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_WIDTH:.0f}" '
        f'height="{height:.2f}" viewBox="0 0 {_SVG_WIDTH:.2f} {height:.2f}">'
    ]
    for rec in records:
        ring = _ring(vertices, arr.n, rec.signature, rec.vertex_ids)
        points = [",".join(pixels[vid]) for vid in ring]
        parts.append(
            f'<polygon points="{" ".join(points)}" '
            f'fill="{diameter_color(rec.diameter, max_diameter)}" '
            f'stroke="#777777" stroke-width="0.6">'
            f"<title>{signature_str(rec.signature, arr.n)} diameter {rec.diameter}</title>"
            f"</polygon>"
        )
    del vertices, records  # the rest reads the pixels, so the text is written beside less
    for h in arr.hyperplanes:
        clipped = _clip_line(h.a, h.b, x0, x1, y0, y1)
        if clipped is None:
            continue
        (pax, pay), (pbx, pby) = (pixel(x.numerator * y.denominator, y.numerator * x.denominator,
                                        x.denominator * y.denominator) for x, y in clipped)
        parts.append(
            f'<line x1="{pax}" y1="{pay}" x2="{pbx}" y2="{pby}" '
            f'stroke="#333333" stroke-width="1.2"/>'
        )
    for px, py in pixels:
        parts.append(f'<circle cx="{px}" cy="{py}" r="3" fill="#000000"/>')
    parts.append("</svg>\n")
    return "\n".join(parts)


def _clip_line(a, b, x0, x1, y0, y1):
    """Intersect the line a.x = b with the rectangle; exact arithmetic."""
    hits = []
    a1, a2 = a
    for x_edge in (x0, x1):
        if a2 != 0:
            y = (b - a1 * x_edge) / a2
            if y0 <= y <= y1:
                hits.append((x_edge, y))
    for y_edge in (y0, y1):
        if a1 != 0:
            x = (b - a2 * y_edge) / a1
            if x0 <= x <= x1:
                hits.append((x, y_edge))
    hits = sorted(set(hits))
    if len(hits) < 2:
        return None
    return hits[0], hits[-1]


def render_off(arr: Arrangement, cell: str) -> str:
    """One bounded cell of a 3D arrangement, given as its +/- string, as OFF
    text: vertices first, facets ordered by hyperplane index with vertices
    in cyclic order.

    Raises InputError when the cell is not bounded (`cells.build_cell_records`),
    and before any vertex is enumerated when the string's length is not n."""
    if arr.dim != 3:
        raise UnsupportedDimensionError("OFF export requires a 3-dimensional arrangement")
    signature = signature_from_str(cell)
    n, top = arr.n, arr.n - 1
    if len(cell) != n:
        raise InputError(f"signature length {len(cell)} does not match n = {n}")
    vertices = enumerate_vertices(arr)
    (record,) = build_cell_records(arr, vertices, [signature])
    vids = record.vertex_ids
    local = {vid: i for i, vid in enumerate(vids)}
    facets = []
    for plane in record.facets:
        bit = 1 << top - plane
        on = tuple(vid for vid in vids if plane in vertices[vid].tight_set)
        facets.append([local[vid] for vid in _ring(vertices, n, signature & ~bit | bit << n, on)])

    lines = ["OFF", f"{record.vertex_count} {record.facet_count} {record.edge_count}"]
    for vid in vids:
        point = vertices[vid].point
        lines.append(" ".join(decimal_display(c) for c in point))
    for facet in facets:
        lines.append(" ".join(str(v) for v in [len(facet)] + facet))
    lines.append("")
    return "\n".join(lines)
