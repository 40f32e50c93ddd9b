"""Static figure exports: SVG for line arrangements, OFF for single 3D cells.

Exports are terminal artifacts, never re-ingested, so this is the one place
exact coordinates are allowed to become decimal text.  All element orders,
colors and number formats are fixed, making output byte-identical for
identical input.
"""

from __future__ import annotations

from fractions import Fraction

from .arrangement import (
    Arrangement,
    _walk,
    enumerate_bounded_cells,
    enumerate_vertices,
    line_steps,
)
from .cells import cell_record
from .errors import InputError, UnsupportedDimensionError
from .jsonio import signature_str
from .rational import decimal_display

_RAMP_LOW = (255, 255, 204)
_RAMP_HIGH = (177, 0, 38)


def diameter_color(diameter: int, max_diameter: int) -> str:
    t = 0.0 if max_diameter <= 1 else (diameter - 1) / (max_diameter - 1)
    channels = tuple(
        round(lo + (hi - lo) * t) for lo, hi in zip(_RAMP_LOW, _RAMP_HIGH)
    )
    return "#%02x%02x%02x" % channels


def _cycle_order(adj: dict[int, tuple[int, ...]]) -> list[int]:
    """Walk a cycle graph deterministically: start at the smallest vertex,
    step to its smaller neighbour first."""
    start = min(adj)
    order = [start]
    previous, current = None, start
    while True:
        a, b = adj[current]
        nxt = a if a != previous else b
        if nxt == start:
            return order
        order.append(nxt)
        previous, current = current, nxt


def render_svg(arr: Arrangement, width: float = 900.0) -> str:
    """All lines clipped to the padded vertex bounding box, bounded cells
    filled on a diameter color ramp, vertices as dots."""
    if arr.dim != 2:
        raise UnsupportedDimensionError("SVG export requires a 2-dimensional arrangement")
    vertices = enumerate_vertices(arr)
    records = enumerate_bounded_cells(arr, vertices, line_steps(arr, vertices))

    (x_lo, x_hi), (y_lo, y_hi) = ((min(c), max(c)) for c in zip(*(v.point for v in vertices)))
    pad_x, pad_y = (x_hi - x_lo) * Fraction(1, 5), (y_hi - y_lo) * Fraction(1, 5)
    x0, x1 = x_lo - pad_x, x_hi + pad_x
    y0, y1 = y_lo - pad_y, y_hi + pad_y

    scale = width / float(x1 - x0)
    height = float(y1 - y0) * scale

    def to_px(x: Fraction, y: Fraction) -> tuple[float, float]:
        return (float(x - x0) * scale, (float(y1 - y) * scale))

    # each vertex converted and formatted once, for its polygons and its dot,
    # x - x0 and y1 - y as int / int, which rounds as float(Fraction) does
    a, b, c, e = x0.numerator, x0.denominator, y1.numerator, y1.denominator
    pixels = [(f"{(p * b - a * q) / (q * b) * scale:.3f}",
               f"{(c * q - r * e) / (q * e) * scale:.3f}")
              for (p, r), q in ((v.numerators, v.denominator) for v in vertices)]

    max_diameter = max(rec.diameter for rec in records)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" '
        f'height="{height:.2f}" viewBox="0 0 {width:.2f} {height:.2f}">'
    ]
    for rec in records:
        adj = rec.adjacency_dict()
        points = [",".join(pixels[vid]) for vid in _cycle_order(adj)]
        parts.append(
            f'<polygon points="{" ".join(points)}" '
            f'fill="{diameter_color(rec.diameter, max_diameter)}" '
            f'stroke="#777777" stroke-width="0.6">'
            f"<title>{signature_str(rec.signature)} diameter {rec.diameter}</title>"
            f"</polygon>"
        )
    for h in arr.hyperplanes:
        clipped = _clip_line(h.a, h.b, x0, x1, y0, y1)
        if clipped is None:
            continue
        (ax, ay), (bx, by) = clipped
        pax, pay = to_px(ax, ay)
        pbx, pby = to_px(bx, by)
        parts.append(
            f'<line x1="{pax:.3f}" y1="{pay:.3f}" x2="{pbx:.3f}" y2="{pby:.3f}" '
            f'stroke="#333333" stroke-width="1.2"/>'
        )
    for px, py in pixels:
        parts.append(f'<circle cx="{px}" cy="{py}" r="3" fill="#000000"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


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


def render_off(arr: Arrangement, signature: tuple[int, ...]) -> str:
    """One bounded cell of a 3D arrangement as OFF text: vertices first,
    facets ordered by hyperplane index with vertices in cyclic order.

    Only the requested cell is walked, from the first vertex whose signs
    agree with the signature off its tight set; raises InputError when no
    vertex does or when the walk reaches a ray."""
    if arr.dim != 3:
        raise UnsupportedDimensionError("OFF export requires a 3-dimensional arrangement")
    vertices = enumerate_vertices(arr)  # raises first on a non-simple input
    if len(signature) != arr.n:
        raise InputError(
            f"signature length {len(signature)} does not match n = {arr.n}"
        )
    steps = line_steps(arr, vertices)
    start = next((vid for vid, v in enumerate(vertices) if 0 not in signature
                  and all(s in (0, c) for s, c in zip(v.sign_vector, signature))), None)
    walk = start is not None and _walk(steps, start, signature)
    if not walk:
        raise InputError(f"{signature_str(signature)} is not a bounded cell of this arrangement")
    record = cell_record(arr.dim, signature, walk)
    vids, skeleton = record.vertex_ids, record.adjacency_dict()

    local = {vid: i for i, vid in enumerate(vids)}
    facets = []
    for plane in record.facets:
        members = {vid for vid in vids if plane in vertices[vid].tight_set}
        ring_adj = {vid: tuple(w for w in skeleton[vid] if w in members) for vid in members}
        facets.append([local[vid] for vid in _cycle_order(ring_adj)])

    lines = ["OFF", f"{record.vertex_count} {record.facet_count} {record.edge_count}"]
    for vid in vids:
        point = vertices[vid].point
        lines.append(" ".join(decimal_display(c) for c in point))
    for facet in facets:
        lines.append(" ".join(str(v) for v in [len(facet)] + facet))
    return "\n".join(lines) + "\n"
