"""Per-cell analytics: records, diameters, f-counts, classification.

`cell_record` builds each record from its cell's vertices, as
`arrangement._bounded_cells` lists them, and from each facet's mask of
those on it, read off their tight sets (`_facet_masks`).  Its signature is
the cell's plus mask, one int, bit n-1-k set where hyperplane k is
positive (`arrangement` module docstring).  A vertex is tight on d
hyperplanes and has one cell edge on the line that drops each, so
E = V·d/2.  `skeletons_for_cells` builds skeletons only for the
uncertified cells, read as (signature, vertex ids) pairs, joining two
vertices when their tight sets share d-1 hyperplanes
(`arrangement._face_edges`).

Classification and diameter come from a certificate on the vertex-facet
incidences.  `product_factors` splits the facets into groups F_1, ..., F_m
of sizes g_1, ..., g_m, and accepts when within each group the sets of
vertices missing each facet are pairwise disjoint and cover the cell, and
the vertex count is g_1 ⋯ g_m.  That certifies the cell as the product of
simplices Δ_{g_1-1} × ... × Δ_{g_m-1}:

* Each vertex misses exactly one facet of each group, so it names a
  transversal, one facet per group, and lies on every facet but those.
* Distinct vertices of a simple arrangement have distinct tight sets, so
  distinct vertices name distinct transversals; there are g_1 ⋯ g_m
  transversals and as many vertices, so the vertices are exactly the
  transversals.
* A vertex of Δ_{g_1-1} × ... × Δ_{g_m-1} is one vertex of each simplex,
  and it misses exactly the facet opposite that vertex in each factor.  So
  the cell's vertex-facet incidences equal the product's, and incidences
  fix the combinatorial type, since every face is the set of vertices on
  some facets.

The graph of the product is the Hamming graph K_{g_1} × ... × K_{g_m},
whose diameter is m.  Every cell of the cyclic star is such a product, as
are ao3's tetrahedra, prisms and cubes.  Only the cells the certificate
rejects (the ao2 n-gon, the ao3 shell, irregular random cells) have their
diameter measured, by one reach bitmask per vertex: each round ORs the
neighbours' masks in, and the number of rounds until every mask is full is
the diameter.

`classify_cell` reads the factor sizes, with the documented precedence
simplex > cube > simplex product > shell > other: one factor is a simplex,
d factors of size 2 a cube, two factors a simplex product; any other cell
is a shell or other by its counts.  Every cell of the plane is a polygon,
so there the factories name the 2-simplex the triangle, and the 2-cube and
the prism Δ1×Δ1 one square: `simplex(2)` is `polygon(3)`, and `cube(2)`
and `simplex_product(1, 1)` are `polygon(4)`.  Each class is one shared
`CellClass` object.
"""

from __future__ import annotations

from functools import cache
from math import prod
from typing import NamedTuple, Optional, Sequence

from .arrangement import (
    Arrangement, Vertex, _bounded_cells, _broken, _face_edges, signature_str,
)
from .errors import InputError

Adjacency = dict[int, tuple[int, ...]]


class CellClass(NamedTuple):
    kind: str
    params: tuple[int, ...] = ()

    @property
    def label(self) -> str:
        if self.kind == "product":
            return f"product-{self.params[0]}x{self.params[1]}"
        if self.kind == "other":
            v, e, f = self.params
            return f"other-V{v}-E{e}-F{f}"
        return f"{self.kind}-{self.params[0]}"


@cache
def polygon(k: int) -> CellClass:
    return CellClass("polygon", (k,))


@cache
def simplex(d: int) -> CellClass:
    return polygon(3) if d == 2 else CellClass("simplex", (d,))


@cache
def cube(d: int) -> CellClass:
    return polygon(4) if d == 2 else CellClass("cube", (d,))


@cache
def simplex_product(k: int, j: int) -> CellClass:
    if k > j:
        k, j = j, k
    return polygon(4) if (k, j) == (1, 1) else CellClass("product", (k, j))


@cache
def shell(n: int) -> CellClass:
    return CellClass("shell", (n,))


@cache
def other(v: int, e: int, f: int) -> CellClass:
    return CellClass("other", (v, e, f))


class CellRecord(NamedTuple):
    signature: int           # its plus mask: bit n-1-k set where hyperplane k is positive
    vertex_ids: tuple[int, ...]
    vertex_count: int
    edge_count: int
    facets: tuple[int, ...]  # the hyperplanes its facets lie on, increasing
    diameter: int
    cell_class: CellClass

    @property
    def facet_count(self) -> int:
        return len(self.facets)


# ---------------------------------------------------------------------------
# skeletons
# ---------------------------------------------------------------------------

def skeletons_for_cells(
    cells: Sequence[tuple], vertices: list[Vertex], dim: int, n: int
) -> list[Adjacency]:
    """Skeletons of bounded faces, each read as (signature, vertex ids,
    *rest), so a `CellRecord` serves as well as a plain pair: the signature
    is a face of the n hyperplanes, as in `arrangement`, and the vertex ids
    increase.  Two vertices are adjacent when their tight sets share d-1
    hyperplanes (`arrangement._face_edges`).

    The closure of a bounded face C is a simple polytope, so at each of its
    vertices v and for each k in v's tight set off C, C has exactly one
    edge on the line that drops k.  Raises InternalConsistencyError,
    naming the signature, when such a line holds one vertex of C (its
    edge is missing or leaves C) or more than two, when C has no more
    vertices than its dimension, or when its skeleton is disconnected.
    """
    skeletons = []
    for face, vertex_ids, *_ in cells:
        if len(vertex_ids) <= dim - (face >> n).bit_count():
            raise _broken(face, n, f" has only {len(vertex_ids)} vertices")
        adj = _face_edges(vertices, n, face, vertex_ids)
        reached = [vertex_ids[0]]
        seen = set(reached)
        for v in reached:
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    reached.append(w)
        if len(reached) != len(adj):
            raise _broken(face, n, " has a disconnected skeleton")
        skeletons.append(adj)
    return skeletons


def cell_diameter(adj: Adjacency) -> int:
    """Max over vertex pairs of the shortest-path length, by reach masks.

    Vertex i gets local bit i and a mask of the vertices it reaches, at first
    itself.  Each round ORs every vertex's neighbours' masks into its own, so
    after r rounds the masks are the balls of radius r, and the number of
    rounds until every mask is full is the diameter.  Raises ValueError when
    a round adds nothing before that, i.e. on a disconnected graph.
    """
    local = {v: i for i, v in enumerate(adj)}
    nbrs = [[local[w] for w in ws] for ws in adj.values()]
    full = (1 << len(nbrs)) - 1
    reach = [1 << i for i in range(len(nbrs))]
    rounds = 0
    while min(reach, default=full) != full:
        grown = []
        for m, ns in zip(reach, nbrs):
            for j in ns:
                m |= reach[j]
            grown.append(m)
        if grown == reach:
            raise ValueError("diameter of a disconnected graph")
        reach, rounds = grown, rounds + 1
    return rounds


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

def product_factors(tight_sets: list[tuple[int, ...]]) -> Optional[tuple[int, ...]]:
    """The simplex factor sizes (g_1, ..., g_m), increasing, of a cell whose
    vertices have these tight sets, or None when the cell is not certified
    as a product of simplices Δ_{g_1-1} × ... × Δ_{g_m-1}.

    The facets are the union of the tight sets, and each facet gets the
    bitmask of the vertices not on it.  Unassigned facets whose masks miss
    the first unassigned facet's mask join its factor.  Within a factor the
    masks must be pairwise disjoint and cover every vertex, and the vertex
    count must equal g_1 ⋯ g_m; the module docstring shows why these checks
    certify the product, however the factors were grouped.
    """
    return _factor_sizes(list(_facet_masks(tight_sets).values()), len(tight_sets))


def _facet_masks(tight_sets: list[tuple[int, ...]]) -> dict[int, int]:
    """{k: bitmask of the vertices on hyperplane k} over the union of the
    tight sets, bit i for the i-th, in order of first appearance."""
    on: dict[int, int] = {}
    for i, tight in enumerate(tight_sets):
        bit = 1 << i
        for k in tight:
            on[k] = on.get(k, 0) | bit
    return on


def _factor_sizes(masks: list[int], count: int) -> Optional[tuple[int, ...]]:
    """`product_factors` from each facet's mask of the `count` vertices on it."""
    full = (1 << count) - 1
    missing = [full ^ mask for mask in masks]
    sizes = []
    while missing:
        seed, rest = missing[0], []
        covered, size = seed, 1
        for mask in missing[1:]:
            if mask & seed:
                rest.append(mask)
            elif mask & covered:
                return None
            else:
                covered |= mask
                size += 1
        if covered != full:
            return None
        sizes.append(size)
        missing = rest
    if prod(sizes) != count:
        return None
    return tuple(sorted(sizes))


def classify_cell(
    v: int, e: int, f: int, factors: Optional[tuple[int, ...]], dim: int
) -> CellClass:
    """Class of a cell with counts (V, E, F) and the certificate of
    `product_factors`, with the precedence simplex > cube > simplex
    product > shell > other; every cell of the plane is a polygon."""
    if dim == 2:
        return polygon(v)
    if factors is not None:
        if len(factors) == 1:
            return simplex(dim)
        if factors == (2,) * dim:
            return cube(dim)
        if len(factors) == 2:
            return simplex_product(factors[0] - 1, factors[1] - 1)
    if dim == 3 and v == 2 * (f - 2):
        return shell(f)
    return other(v, e, f)


# ---------------------------------------------------------------------------
# record assembly
# ---------------------------------------------------------------------------

def cell_record(
    dim: int, n: int, signature: int, vertex_ids: list[int], vertices: list[Vertex]
) -> CellRecord:
    """The record of a cell from its increasing vertex ids.  A cell the
    product certificate on its facet masks accepts has diameter m, its
    number of factors; only the others get a skeleton, measured by
    `cell_diameter`."""
    vertex_ids = tuple(vertex_ids)
    on = _facet_masks([vertices[vid].tight_set for vid in vertex_ids])
    facets = tuple(sorted(on))
    v, f = len(vertex_ids), len(facets)
    e, odd = divmod(v * dim, 2)
    if odd:
        raise _broken(signature, n, f": V*d = {v}*{dim} is odd")
    if dim == 3 and v - e + f != 2:
        raise _broken(signature, n, f": (V,E,F)=({v},{e},{f}) violates Euler's relation")
    factors = _factor_sizes(list(on.values()), v)
    diameter = len(factors) if factors else cell_diameter(
        skeletons_for_cells([(signature, vertex_ids)], vertices, dim, n)[0])
    return CellRecord(signature, vertex_ids, v, e, facets, diameter,
                      classify_cell(v, e, f, factors, dim))


def build_cell_records(
    arr: Arrangement, vertices: list[Vertex], signatures: Sequence[int]
) -> list[CellRecord]:
    """Records of cells known by signature, their plus masks, each built
    from its vertices in `arrangement._bounded_cells`.  Raises InputError,
    as `export --cell` reports it, on a signature that is not a bounded cell."""
    table = _bounded_cells(vertices, arr.n)
    for signature in signatures:
        if signature not in table:
            raise InputError(f"{signature_str(signature, arr.n)} is not a bounded cell "
                             "of this arrangement")
    return [cell_record(arr.dim, arr.n, sig, table[sig], vertices) for sig in signatures]
