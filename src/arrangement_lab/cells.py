"""Per-cell analytics: records, diameters, f-counts, classification.

`cell_record` builds each record from the walk that found its cell: its
vertices, and each hyperplane's mask of those on it, nonzero exactly on the
facets.  A vertex is tight on d hyperplanes and has one cell edge on the
line that drops each, so E = V·d/2.  `skeletons_for_cells` builds skeletons
from the vertices' steps only where read: uncertified cells and shells.

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
is a shell or other by its counts, and every cell of the plane is a
polygon.  `canonical_form` (iterative refinement with exhaustive
individualization) fingerprints shell skeletons for inspection and
cross-checks the classes in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from math import prod
from typing import Optional

from .arrangement import Arrangement, BoundedCell, Vertex, Walk, _walk
from .errors import InternalConsistencyError

Adjacency = dict[int, tuple[int, ...]]


@dataclass(frozen=True, order=True)
class CellClass:
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


def polygon(k: int) -> CellClass:
    return CellClass("polygon", (k,))


def simplex(d: int) -> CellClass:
    return CellClass("simplex", (d,))


def cube(d: int) -> CellClass:
    return CellClass("cube", (d,))


def simplex_product(k: int, j: int) -> CellClass:
    if k > j:
        k, j = j, k
    return CellClass("product", (k, j))


def shell(n: int) -> CellClass:
    return CellClass("shell", (n,))


def other(v: int, e: int, f: int) -> CellClass:
    return CellClass("other", (v, e, f))


@dataclass(frozen=True)
class CellRecord:
    signature: tuple[int, ...]
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
    cells: list[BoundedCell | CellRecord], vertices: list[Vertex], dim: int
) -> list[Adjacency]:
    """Skeletons of bounded faces known by signature and increasing vertex
    ids, read off the vertices' steps (`Vertex.ends`).

    The closure of a bounded face C is a simple polytope, so at each of its
    vertices v and for each k in v's tight set off C, C has exactly one
    edge on the line that drops k, on C's side C[k].  Raises
    InternalConsistencyError, naming the signature, when a step is missing
    or leaves C, when C has no more vertices than its dimension, or when
    its skeleton is disconnected.
    """
    skeletons = []
    for cell in cells:
        signature, members = cell.signature, set(cell.vertex_ids)
        if len(members) <= dim - signature.count(0):
            raise InternalConsistencyError(
                f"cell {signature} has only {len(members)} vertices"
            )
        adj: Adjacency = {}
        for v in cell.vertex_ids:
            nbrs = vertices[v].ends(signature)
            if not members.issuperset(nbrs):
                raise InternalConsistencyError(
                    f"cell {signature}: an edge at vertex {v} is missing or leaves the cell"
                )
            adj[v] = tuple(sorted(nbrs))
        reached = [cell.vertex_ids[0]]
        seen = set(reached)
        for v in reached:
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    reached.append(w)
        if len(reached) != len(adj):
            raise InternalConsistencyError(f"cell {signature} has a disconnected skeleton")
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
    on: dict[int, int] = {}
    for i, tight in enumerate(tight_sets):
        for k in tight:
            on[k] = on.get(k, 0) | 1 << i
    return _factor_sizes(list(on.values()), len(tight_sets))


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


def canonical_form(adj: Adjacency) -> tuple:
    """Canonical edge list of the graph, via iterative colour refinement with
    exhaustive individualization; equal outputs iff graphs are isomorphic.

    Exponential in the worst case, fine for the few-dozen-vertex skeletons
    that occur here.
    """
    nodes = sorted(adj)
    n = len(nodes)
    index = {v: i for i, v in enumerate(nodes)}
    nbrs = [sorted(index[w] for w in adj[v]) for v in nodes]

    def refine(colors: list[int]) -> list[int]:
        while True:
            keys = [(colors[v], tuple(sorted(colors[w] for w in nbrs[v]))) for v in range(n)]
            palette = {key: i for i, key in enumerate(sorted(set(keys)))}
            new = [palette[k] for k in keys]
            if new == colors:
                return colors
            colors = new

    best: list[tuple] = [()]

    def encode(colors: list[int]) -> tuple:
        order = sorted(range(n), key=lambda v: colors[v])
        pos = {v: i for i, v in enumerate(order)}
        return tuple(sorted(
            (min(pos[v], pos[w]), max(pos[v], pos[w]))
            for v in range(n)
            for w in nbrs[v]
            if v < w
        ))

    def search(colors: list[int]) -> None:
        colors = refine(colors)
        classes: dict[int, list[int]] = {}
        for v, c in enumerate(colors):
            classes.setdefault(c, []).append(v)
        target = next((c for c in sorted(classes) if len(classes[c]) > 1), None)
        if target is None:
            enc = encode(colors)
            if not best[0] or enc < best[0]:
                best[0] = enc
            return
        for v in classes[target]:
            forked = [c * 2 for c in colors]
            forked[v] -= 1
            search(forked)

    search([0] * n)
    return (n, best[0])


# ---------------------------------------------------------------------------
# record assembly
# ---------------------------------------------------------------------------

def cell_record(
    dim: int, signature: tuple[int, ...], walk: Walk, vertices: list[Vertex]
) -> CellRecord:
    """The record of a cell from the walk that found it.  A cell the product
    certificate on its masks accepts has diameter m, its number of factors;
    only the others get a skeleton, measured by `cell_diameter`."""
    order, on = walk
    vertex_ids = tuple(sorted(order))
    facets = tuple(compress(range(len(on)), on))
    v, f = len(order), len(facets)
    e, odd = divmod(v * dim, 2)
    if odd:
        raise InternalConsistencyError(f"cell {signature}: V*d = {v}*{dim} is odd")
    if dim == 3 and v - e + f != 2:
        raise InternalConsistencyError(
            f"cell {signature}: (V,E,F)=({v},{e},{f}) violates Euler's relation"
        )
    factors = _factor_sizes(list(filter(None, on)), v)
    diameter = len(factors) if factors else cell_diameter(
        skeletons_for_cells([BoundedCell(signature, vertex_ids)], vertices, dim)[0])
    return CellRecord(signature, vertex_ids, v, e, facets, diameter,
                      classify_cell(v, e, f, factors, dim))


def build_cell_records(
    arr: Arrangement, vertices: list[Vertex], cells: list[BoundedCell]
) -> list[CellRecord]:
    """Records of cells known by signature and vertex ids, each walked from
    its first vertex.  Raises InternalConsistencyError on a cell whose walk
    reaches a ray."""
    records = []
    for cell in cells:
        walk = _walk(vertices, cell.vertex_ids[0], cell.signature)
        if walk is None:
            raise InternalConsistencyError(f"cell {cell.signature} is not bounded")
        records.append(cell_record(arr.dim, cell.signature, walk, vertices))
    return records


def shell_canonical_forms(
    records: list[CellRecord], vertices: list[Vertex]
) -> dict[tuple[int, ...], tuple]:
    """Canonical skeletons of all shell-classified cells (3D only), for
    inspection; whether shells with equal counts are pairwise isomorphic is
    not asserted anywhere, this is the data to look at."""
    shells = [rec for rec in records if rec.cell_class.kind == "shell"]
    return {rec.signature: canonical_form(adj)
            for rec, adj in zip(shells, skeletons_for_cells(shells, vertices, 3))}
