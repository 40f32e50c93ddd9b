"""Per-cell analytics: skeletons, diameters, f-counts, classification.

Skeletons come from the face walk in `arrangement`: each bounded cell
carries the {vertex: neighbours} its walk stepped along.  A vertex v is
tight on d hyperplanes; dropping one of them, k, leaves a line through v,
and the closure of a bounded cell is a simple polytope whose edge at v on
that line is the one on the cell's side of k.  `skeletons_for_cells`
rebuilds the same skeletons from the step table alone, with guards on each
cell, for tests and tracing.

Classification and diameter come from a certificate on the vertex-facet
incidences.  The facets of a cell are the union of its vertices' tight
sets; `product_factors` splits them into groups F_1, ..., F_m of sizes
g_1, ..., g_m, and accepts when within each group the sets of vertices
missing each facet are pairwise disjoint and cover the cell, and the vertex
count is g_1 ⋯ g_m.  That certifies the cell as the product of simplices
Δ_{g_1-1} × ... × Δ_{g_m-1}:

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
polygon.  A generic canonical form (iterative refinement with exhaustive
individualization) is also provided; it records shell skeletons for
inspection and cross-checks the classes in the test suite.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from math import prod
from typing import Optional

from .arrangement import Arrangement, BoundedCell, Steps, Vertex
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
    adjacency: tuple[tuple[int, tuple[int, ...]], ...]  # sorted, immutable
    vertex_count: int
    edge_count: int
    facets: tuple[int, ...]  # the hyperplanes its facets lie on, increasing
    diameter: int
    cell_class: CellClass

    @property
    def facet_count(self) -> int:
        return len(self.facets)

    def adjacency_dict(self) -> Adjacency:
        return {v: nbrs for v, nbrs in self.adjacency}


# ---------------------------------------------------------------------------
# skeletons
# ---------------------------------------------------------------------------

def skeletons_for_cells(cells: list[BoundedCell], steps: Steps, dim: int) -> list[Adjacency]:
    """Skeletons of all cells in one pass, by direct lookup in the step table
    of `arrangement.line_steps`, where `steps[v][k][s > 0]` is v's
    neighbour on the line that drops k, on side s of k, or None for a ray.

    The closure of a bounded cell C is a simple polytope, so at each of its
    vertices v and for each k in v's tight set, C has exactly one edge on
    the line that drops k, the one on C's side C[k]: v's neighbours in C are
    its steps (k, C[k]).  Raises InternalConsistencyError, naming the
    signature, when a step is missing or leaves C, when C has fewer than d+1
    vertices, or when its skeleton is disconnected.
    """
    skeletons = []
    for cell in cells:
        signature, members = cell.signature, set(cell.vertex_ids)
        if len(members) < dim + 1:
            raise InternalConsistencyError(
                f"cell {signature} has only {len(members)} vertices"
            )
        adj: Adjacency = {}
        for v in cell.vertex_ids:
            nbrs = [step[signature[k] > 0] for k, step in steps[v].items()]
            if not members.issuperset(nbrs):
                raise InternalConsistencyError(
                    f"cell {signature}: an edge at vertex {v} is missing or leaves the cell"
                )
            adj[v] = tuple(sorted(nbrs))
        if _bfs_distances(adj, cell.vertex_ids[0]) is None:
            raise InternalConsistencyError(f"cell {signature} has a disconnected skeleton")
        skeletons.append(adj)
    return skeletons


def _bfs_distances(adj: Adjacency, source: int) -> dict[int, int] | None:
    """Distances from source, or None if some vertex is unreachable."""
    dist = {source: 0}
    queue = deque([source])
    while queue:
        v = queue.popleft()
        for w in adj[v]:
            if w not in dist:
                dist[w] = dist[v] + 1
                queue.append(w)
    if len(dist) != len(adj):
        return None
    return dist


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
    full = (1 << len(tight_sets)) - 1
    missing = [full ^ mask for mask in on.values()]
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
    if prod(sizes) != len(tight_sets):
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

def build_cell_records(
    arr: Arrangement, vertices: list[Vertex], cells: list[BoundedCell]
) -> list[CellRecord]:
    """One record per cell, from the skeleton its walk recorded; its facets
    lie on the hyperplanes its vertices are tight at.  A cell the product
    certificate accepts has diameter m, its number of factors; only the
    others are measured by `cell_diameter`."""
    records = []
    for cell in cells:
        tight_sets = [vertices[vid].tight_set for vid in cell.vertex_ids]
        facets = tuple(sorted({k for tight in tight_sets for k in tight}))
        v, e, f = len(tight_sets), sum(len(nbrs) for _, nbrs in cell.skeleton) // 2, len(facets)
        if arr.dim == 3 and (v - e + f != 2 or 2 * e != 3 * v):
            raise InternalConsistencyError(
                f"cell {cell.signature}: (V,E,F)=({v},{e},{f}) violates 3D count identities"
            )
        factors = product_factors(tight_sets)
        records.append(
            CellRecord(
                signature=cell.signature,
                vertex_ids=cell.vertex_ids,
                adjacency=cell.skeleton,
                vertex_count=v,
                edge_count=e,
                facets=facets,
                diameter=len(factors) if factors else cell_diameter(dict(cell.skeleton)),
                cell_class=classify_cell(v, e, f, factors, arr.dim),
            )
        )
    return records


def shell_canonical_forms(records: list[CellRecord]) -> dict[tuple[int, ...], tuple]:
    """Canonical skeletons of all shell-classified cells, for inspection;
    whether shells with equal counts are pairwise isomorphic is not asserted
    anywhere, this is the data to look at."""
    return {
        rec.signature: canonical_form(rec.adjacency_dict())
        for rec in records
        if rec.cell_class.kind == "shell"
    }
