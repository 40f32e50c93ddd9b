"""Per-cell analytics: skeleton graphs, diameters, f-counts, classification.

Skeletons come from the vertex line steps, the table that the face walk in
`arrangement` also reads.  A vertex v is tight on d hyperplanes; dropping
one of them, k, leaves a line through v, and the segment or ray on that line
leaving v to side s of hyperplane k is v's step (k, s).  A bounded cell's
closure is a simple polytope whose edge at v on that line is the one on the
cell's side of k, so the skeleton of cell C is v -> {step (k, C[k]) for k
tight at v}, one table lookup per edge end.
Diameters use one reach bitmask per vertex: each round ORs the neighbours'
masks in, and the number of rounds until every mask is full is the diameter.

Classification is purely combinatorial, a function of the skeleton's
isomorphism type plus the facet count, with the documented precedence
simplex > cube > simplex product > shell > other.  The cube and
clique-product tests construct an explicit isomorphism (coordinate codes
from BFS distances, clique decomposition), so a positive answer is a
verified certificate rather than an invariant heuristic.  A generic
canonical form (iterative refinement with exhaustive individualization) is
also provided; it is used to record shell skeletons for inspection and as an
independent cross-check in the test suite.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass

from .arrangement import Arrangement, ArrangementEdge, BoundedCell, Vertex, _step_table
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
    facet_count: int
    diameter: int
    cell_class: CellClass

    def adjacency_dict(self) -> Adjacency:
        return {v: nbrs for v, nbrs in self.adjacency}


# ---------------------------------------------------------------------------
# skeletons
# ---------------------------------------------------------------------------

def skeletons_for_cells(
    cells: list[BoundedCell], vertices: list[Vertex], edges: list[ArrangementEdge], dim: int
) -> list[Adjacency]:
    """Skeletons of all cells in one pass, by direct lookup in the step table
    of `arrangement._step_table`, where `steps[v][k][s > 0]` is v's
    neighbour on the line that drops k, on side s of k, or None for a ray.

    The closure of a bounded cell C is a simple polytope, so at each of its
    vertices v and for each k in v's tight set, C has exactly one edge on
    the line that drops k, the one on C's side C[k]: v's neighbours in C are
    its steps (k, C[k]).  Raises InternalConsistencyError, naming the
    signature, when a step is missing or leaves C, when C has fewer than d+1
    vertices, or when its skeleton is disconnected.
    """
    steps = _step_table(vertices, edges)
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


def cell_f_counts(cell: BoundedCell, vertices: list[Vertex], adj: Adjacency) -> tuple[int, int, int]:
    """(V, E, F): graph counts plus the number of distinct tight hyperplanes."""
    v = len(cell.vertex_ids)
    e = sum(len(nbrs) for nbrs in adj.values()) // 2
    facets: set[int] = set()
    for vid in cell.vertex_ids:
        facets.update(vertices[vid].tight_set)
    return v, e, len(facets)


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

def classify_cell(v: int, e: int, f: int, adj: Adjacency, dim: int) -> CellClass:
    if dim == 2:
        return polygon(v)
    if v == dim + 1:
        return simplex(dim)
    if v == 2 ** dim and f == 2 * dim and is_hypercube_graph(adj, dim):
        return cube(dim)
    if f == dim + 2:
        for k in range(1, dim // 2 + 1):
            if (k + 1) * (dim - k + 1) == v and is_clique_product_graph(adj, k + 1, dim - k + 1):
                return simplex_product(k, dim - k)
    if dim == 3 and v == 2 * (f - 2):
        return shell(f)
    return other(v, e, f)


def is_hypercube_graph(adj: Adjacency, d: int) -> bool:
    """Exact test for the d-cube graph, by reconstructing binary coordinates.

    Pick a root and its d neighbours; bit i of a vertex is set iff it is
    closer to neighbour i than to the root.  The graph is a d-cube iff the
    codes are a bijection onto {0,1}^d and every edge flips exactly one bit.
    """
    nodes = sorted(adj)
    if len(nodes) != 2 ** d:
        return False
    if any(len(adj[v]) != d for v in nodes):
        return False
    root = nodes[0]
    dist_root = _bfs_distances(adj, root)
    if dist_root is None:
        return False
    basis = sorted(adj[root])
    dist_basis = []
    for u in basis:
        du = _bfs_distances(adj, u)
        if du is None:
            return False
        dist_basis.append(du)
    codes: dict[int, int] = {}
    for w in nodes:
        bits = 0
        for i, du in enumerate(dist_basis):
            delta = du[w] - dist_root[w]
            if delta == -1:
                bits |= 1 << i
            elif delta != 1:
                return False  # cube distances to adjacent roots differ by exactly 1
        codes[w] = bits
    if len(set(codes.values())) != 2 ** d:
        return False
    for w in nodes:
        flips = {codes[w] ^ codes[x] for x in adj[w]}
        if len(flips) != d or any(bin(fl).count("1") != 1 for fl in flips):
            return False
    return True


def is_clique_product_graph(adj: Adjacency, a: int, b: int) -> bool:
    """Exact test for K_a x K_b (cartesian product; rows and columns).

    Maximal cliques of the product are its a rows (size b) and b columns
    (size a); every vertex lies in exactly one of each and every edge in
    exactly one.  Growing the unique maximal clique through every edge and
    checking that structure certifies the isomorphism.
    """
    if a > b:
        a, b = b, a
    nodes = sorted(adj)
    if len(nodes) != a * b or a < 2:
        return False
    if any(len(adj[v]) != a + b - 2 for v in nodes):
        return False

    neighbours = {v: set(adj[v]) for v in nodes}
    cliques: set[frozenset[int]] = set()
    edge_clique: dict[tuple[int, int], frozenset[int]] = {}
    for v in nodes:
        for w in adj[v]:
            if w < v:
                continue
            grown = {v, w}
            candidates = sorted(neighbours[v] & neighbours[w])
            for x in candidates:
                if grown <= neighbours[x] | {x}:
                    grown.add(x)
            clique = frozenset(grown)
            edge_clique[(v, w)] = clique
            cliques.add(clique)

    # every edge in exactly one clique, every vertex in exactly two
    by_vertex: dict[int, list[frozenset[int]]] = {v: [] for v in nodes}
    for clique in cliques:
        for v in clique:
            by_vertex[v].append(clique)
        for v, w in itertools.combinations(sorted(clique), 2):
            if edge_clique.get((v, w)) != clique:
                return False
    if any(len(cs) != 2 for cs in by_vertex.values()):
        return False

    # cliques split into two sides: pairwise disjoint within a side,
    # intersecting in exactly one vertex across sides
    ordered = sorted(cliques, key=sorted)
    sides: dict[frozenset[int], int] = {ordered[0]: 0}
    queue = deque([ordered[0]])
    while queue:
        c = queue.popleft()
        for o in ordered:
            if o is c or o in sides and sides[o] == sides[c]:
                continue
            expected_side = sides[c] if not (c & o) else 1 - sides[c]
            if o in sides:
                if sides[o] != expected_side:
                    return False
            else:
                sides[o] = expected_side
                queue.append(o)
    group0 = [c for c in ordered if sides.get(c) == 0]
    group1 = [c for c in ordered if sides.get(c) == 1]
    if len(sides) != len(ordered):
        return False
    for c, o in itertools.combinations(group0, 2):
        if c & o:
            return False
    for c, o in itertools.combinations(group1, 2):
        if c & o:
            return False
    for c in group0:
        for o in group1:
            if len(c & o) != 1:
                return False
    size0 = {len(c) for c in group0}
    size1 = {len(c) for c in group1}
    if len(size0) != 1 or len(size1) != 1:
        return False
    # rows: a cliques of size b; columns: b cliques of size a
    shape = sorted(((len(group0), size0.pop()), (len(group1), size1.pop())))
    return shape == sorted(((a, b), (b, a)))


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
    arr: Arrangement,
    vertices: list[Vertex],
    edges: list[ArrangementEdge],
    cells: list[BoundedCell],
) -> list[CellRecord]:
    records = []
    for cell, adj in zip(cells, skeletons_for_cells(cells, vertices, edges, arr.dim)):
        v, e, f = cell_f_counts(cell, vertices, adj)
        if arr.dim == 3 and (v - e + f != 2 or 2 * e != 3 * v):
            raise InternalConsistencyError(
                f"cell {cell.signature}: (V,E,F)=({v},{e},{f}) violates 3D count identities"
            )
        records.append(
            CellRecord(
                signature=cell.signature,
                vertex_ids=cell.vertex_ids,
                adjacency=tuple(sorted((vid, nbrs) for vid, nbrs in adj.items())),
                vertex_count=v,
                edge_count=e,
                facet_count=f,
                diameter=cell_diameter(adj),
                cell_class=classify_cell(v, e, f, adj, arr.dim),
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
