"""Reference oracle for `arrangement_lab.cells.classify_cell`: the graph form.

This is the classifier that the vertex-facet product certificate replaced.
It reads the skeleton's isomorphism type plus the facet count, with the
precedence simplex > cube > simplex product > shell > other, and recognises
cubes and two-factor products by constructing an explicit isomorphism
(coordinate codes from BFS distances, clique decomposition).  It never
looks at tight sets, so it checks the certificate independently.
"""

from __future__ import annotations

import itertools
from collections import deque

from arrangement_lab.cells import (
    Adjacency,
    CellClass,
    _bfs_distances,
    cube,
    other,
    polygon,
    shell,
    simplex,
    simplex_product,
)


def classify_cell(v: int, e: int, f: int, adj: Adjacency, dim: int) -> CellClass:
    """Class of a cell with counts (V, E, F) and skeleton `adj`."""
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
