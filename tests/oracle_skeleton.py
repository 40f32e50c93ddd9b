"""Reference oracles for the per-cell kernel in `arrangement_lab.cells`.

`skeletons_for_cells` is the completion-lookup builder that the step-table
kernel replaced: every bounded segment completes the zeros of its line set
with +/- in all 2^(d-1) ways and adds itself to each cell it hits.
`cell_skeleton` takes one cell at a time and tests each segment directly: it
is an edge of the cell iff its sign vector agrees with the cell signature off
its line set.  `cell_diameter` runs one BFS (`bfs_distances`) from every
vertex.  None of them uses the step table or the reach masks, so they check
the kernel independently; they read each cell's mask as its ±1 tuple.
"""

from __future__ import annotations

import itertools
from collections import deque

from arrangement_lab.arrangement import ArrangementEdge, sign_tuple
from arrangement_lab.cells import Adjacency, CellRecord
from arrangement_lab.errors import InternalConsistencyError


def bfs_distances(adj: Adjacency, source: int) -> dict[int, int] | None:
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


def skeletons_for_cells(
    cells: list[CellRecord], edges: list[ArrangementEdge], dim: int
) -> list[Adjacency]:
    """Skeletons of all cells in one pass, via sign-vector completion lookup."""
    n = len(edges[0].sign_vector)
    index = {sign_tuple(cell.signature, n): i for i, cell in enumerate(cells)}
    adjacencies: list[dict[int, set[int]]] = [
        {vid: set() for vid in cell.vertex_ids} for cell in cells
    ]
    for edge in edges:
        if edge.head is None:
            continue
        base = list(edge.sign_vector)
        for combo in itertools.product((-1, 1), repeat=len(edge.line_set)):
            for pos, s in zip(edge.line_set, combo):
                base[pos] = s
            i = index.get(tuple(base))
            if i is not None:
                adjacencies[i][edge.tail].add(edge.head)
                adjacencies[i][edge.head].add(edge.tail)
    skeletons = []
    for cell, adj in zip(cells, adjacencies):
        skeleton = {v: tuple(sorted(nbrs)) for v, nbrs in adj.items()}
        _validate_skeleton(skeleton, dim, cell.signature)
        skeletons.append(skeleton)
    return skeletons


def cell_skeleton(cell: CellRecord, edges: list[ArrangementEdge], dim: int) -> Adjacency:
    """Skeleton of one bounded cell: segments whose sign vectors agree with
    the cell signature off their line sets."""
    adj: dict[int, set[int]] = {vid: set() for vid in cell.vertex_ids}
    signature = sign_tuple(cell.signature, len(edges[0].sign_vector))
    for edge in edges:
        if edge.head is None:
            continue
        line = set(edge.line_set)
        if all(
            s == signature[i]
            for i, s in enumerate(edge.sign_vector)
            if i not in line
        ):
            adj[edge.tail].add(edge.head)
            adj[edge.head].add(edge.tail)
    skeleton = {v: tuple(sorted(nbrs)) for v, nbrs in adj.items()}
    _validate_skeleton(skeleton, dim, cell.signature)
    return skeleton


def _validate_skeleton(adj: Adjacency, dim: int, signature) -> None:
    if len(adj) < dim + 1:
        raise InternalConsistencyError(
            f"cell {signature} has only {len(adj)} vertices"
        )
    for v, nbrs in adj.items():
        if len(nbrs) != dim:
            raise InternalConsistencyError(
                f"cell {signature}: vertex {v} has degree {len(nbrs)}, expected {dim}"
            )
    if bfs_distances(adj, next(iter(sorted(adj)))) is None:
        raise InternalConsistencyError(f"cell {signature} has a disconnected skeleton")


def cell_diameter(adj: Adjacency) -> int:
    """Max over vertex pairs of the shortest-path length (all-sources BFS)."""
    best = 0
    for v in adj:
        dist = bfs_distances(adj, v)
        if dist is None:
            raise ValueError("diameter of a disconnected graph")
        best = max(best, max(dist.values()))
    return best
