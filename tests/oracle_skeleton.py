"""Reference oracle for `skeletons_for_cells`: one cell at a time.

For each cell, every bounded segment is tested directly: it is an edge of
the cell iff its sign vector agrees with the cell signature off its line
set.  This scans all segments per cell instead of looking up the completions
of each segment, so it checks the batch builder independently.
"""

from __future__ import annotations

from arrangement_lab.arrangement import ArrangementEdge, BoundedCell
from arrangement_lab.cells import Adjacency, _validate_skeleton


def cell_skeleton(cell: BoundedCell, edges: list[ArrangementEdge], dim: int) -> Adjacency:
    """Skeleton of one bounded cell: segments whose sign vectors agree with
    the cell signature off their line sets."""
    adj: dict[int, set[int]] = {vid: set() for vid in cell.vertex_ids}
    for edge in edges:
        if not edge.is_segment:
            continue
        line = set(edge.line_set)
        if all(
            s == cell.signature[i]
            for i, s in enumerate(edge.sign_vector)
            if i not in line
        ):
            adj[edge.tail].add(edge.head)
            adj[edge.head].add(edge.tail)
    skeleton = {v: tuple(sorted(nbrs)) for v, nbrs in adj.items()}
    _validate_skeleton(skeleton, dim, cell.signature)
    return skeleton
