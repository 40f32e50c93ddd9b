"""Reference oracle for the bounded faces: sign-vector completion.

The faces at a vertex keep `codim` of its zeros and fill the others with
+/- in every way; a face is unbounded iff the same completion of some ray's
zeros produces it.  It reads neither the step table nor lexicographic
order, so it checks the face walk (`oracle_cell_pass.bounded_face_skeletons`)
and the (mask, vertex ids) pairs of the cell pass
(`arrangement.enumerate_bounded_cells`) independently.
"""

from __future__ import annotations

import itertools
from typing import Iterator

from arrangement_lab.arrangement import ArrangementEdge, SignVector, Vertex
from signs import vertex_signs


def _face_completions(
    signs: SignVector, zero_set: tuple[int, ...], codim: int
) -> Iterator[SignVector]:
    """Every face with `codim` zeros whose closure contains the face `signs`:
    keep each `codim`-subset of its zeros and fill the others with +/-."""
    for kept in itertools.combinations(zero_set, codim):
        free = tuple(i for i in zero_set if i not in kept)
        base = list(signs)
        for combo in itertools.product((-1, 1), repeat=len(free)):
            for pos, s in zip(free, combo):
                base[pos] = s
            yield tuple(base)


def bounded_faces_by_completion(
    vertices: list[Vertex], edges: list[ArrangementEdge], codim: int
) -> dict[SignVector, list[int]]:
    """Bounded faces of codimension `codim`, as {signature: vertex ids}.

    The faces at a vertex keep `codim` of its zeros and fill the others with
    +/-; a face is unbounded iff a ray lies in its closure, that is iff the
    same completion of some ray's zeros produces it.  Vertex ids come in
    increasing order.
    """
    members: dict[SignVector, list[int]] = {}
    n = len(edges[0].sign_vector)
    for vid, v in enumerate(vertices):
        for sig in _face_completions(vertex_signs(v, n), v.tight_set, codim):
            members.setdefault(sig, []).append(vid)

    unbounded: set[SignVector] = set()
    for edge in edges:
        if edge.head is None:
            unbounded.update(_face_completions(edge.sign_vector, edge.line_set, codim))
    return {sig: vids for sig, vids in members.items() if sig not in unbounded}
