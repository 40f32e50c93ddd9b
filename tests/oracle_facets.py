"""Reference oracles for `enumerate_bounded_facets`.

Restriction to each plane: each plane of a 3-dimensional arrangement
carries the 2-dimensional arrangement induced by the others, in an explicit
affine chart.  Its vertices are solved again in exact arithmetic, and its
bounded cells, found by the planar enumeration, are the bounded 2-faces on
that plane.  Slow, but it derives each facet from the geometry of the
carrier instead of from the ambient vertex sign vectors, so it checks the
combinatorial kernel independently.

Signatures: the kernel as it stood before it paired cells by sign flips.
Every facet of every cell record is keyed by its own signature, the cell's
with the carrier set to 0, and the cells listed under each key are the
ones it bounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from arrangement_lab.arrangement import (
    Arrangement,
    SignVector,
    enumerate_bounded_cells,
    enumerate_vertices,
    restrict_to_hyperplane,
)
from arrangement_lab.errors import InternalConsistencyError, UnsupportedDimensionError


def facet_signature(facet, signatures: list[SignVector]) -> SignVector:
    """The signature of a kernel `FacetRecord`: that of its first cell, out
    of the cell `signatures` the kernel indexed, with the carrier set to 0."""
    k, cell = facet.hyperplane, signatures[facet.cells[0]]
    return cell[:k] + (0,) + cell[k + 1:]


def enumerate_bounded_facets_by_signature(
    arr: Arrangement, records: list
) -> list[tuple[int, SignVector, tuple[int, ...]]]:
    """Every bounded facet as (carrier, signature, positions of the records
    of the cells it bounds), sorted by carrier and then signature."""
    d, n = arr.dim, arr.n
    bounding: dict[SignVector, list[int]] = {}
    for index, record in enumerate(records):
        sig = record.signature
        for k in record.facets:
            bounding.setdefault(sig[:k] + (0,) + sig[k + 1:], []).append(index)
    expected = n * comb(n - 2, d - 1)
    if len(bounding) != expected:
        raise InternalConsistencyError(
            f"found {len(bounding)} bounded facets, expected n*C(n-2,{d - 1}) = {expected}"
        )
    return sorted((sig.index(0), sig, tuple(ids)) for sig, ids in bounding.items())


@dataclass(frozen=True)
class RestrictedFacet:
    """A bounded 2-face of a 3-dimensional arrangement."""

    hyperplane: int                       # index of the carrying plane
    induced_signature: SignVector         # over the induced 2D arrangement
    signature: SignVector                 # full length n, zero at `hyperplane`
    incident: tuple[SignVector, SignVector]   # carrier set to -, then +


def enumerate_bounded_facets_by_restriction(arr: Arrangement) -> list[RestrictedFacet]:
    """All bounded 2-faces of a 3-dimensional simple arrangement.

    The bounded cells of each restriction are exactly the bounded 2-faces on
    that plane; the two incident full-dimensional cells are obtained by
    setting the carrier coordinate to - and +.  Total must be n*C(n-2,2).
    """
    d, n = arr.dim, arr.n
    if d != 3:
        raise UnsupportedDimensionError("facet enumeration is defined for dimension 3")
    records: list[RestrictedFacet] = []
    for i in range(n):
        restriction = restrict_to_hyperplane(arr, i)
        sub_vertices = enumerate_vertices(restriction.arrangement)
        sub_cells = enumerate_bounded_cells(restriction.arrangement, sub_vertices)
        for cell in sub_cells:
            full = [0] * n
            for pos, orig in enumerate(restriction.kept):
                full[orig] = cell.signature[pos]
            minus, plus = list(full), list(full)
            minus[i], plus[i] = -1, 1
            records.append(
                RestrictedFacet(i, cell.signature, tuple(full), (tuple(minus), tuple(plus)))
            )
    expected = n * comb(n - 2, 2)
    if len(records) != expected:
        raise InternalConsistencyError(
            f"found {len(records)} bounded facets, expected n*C(n-2,2) = {expected}"
        )
    return records
