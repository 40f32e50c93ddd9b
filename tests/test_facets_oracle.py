"""The bounded facets read off the cells, against three references.

The kernel pairs cells by sign flips and lists each facet by its carrier and
its cells; a facet's signature is its first cell's with the carrier set to
0.  Sorted by (carrier, signature), the kernel's facets must agree item by
item with the restriction oracle's, and each record's cells must be exactly
the bounded ones among the oracle's two incident cells.  The signature-keyed
kernel that the flips replaced must give the same facets and cells, and the
codimension-1 face walk of `oracle_cell_pass` the same signatures.  In the
plane the bounded facets are exactly the bounded segments.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arrangement_lab.arrangement import (
    enumerate_bounded_cells,
    enumerate_bounded_facets,
    enumerate_edges,
    enumerate_vertices,
)
from arrangement_lab.cells import build_cell_records
from arrangement_lab.constructions import (
    build,
    build_ao2,
    build_ao3,
    build_cyclic_star,
    random_simple_arrangement,
)
from arrangement_lab.verify import default_instances
from oracle_cell_pass import bounded_face_skeletons
from oracle_facets import (
    enumerate_bounded_facets_by_restriction,
    enumerate_bounded_facets_by_signature,
    facet_signature,
)
from oracle_vertices import line_steps_from_orders
from signs import signs_of


def cells_and_facets(arr):
    vertices = enumerate_vertices(arr)
    cells = enumerate_bounded_cells(arr, vertices)
    records = build_cell_records(arr, vertices, [c.signature for c in cells])
    return vertices, cells, enumerate_bounded_facets(arr, records)


def key(rec, bounded):
    """(carrier, signature, signatures of its bounded cells); `bounded` lists
    the cell signatures in the order the kernel indexes them."""
    return rec.hyperplane, facet_signature(rec, bounded), tuple(bounded[i] for i in rec.cells)


def oracle_key(ref, bounded):
    return ref.hyperplane, ref.signature, tuple(s for s in ref.incident if s in bounded)


def assert_matches_oracle(arr):
    _, cells, facets = cells_and_facets(arr)
    bounded = signs_of(cells, arr.n)
    oracle = enumerate_bounded_facets_by_restriction(arr)
    assert sorted(key(rec, bounded) for rec in facets) == \
        [oracle_key(ref, set(bounded)) for ref in oracle]


@settings(deadline=None, max_examples=20)
@given(st.integers(0, 10_000), st.integers(4, 7))
def test_random_3d_arrangements_match_oracle(seed, n):
    assert_matches_oracle(random_simple_arrangement(3, n, seed=seed).arrangement)


@pytest.mark.parametrize(
    "built",
    [build_ao3(n) for n in range(5, 10)] + [build_cyclic_star(3, n) for n in range(6, 10)],
    ids=lambda b: f"{b.family}-{b.d}-{b.n}",
)
def test_constructions_match_oracle(built):
    assert_matches_oracle(built.arrangement)


def by_carrier(signature):
    return signature.index(0), signature


def assert_matches_facet_walk(arr):
    vertices, cells, facets = cells_and_facets(arr)
    steps = line_steps_from_orders(arr, vertices)
    walked = list(bounded_face_skeletons(vertices, steps, arr.n, 1))
    bounded = signs_of(cells, arr.n)
    signatures = [facet_signature(rec, bounded) for rec in facets]
    assert sorted(signatures, key=by_carrier) == sorted(walked, key=by_carrier)
    position = {sig: i for i, sig in enumerate(bounded)}
    for rec, sig in zip(facets, signatures):
        incident = [sig[:rec.hyperplane] + (side,) + sig[rec.hyperplane + 1:] for side in (-1, 1)]
        assert rec.cells == tuple(position[s] for s in incident if s in position)
    # listed by carrier and then first cell, as (i,) for an external facet
    # and (i, j), i < j, for one between two bounded cells; the same facets
    # and cells as the signature-keyed kernel
    assert [(rec.hyperplane, rec.cells) for rec in facets] == \
        sorted((rec.hyperplane, rec.cells) for rec in facets)
    assert all(len(rec.cells) == 1 or rec.cells[0] < rec.cells[1] for rec in facets)
    assert sorted((rec.hyperplane, sig, rec.cells) for rec, sig in zip(facets, signatures)) == \
        enumerate_bounded_facets_by_signature(arr, cells)


@pytest.mark.parametrize(
    "instance",
    [instance for instance in default_instances() if instance[1] in (2, 3)],
    ids=lambda instance: "-".join(str(part) for part in instance if part is not None),
)
def test_default_instances_match_facet_walk(instance):
    assert_matches_facet_walk(build(*instance).arrangement)


@settings(deadline=None, max_examples=25)
@given(st.integers(0, 10_000), st.integers(2, 3), st.integers(4, 9))
def test_random_arrangements_match_facet_walk(seed, d, n):
    assert_matches_facet_walk(random_simple_arrangement(d, n, seed=seed).arrangement)


@pytest.mark.parametrize(
    "arr",
    [build_ao2(9).arrangement, build_cyclic_star(2, 7).arrangement,
     random_simple_arrangement(2, 8, seed=3).arrangement],
    ids=["ao2-9", "cyclic-2-7", "random-2-8-3"],
)
def test_planar_facets_are_the_segments(arr):
    vertices, cells, facets = cells_and_facets(arr)
    edges = enumerate_edges(arr, vertices)
    segments = sorted((e.line_set[0], e.sign_vector) for e in edges if e.head is not None)
    bounded = signs_of(cells, arr.n)
    assert sorted((rec.hyperplane, facet_signature(rec, bounded)) for rec in facets) == segments
