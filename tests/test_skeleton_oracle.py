"""The step-table skeletons and reach-mask diameters against the oracles.

Cell by cell, the skeletons of `skeletons_for_cells` must equal the
completion-lookup builder's, both for the census's records and for those
of `build_cell_records`, and the diameters must equal the all-sources BFS,
both in `build_cell_records` and in the census's delta.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle_skeleton as oracle
from arrangement_lab.arrangement import (
    enumerate_bounded_cells,
    enumerate_edges,
    enumerate_vertices,
)
from arrangement_lab.cells import build_cell_records, cell_diameter, skeletons_for_cells
from arrangement_lab.census import census
from arrangement_lab.constructions import (
    build_ao2,
    build_ao3,
    build_cyclic_star,
    random_simple_arrangement,
)


def assert_matches_oracle(arr):
    vertices = enumerate_vertices(arr)
    edges = enumerate_edges(arr, vertices)
    cells = enumerate_bounded_cells(arr, vertices)
    records = build_cell_records(arr, vertices, cells)
    expected = oracle.skeletons_for_cells(records, edges, arr.dim)
    assert skeletons_for_cells(cells, vertices, arr.dim, arr.n) == expected
    assert skeletons_for_cells(records, vertices, arr.dim, arr.n) == expected
    diameters = []
    for rec, adj in zip(records, expected):
        assert rec.diameter == cell_diameter(adj) == oracle.cell_diameter(adj)
        diameters.append(rec.diameter)
    assert census(arr).delta == Fraction(sum(diameters), len(cells))


@settings(deadline=None, max_examples=25)
@given(
    st.integers(0, 10_000),
    st.sampled_from([(2, 3), (2, 5), (2, 8), (3, 4), (3, 6), (3, 7)]),
)
def test_random_arrangements_match_oracle(seed, shape):
    d, n = shape
    assert_matches_oracle(random_simple_arrangement(d, n, seed=seed).arrangement)


@pytest.mark.parametrize(
    "built",
    [build_ao2(n) for n in range(4, 13)]
    + [build_ao3(n) for n in range(5, 11)]
    + [build_cyclic_star(2, 7), build_cyclic_star(3, 8), build_cyclic_star(4, 9),
       build_cyclic_star(5, 10), build_cyclic_star(6, 12)],
    ids=lambda b: f"{b.family}-{b.d}-{b.n}",
)
def test_constructions_match_oracle(built):
    assert_matches_oracle(built.arrangement)
