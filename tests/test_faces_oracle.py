"""The line-step walk against the sign-vector completion oracle.

For every codimension 0..d both must give the same bounded faces, each with
the same increasing vertex ids.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arrangement_lab.arrangement import (
    _bounded_faces,
    enumerate_edges,
    enumerate_vertices,
)
from arrangement_lab.constructions import (
    build_ao2,
    build_ao3,
    build_cyclic_star,
    random_simple_arrangement,
)
from oracle_faces import bounded_faces_by_completion


def assert_matches_oracle(arr):
    vertices = enumerate_vertices(arr)
    edges = enumerate_edges(arr, vertices)
    for codim in range(arr.dim + 1):
        expected = bounded_faces_by_completion(vertices, edges, codim)
        faces = _bounded_faces(vertices, codim)
        assert faces == expected, f"codim {codim}"


@settings(deadline=None, max_examples=25)
@given(st.integers(0, 10_000), st.integers(2, 3), st.integers(4, 9))
def test_random_arrangements_match_oracle(seed, d, n):
    assert_matches_oracle(random_simple_arrangement(d, n, seed=seed).arrangement)


@pytest.mark.parametrize(
    "built",
    [build_ao2(4), build_ao2(9), build_ao3(5), build_ao3(8),
     build_cyclic_star(4, 8), build_cyclic_star(5, 9)],
    ids=lambda b: f"{b.family}-{b.d}-{b.n}",
)
def test_constructions_match_oracle(built):
    assert_matches_oracle(built.arrangement)
