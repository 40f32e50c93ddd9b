"""The line-step face walk against the sign-vector completion oracle, the
two references for bounded faces, and the engine's bounded cells against
completion.

For every codimension 0..d both references must give the same bounded
faces, each with the same increasing vertex ids; in codimension 0 so must
`_bounded_cells`, whose masks are read as tuples.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arrangement_lab.arrangement import _bounded_cells, enumerate_edges, enumerate_vertices
from arrangement_lab.constructions import (
    build,
    build_ao2,
    build_ao3,
    build_cyclic_star,
    random_simple_arrangement,
)
from oracle_cell_pass import bounded_face_skeletons
from arrangement_lab.verify import default_instances
from oracle_faces import bounded_faces_by_completion
from oracle_vertices import line_steps_from_orders
from signs import signs_of


def assert_matches_oracle(arr):
    vertices = enumerate_vertices(arr)
    edges = enumerate_edges(arr, vertices)
    steps = line_steps_from_orders(arr, vertices)
    for codim in range(arr.dim + 1):
        expected = bounded_faces_by_completion(vertices, edges, codim)
        faces = bounded_face_skeletons(vertices, steps, arr.n, codim)
        assert {sig: list(skeleton) for sig, skeleton in faces.items()} == expected, \
            f"codim {codim}"


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


def assert_cells_match_completion(arr):
    vertices = enumerate_vertices(arr)
    expected = bounded_faces_by_completion(vertices, enumerate_edges(arr, vertices), 0)
    cells = _bounded_cells(vertices, arr.n)
    assert dict(zip(signs_of(cells, arr.n), cells.values())) == expected


@pytest.mark.parametrize("key", default_instances(), ids=str)
def test_bounded_cells_match_completion_on_verify_instances(key):
    assert_cells_match_completion(build(*key).arrangement)


@pytest.mark.parametrize(
    "built",
    [build_ao2(40), build_ao3(16), build_cyclic_star(6, 12)],
    ids=lambda b: f"{b.family}-{b.d}-{b.n}",
)
def test_bounded_cells_match_completion_on_large_constructions(built):
    assert_cells_match_completion(built.arrangement)
