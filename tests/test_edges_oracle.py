"""The combinatorial edge kernel against the geometric probing oracle.

The two may walk a line in opposite directions, so each line is compared as
sets: segments as (sign vector, {tail, head}) and rays as (sign vector,
tail).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arrangement_lab.arrangement import enumerate_edges, enumerate_vertices
from arrangement_lab.constructions import (
    build_ao2,
    build_ao3,
    build_cyclic_star,
    random_simple_arrangement,
)
from oracle_edges import enumerate_edges_by_probing


def by_line(edges):
    lines = {}
    for e in edges:
        segments, rays = lines.setdefault(e.line_set, (set(), set()))
        if e.is_segment:
            segments.add((e.sign_vector, frozenset((e.tail, e.head))))
        else:
            rays.add((e.sign_vector, e.tail))
    return lines


def assert_matches_oracle(arr):
    vertices = enumerate_vertices(arr)
    edges = enumerate_edges(arr, vertices)
    oracle = enumerate_edges_by_probing(arr, vertices)
    assert by_line(edges) == by_line(oracle)
    # same layout: lines in sorted order, each a ray, its segments, a ray
    assert [e.line_set for e in edges] == [e.line_set for e in oracle]
    assert [e.is_segment for e in edges] == [e.is_segment for e in oracle]


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
    [build_ao2(4), build_ao2(9), build_ao3(5), build_ao3(8),
     build_cyclic_star(2, 6), build_cyclic_star(3, 7), build_cyclic_star(4, 8)],
    ids=lambda b: f"{b.family}-{b.d}-{b.n}",
)
def test_constructions_match_oracle(built):
    assert_matches_oracle(built.arrangement)
