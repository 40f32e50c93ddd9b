"""The combinatorial facet kernel against the restriction oracle.

Both list the bounded facets sorted by carrier and then signature, so the
lists of (carrier, signature, incident cells) must agree item by item.  In
the plane the bounded facets are exactly the bounded segments.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arrangement_lab.arrangement import (
    enumerate_bounded_facets,
    enumerate_edges,
    enumerate_vertices,
    line_steps,
)
from arrangement_lab.constructions import (
    build_ao2,
    build_ao3,
    build_cyclic_star,
    random_simple_arrangement,
)
from oracle_facets import enumerate_bounded_facets_by_restriction


def facets_of(arr):
    vertices = enumerate_vertices(arr)
    steps = line_steps(arr, vertices)
    return enumerate_bounded_facets(arr, vertices, steps)


def key(rec):
    return rec.hyperplane, rec.signature, rec.incident


def assert_matches_oracle(arr):
    oracle = enumerate_bounded_facets_by_restriction(arr)
    assert [key(rec) for rec in facets_of(arr)] == [key(rec) for rec in oracle]


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


@pytest.mark.parametrize(
    "arr",
    [build_ao2(9).arrangement, build_cyclic_star(2, 7).arrangement,
     random_simple_arrangement(2, 8, seed=3).arrangement],
    ids=["ao2-9", "cyclic-2-7", "random-2-8-3"],
)
def test_planar_facets_are_the_segments(arr):
    vertices = enumerate_vertices(arr)
    edges = enumerate_edges(arr, vertices)
    segments = sorted((e.line_set[0], e.sign_vector) for e in edges if e.is_segment)
    facets = enumerate_bounded_facets(arr, vertices, line_steps(arr, vertices))
    assert [(rec.hyperplane, rec.signature) for rec in facets] == segments
