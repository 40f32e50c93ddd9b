"""Projective charts: one arrangement of n hyperplanes is n+1 arrangements.

Hyperplane i, a·x = b, is the homogeneous row r_i = (a, -b) on y = (x, 1),
and the hyperplane at infinity is r_n = (0, ..., 0, 1).  Chart j is the
affine space r_j·y = 1: with p the first nonzero entry of r_j, every other
row i becomes a'·x = b' in the coordinates y_k, k ≠ p, where

    a'_k = r_i[k] - r_i[p]·r_j[k]/r_j[p],    b' = -r_i[p]/r_j[p],

and the sign of r_i·y is kept, so orientations carry over.  Chart n is the
arrangement itself.  An affinely simple arrangement has every d+1 of its
n+1 rows independent, so every chart is simple.

A projective cell is a ±1 vector over the n+1 rows, up to a global sign; in
chart j it has + at row j.  Moving the hyperplane at infinity changes
which cells are bounded, every point, the lexicographic order and every
rise mask, but not the cells' face lattices.  So in each chart where a
projective cell is bounded it has the same vertex and edge counts, facets
(as projective labels), diameter and class; it is bounded in exactly
n+1-F charts, F its facet count; and its facets never include the chart's
own row.
"""

from collections import defaultdict
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings

from arrangement_lab.arrangement import Arrangement, check_simple, hyperplane
from arrangement_lab.census import census
from arrangement_lab.constructions import (
    build_ao2,
    build_ao3,
    build_cyclic_star,
    random_simple_arrangement,
)
from test_vertices_oracle import rational_arrangements


def chart(arr, j):
    """The arrangement of the rows other than j, in order, r_n last, in
    the chart r_j·y = 1, and the projective label of each of its rows."""
    rows = [(*h.a, -h.b) for h in arr.hyperplanes] + [(0,) * arr.dim + (1,)]
    own = rows[j]
    p = next(k for k, c in enumerate(own) if c)
    labels = [i for i in range(len(rows)) if i != j]
    planes = []
    for i in labels:
        t = Fraction(rows[i][p]) / own[p]
        planes.append(hyperplane([rows[i][k] - t * own[k] for k in range(arr.dim + 1) if k != p],
                                 -t))
    return Arrangement(arr.dim, tuple(planes)), labels


def projective_cells(arr):
    """Each projective cell bounded in some chart: its record in every
    chart where it is bounded, keyed by chart."""
    n = arr.n
    seen = defaultdict(dict)
    for j in range(n + 1):
        affine, labels = chart(arr, j)
        for rec in census(affine).records:
            signs = [1] * (n + 1)
            for t, label in enumerate(labels):
                signs[label] = 1 if rec.signature >> (n - 1 - t) & 1 else -1
            if signs[0] < 0:
                signs = [-s for s in signs]
            facets = tuple(sorted(labels[k] for k in rec.facets))
            seen[tuple(signs)][j] = (rec.vertex_count, rec.edge_count, facets, rec.diameter,
                                     rec.cell_class)
    return seen


ARRANGEMENTS = (
    [build_ao2(n) for n in range(4, 12)]
    + [build_ao3(n) for n in range(5, 11)]
    + [build_cyclic_star(d, n) for d, n in [(3, 6), (3, 8), (4, 6), (4, 8), (5, 8), (5, 10),
                                            (6, 9)]]
    + [random_simple_arrangement(d, n, seed)
       for d, n in [(2, 8), (3, 7), (3, 9)] for seed in range(5)]
)


def test_the_chart_at_infinity_is_the_arrangement_itself():
    arr = build_ao3(7).arrangement
    affine, labels = chart(arr, arr.n)
    assert affine == arr and labels == list(range(arr.n))


def assert_charts_agree(arr):
    cells = projective_cells(arr)
    assert cells
    for charts in cells.values():
        records = set(charts.values())
        assert len(records) == 1
        (_, _, facets, _, _), = records
        assert len(charts) == arr.n + 1 - len(facets)
        assert not set(charts) & set(facets)


@pytest.mark.parametrize(
    "built", ARRANGEMENTS,
    ids=[f"{b.family}-{b.d}-{b.n}" + (f"-{b.seed}" if b.seed is not None else "")
         for b in ARRANGEMENTS],
)
def test_each_projective_cell_has_one_record_in_every_chart_that_bounds_it(built):
    assert_charts_agree(built.arrangement)


@settings(deadline=None, max_examples=40)
@given(rational_arrangements())
def test_charts_of_rational_arrangements_agree(arr):
    assume(check_simple(arr).is_simple)
    assert_charts_agree(arr)
