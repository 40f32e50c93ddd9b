"""The cyclic star's census read off the compositions of d.

Each bounded cell of cyclic(d, n) is a product of simplices
Δ_{c1}×…×Δ_{cm}: one for each m-subset of the n-d shifted hyperplanes and
each composition (c1, …, cm) of d.  Such a cell has V = Π(ci+1) vertices and
diameter m, one step per factor.  Summed over the compositions, the
C(n-d, m)·C(d-1, m-1) cells with m factors give C(n-1, d) cells and
δ = d(n-d)/(n-1).  This is an identity checked on the grid below, not a
verdict of `verify`.
"""

from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import comb, prod

import pytest

GRID = [(d, n) for d in range(2, 8) for n in range(d + 1, min(d + 8, 12) + 1)]


def compositions(d):
    """Every composition of d, as a tuple of positive parts."""
    for m in range(1, d + 1):
        for cuts in combinations(range(1, d), m - 1):
            ends = (0, *cuts, d)
            yield tuple(b - a for a, b in zip(ends, ends[1:]))


def composition_table(d, n):
    """(diameter, V) -> number of cells, as the compositions predict."""
    table = Counter()
    for parts in compositions(d):
        table[len(parts), prod(c + 1 for c in parts)] += comb(n - d, len(parts))
    return +table


def test_compositions_of_small_d():
    assert sorted(compositions(3)) == [(1, 1, 1), (1, 2), (2, 1), (3,)]
    assert all(sum(1 for _ in compositions(d)) == 2 ** (d - 1) for d in range(1, 9))


@pytest.mark.parametrize("d, n", GRID, ids=[f"{d}-{n}" for d, n in GRID])
def test_cyclic_star_census_is_the_composition_table(cached_census, d, n):
    report = cached_census("cyclic", d, n)
    histogram = Counter((rec.diameter, rec.vertex_count) for rec in report.records)
    assert histogram == composition_table(d, n)
    assert report.cell_count == comb(n - 1, d)
    assert report.delta == Fraction(d * (n - d), n - 1)
