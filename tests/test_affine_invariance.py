"""Metamorphic check: an invertible affine change of coordinates changes
nothing combinatorial.

Substituting x = M y + t turns hyperplane a·x = b into (Mᵀa)·y = b − a·t,
and the sign of the new hyperplane at y is the sign of the old one at
M y + t.  So the census, every cell's signature, (V, E, F), diameter and
class, and delta must all come out the same, and so must every skeleton.
"""

import itertools
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from arrangement_lab.arrangement import Arrangement, Hyperplane, enumerate_vertices, line_steps
from arrangement_lab.cells import skeletons_for_cells
from arrangement_lab.census import census
from arrangement_lab.constructions import build_ao2, build_ao3, random_simple_arrangement
from arrangement_lab.jsonio import census_to_obj

entries = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))


def determinant(m):
    d = len(m)
    total = Fraction(0)
    for perm in itertools.permutations(range(d)):
        inversions = sum(perm[i] > perm[j] for i, j in itertools.combinations(range(d), 2))
        term = Fraction(-1) ** inversions
        for row, col in enumerate(perm):
            term *= m[row][col]
        total += term
    return total


@st.composite
def affine_maps(draw, d):
    rows = st.lists(st.lists(entries, min_size=d, max_size=d), min_size=d, max_size=d)
    m = draw(rows.filter(lambda m: determinant(m) != 0))
    t = draw(st.lists(entries, min_size=d, max_size=d))
    return m, t


def pull_back(arr, m, t):
    """The arrangement of the hyperplanes a·(M y + t) = b, in y."""
    d = arr.dim
    planes = []
    for h in arr.hyperplanes:
        a = tuple(sum(m[i][j] * h.a[i] for i in range(d)) for j in range(d))
        planes.append(Hyperplane(a, h.b - sum(ai * ti for ai, ti in zip(h.a, t))))
    return Arrangement(d, tuple(planes))


@st.composite
def instances(draw):
    d = draw(st.sampled_from([2, 3]))
    kind = draw(st.sampled_from(["random", "construction"]))
    if kind == "construction":
        arr = build_ao2(draw(st.integers(4, 8))) if d == 2 else build_ao3(draw(st.integers(5, 7)))
    else:
        n = draw(st.integers(d + 1, d + 4))
        arr = random_simple_arrangement(d, n, seed=draw(st.integers(0, 10_000)))
    return arr.arrangement


def skeletons(arr, records):
    return skeletons_for_cells(records, line_steps(arr, enumerate_vertices(arr)), arr.dim)


@settings(deadline=None, max_examples=30)
@given(st.data())
def test_affine_map_preserves_census(data):
    arr = data.draw(instances())
    m, t = data.draw(affine_maps(arr.dim))
    moved = pull_back(arr, m, t)
    before, after = census(arr), census(moved)
    assert census_to_obj(after, include_cells=True) == census_to_obj(before, include_cells=True)
    assert after.delta == before.delta
    assert skeletons(moved, after.records) == skeletons(arr, before.records)
