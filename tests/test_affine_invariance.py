"""Metamorphic check: an invertible affine change of coordinates changes
nothing combinatorial.

Substituting x = M y + t turns hyperplane a·x = b into (Mᵀa)·y = b − a·t,
and the sign of the new hyperplane at y is the sign of the old one at
M y + t.  So the census, every cell's signature, (V, E, F), diameter and
class, and delta must all come out the same, and so must every skeleton.

Relabelling and reorienting the hyperplanes keeps every point too: the
census moves with its hyperplanes, and each cell keeps its counts,
diameter and class under its permuted and flipped signature.
"""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from arrangement_lab.arrangement import Arrangement, Hyperplane, check_simple, enumerate_vertices
from arrangement_lab.cells import skeletons_for_cells
from arrangement_lab.census import census
from arrangement_lab.constructions import (
    build_ao2,
    build_ao3,
    build_cyclic_star,
    random_simple_arrangement,
)
from arrangement_lab.jsonio import census_to_obj
from test_vertex_pass import move, relabelled_arrangements

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
    return skeletons_for_cells(records, enumerate_vertices(arr), arr.dim)


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


# ---------------------------------------------------------------------------
# relabelling and reorientation
# ---------------------------------------------------------------------------

def assert_census_moves_with_its_hyperplanes(arr, moved, order, flipped):
    before, after = census(arr), census(moved)

    def totals(report):
        return (report.class_counts, report.delta, report.f_bounded, report.f_external,
                report.p_odd)

    def counts(rec):
        return rec.vertex_count, rec.edge_count, rec.facet_count, rec.diameter, rec.cell_class

    assert totals(after) == totals(before)
    by_signature = {rec.signature: rec for rec in after.records}
    assert len(by_signature) == len(before.records)
    for rec in before.records:
        sig = tuple(-rec.signature[i] if i in flipped else rec.signature[i] for i in order)
        assert counts(by_signature[sig]) == counts(rec), rec.signature


@settings(deadline=None, max_examples=40)
@given(relabelled_arrangements())
def test_relabelling_and_reorientation_move_the_census(case):
    arr, moved, order, flipped = case
    assume(check_simple(arr).is_simple)
    assert_census_moves_with_its_hyperplanes(arr, moved, order, flipped)


@pytest.mark.parametrize(
    "built", [build_ao3(7), build_cyclic_star(4, 8)], ids=["ao3-7", "cyclic-4-8"]
)
def test_constructions_relabelled_and_reoriented_keep_their_census(built):
    arr = built.arrangement
    order = random.Random(arr.n).sample(range(arr.n), arr.n)
    flipped = set(order[::3])
    assert_census_moves_with_its_hyperplanes(arr, move(arr, order, flipped), order, flipped)
