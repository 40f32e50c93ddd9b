"""Aggregates: average diameter, censuses, face statistics, the 2D identity."""

from fractions import Fraction

import pytest

from arrangement_lab.census import census
from arrangement_lab.cells import cube, polygon, simplex, simplex_product
from arrangement_lab.constructions import (
    build_ao2,
    build_ao3,
    build_cyclic_star,
    random_simple_arrangement,
)
from arrangement_lab.errors import NotSimpleError
from arrangement_lab.arrangement import Arrangement, hyperplane


def test_census_deltas():
    assert census(build_ao2(7).arrangement).delta == Fraction(26, 15)
    assert census(build_ao3(5).arrangement).delta == Fraction(3, 2)
    assert census(build_cyclic_star(3, 6).arrangement).delta == Fraction(9, 5)


def test_census_ao2_6(cached_census):
    report = cached_census("ao2", 2, 6)
    assert report.cell_count == 10
    assert report.class_counts == {polygon(3): 4, polygon(4): 5, polygon(6): 1}
    assert report.delta == Fraction(17, 10)
    assert report.vertex_count == 15


def test_census_ao3_7(cached_census):
    report = cached_census("ao3", 3, 7)
    assert report.cell_count == 20
    assert report.class_counts[simplex(3)] == 4
    assert report.class_counts[simplex_product(1, 2)] == 11
    assert report.class_counts[cube(3)] == 4
    assert report.delta == Fraction(41, 20)


def test_census_star_46(cached_census):
    report = cached_census("cyclic", 4, 6)
    assert report.cell_count == 5
    assert report.class_counts == {
        simplex(4): 2,
        simplex_product(1, 3): 2,
        simplex_product(2, 2): 1,
    }
    assert report.f_bounded is None and report.p_odd is None


def test_census_rejects_non_simple():
    arr = Arrangement(
        2, (hyperplane([1, 0], 0), hyperplane([1, 0], 1), hyperplane([0, 1], 0))
    )
    with pytest.raises(NotSimpleError) as err:
        census(arr)
    assert err.value.report is not None


def test_external_edges_2d():
    assert census(build_ao2(6).arrangement).f_external == 10   # 2(n-1)
    assert census(build_ao2(9).arrangement).f_external == 16


def test_external_facets_3d_lower_bound():
    arr = random_simple_arrangement(3, 6, seed=4).arrangement
    count = census(arr).f_external
    assert Fraction(count) >= Fraction(6 * 4, 3) + 2


def test_census_counts_no_external_faces_in_4d():
    assert census(build_cyclic_star(4, 6).arrangement).f_external is None


def test_census_odd_cell_counts():
    assert census(build_ao2(6).arrangement).p_odd == 4     # n-2 for even n
    assert census(build_ao2(7).arrangement).p_odd == 6     # n-1 for odd n
    assert census(build_cyclic_star(2, 3).arrangement).p_odd == 1
    assert census(build_ao3(5).arrangement).p_odd is None


def assert_edge_identity(arr):
    """I*delta = (2 f1 - f1_external - p_odd)/2 and f1 = n(n-2), read off the
    census alone."""
    report = census(arr)
    rhs = Fraction(2 * report.f_bounded - report.f_external - report.p_odd, 2)
    assert report.cell_count * report.delta == rhs
    assert report.f_bounded == arr.n * (arr.n - 2)
    return report


def test_identity_2d_ao2_7():
    report = assert_edge_identity(build_ao2(7).arrangement)
    # 15 * 26/15 = 26 = (2*35 - 12 - 6) / 2
    assert report.f_bounded == 35
    assert report.f_external == 12
    assert report.p_odd == 6
    assert report.delta * 15 == 26


def test_identity_2d_smallest_case():
    assert_edge_identity(build_cyclic_star(2, 4).arrangement)


def test_identity_2d_random_instances():
    for seed in range(8):
        n = 4 + seed % 5
        assert_edge_identity(random_simple_arrangement(2, n, seed=seed).arrangement)


def test_f_bounded_values(cached_census):
    assert cached_census("ao2", 2, 5).f_bounded == 15        # n(n-2)
    assert cached_census("ao3", 3, 6).f_bounded == 36        # n*C(n-2,2)
    assert cached_census("ao3", 3, 7).f_bounded == 70


def test_metadata_passthrough():
    built = build_ao2(5)
    report = census(built.arrangement, metadata=built.metadata())
    assert report.metadata["family"] == "ao2"
    assert report.metadata["epsilon"] == Fraction(1, 3)
