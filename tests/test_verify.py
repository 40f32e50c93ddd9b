"""Proposition checks: verdicts, grids, notes, degenerate cases."""

from fractions import Fraction

import pytest

from arrangement_lab import verify
from arrangement_lab.constructions import build_ao3
from arrangement_lab.errors import InputError
from arrangement_lab.verify import (
    P7_GRID,
    _verify_hirsch,
    _verify_p1,
    construction_census,
    delta_formula_2d,
    delta_formula_3d,
    expected_census_dplus2,
    prop4_upper_bound,
    prop6_lower_bound,
    prop7_lower_bound,
    run_suite,
    verify_identity_2d,
    verify_proposition,
)


def test_p1_example():
    result = verify_proposition("P1", n=7)
    assert result.passed
    assert result.computed["delta"] == Fraction(26, 15)


def test_p1_formula_values():
    assert delta_formula_2d(7) == Fraction(26, 15)
    assert delta_formula_2d(6) == Fraction(17, 10)
    assert delta_formula_2d(12) == Fraction(104, 55)


def test_p3_formula_values():
    assert delta_formula_3d(7) == Fraction(41, 20)
    assert delta_formula_3d(6) == Fraction(19, 10)
    assert delta_formula_3d(8) == Fraction(11, 5)


def test_p3_n6_reports_both_values():
    result = verify_proposition("P3", n=6)
    assert result.passed
    assert result.computed["delta"] == Fraction(19, 10)
    joined = " ".join(result.notes)
    assert "19/10" in joined and "9/5" in joined


def test_p4_bound_values():
    assert prop4_upper_bound(5) == Fraction(5, 2)
    # the bound is false at n = 4 (a lone simplex has delta 1), hence the range
    assert prop4_upper_bound(4) < 1
    with pytest.raises(InputError):
        verify_proposition("P4", n=4)


def test_p5_example():
    result = verify_proposition("P5", d=3)
    assert result.passed
    assert result.computed["delta"] == Fraction(3, 2)


def test_p5_expected_census_shapes():
    assert expected_census_dplus2(2) != {}
    for d in range(2, 7):
        assert sum(expected_census_dplus2(d).values()) == d + 1


def test_p6_example():
    result = verify_proposition("P6", d=3, n=8)
    assert result.passed
    assert result.computed["cubical_cells"] == 10
    assert result.expected["delta_at_least"] == Fraction(30, 35)


def test_p6_plane_note():
    result = verify_proposition("P6", d=2, n=6)
    assert result.passed
    assert result.computed["cubical_cells"] == 6
    assert any("quadrilateral" in note for note in result.notes)


def test_p7_passes_for_d_at_least_3():
    result = verify_proposition("P7", d=3, n=6)
    assert result.passed
    assert result.computed["simplices"] == 3
    assert result.computed["simplex_prisms"] == 6


def test_p7_degenerates_in_the_plane():
    # cubical cells and simplex prisms are the same squares when d = 2, so
    # the disjoint tally fails; the verifier says so instead of asserting it
    result = verify_proposition("P7", d=2, n=6)
    assert not result.passed
    assert result.computed["simplices"] == 4
    assert result.computed["simplex_prisms"] == 6       # the honest count
    assert result.expected["simplex_prisms"] == 12      # the degenerate tally
    assert any("double-counts" in note for note in result.notes)
    assert all(d >= 3 for d, _ in P7_GRID)


def test_prop7_bound_value():
    assert prop7_lower_bound(3, 6) == Fraction(9, 5)
    assert prop6_lower_bound(3, 6) == Fraction(3, 10)


def test_verify_proposition_rejects_unknown():
    with pytest.raises(InputError):
        verify_proposition("P9", n=5)
    with pytest.raises(InputError):
        verify_proposition("P1")  # missing n
    with pytest.raises(InputError):
        verify_proposition("P6", d=3, n=5)  # needs n >= 2d


def test_run_suite_single_prop_with_range():
    summary = run_suite(["P1"], {"n": list(range(4, 9))})
    assert summary.all_pass
    assert [r.params["n"] for r in summary.results] == [4, 5, 6, 7, 8]


def test_run_suite_range_requires_single_prop():
    with pytest.raises(InputError):
        run_suite(["P1", "P2"], {"n": [5]})


def test_run_suite_rejects_unknown_prop():
    with pytest.raises(InputError):
        run_suite(["P0"])


def test_hirsch_and_simplex_floor():
    summary = run_suite(["H", "S"])
    assert summary.all_pass
    by_prop = {r.prop: r for r in summary.results}
    assert by_prop["H"].computed["violations"] == 0
    assert by_prop["S"].computed["violations"] == 0


def test_suite_results_are_deterministic():
    first = run_suite(["P5"])
    second = run_suite(["P5"])
    assert [r.params for r in first.results] == [r.params for r in second.results]
    assert [r.computed for r in first.results] == [r.computed for r in second.results]


def test_census_cache_shares_keys_across_checks():
    # P1 and H must hit the same cache entry for the same instance
    construction_census.cache_clear()
    _verify_p1(5)
    _verify_hirsch([("ao2", 2, 5, None, None)])
    info = construction_census.cache_info()
    assert (info.misses, info.hits) == (1, 1)


@pytest.mark.parametrize("prop", ["H", "S"])
def test_run_suite_rejects_range_for_default_instance_checks(prop):
    with pytest.raises(InputError, match="default instances"):
        run_suite([prop], {"n": [4, 5]})


def test_identity_2d_rejects_other_dimensions_before_enumerating(monkeypatch):
    def no_census(*_args, **_kwargs):
        raise AssertionError("census ran before the dimension check")

    monkeypatch.setattr(verify, "census", no_census)
    with pytest.raises(InputError, match="d = 2"):
        verify_identity_2d(build_ao3(6).arrangement)
