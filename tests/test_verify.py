"""Proposition checks: verdicts, grids, notes, degenerate cases."""

from fractions import Fraction

import pytest

from arrangement_lab import verify
from arrangement_lab.errors import InputError
from arrangement_lab.verify import (
    P1_RANGE,
    P2_RANGE,
    P3_RANGE,
    P4_RANGE,
    P5_RANGE,
    P6_GRID,
    P7_GRID,
    PROP_IDS,
    RANDOM_2D_POOL,
    RANDOM_3D_POOL,
    RANDOM_COEFF_BOUND,
    construction_census,
    default_instances,
    delta_formula_2d,
    delta_formula_3d,
    expected_census_dplus2,
    prop4_upper_bound,
    prop6_lower_bound,
    prop7_lower_bound,
    run_suite,
    suite_instances,
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


def test_construction_census_rejects_an_unknown_family():
    with pytest.raises(InputError) as refused:
        verify.construction_census("ao4", 4, 8, None, None)
    assert str(refused.value) == "unknown family 'ao4'"


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
    # P1 and P2 must hit the same cache entry for the same instance
    construction_census.cache_clear()
    verify_proposition("P1", n=5)
    verify_proposition("P2", n=5)
    info = construction_census.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    # the gridded checks' keys come from the plan table, H's and S's from
    # default_instances; the two sources must name the same instances
    assert set(suite_instances(["P1"])) <= set(suite_instances(["H"]))
    everything = set(suite_instances(["S"]))
    assert all(set(suite_instances([prop])) <= everything for prop in PROP_IDS)


DEFAULT_GRIDS = {"P1": P1_RANGE, "P2": P2_RANGE, "P3": P3_RANGE, "P4": P4_RANGE,
                 "P5": P5_RANGE, "P6": P6_GRID, "P7": P7_GRID}


@pytest.mark.parametrize("prop", PROP_IDS)
def test_verify_proposition_matches_the_suite_row(prop):
    # one dispatcher: a check run alone at a default grid point gives the
    # result that run_suite gives for the same point
    rows = [r for r in run_suite([prop]).results if "pool" not in r.params]
    if prop in ("H", "S"):
        assert rows == [verify_proposition(prop)]
        return
    assert len(rows) == len(DEFAULT_GRIDS[prop])
    for row in rows:
        point = {key: row.params[key] for key in verify._GRIDDED[prop].names}
        assert verify_proposition(prop, **point) == row


@pytest.mark.parametrize("prop, params, message", [
    ("P1", {"n": 3}, "P1 requires n >= 4"),
    ("P3", {"n": 4}, "P3 requires n >= 5"),
    ("P5", {"d": -1}, "P5 requires d >= 2"),
    ("P7", {"d": 3, "n": 5}, "P7 requires d >= 2 and n >= 2d"),
])
def test_verify_proposition_checks_the_point_before_any_census(monkeypatch, prop, params,
                                                               message):
    censused = []
    monkeypatch.setattr(verify, "construction_census", lambda *key: censused.append(key))
    with pytest.raises(InputError) as excinfo:
        verify_proposition(prop, **params)
    assert str(excinfo.value) == message
    assert censused == []


@pytest.mark.parametrize("prop", ["H", "S"])
def test_run_suite_rejects_range_for_default_instance_checks(prop):
    with pytest.raises(InputError, match="default instances"):
        run_suite([prop], {"n": [4, 5]})


@pytest.mark.parametrize("prop", PROP_IDS)
def test_suite_instances_lists_every_instance_censused(monkeypatch, prop):
    # the --max-vertices check reads suite_instances, so it must name every
    # instance the checks census, in the order they first census it
    censused = []
    real = verify.construction_census

    def spy(*key):
        censused.append(key)
        return real(*key)

    monkeypatch.setattr(verify, "construction_census", spy)
    run_suite([prop])
    assert list(dict.fromkeys(censused)) == list(suite_instances([prop]))


def test_a_huge_d_range_ends_where_n_leaves_no_pair():
    # the (d, n) grid reads d in ascending order and stops at the first d
    # above max(n)/2, instead of filtering every d of the range
    ranges = {"d": range(2, 10**12), "n": range(4, 6)}
    assert list(suite_instances(["P6"], ranges)) == [("cyclic", 2, 4, None, None),
                                                     ("cyclic", 2, 5, None, None)]


@pytest.mark.parametrize("prop, params, message", [
    ("P1", {"n": 5, "d": 99, "m": 1}, "--range key 'd' does not apply to P1, which takes n"),
    ("P6", {"d": 3, "n": 8, "seed": 1},
     "--range key 'seed' does not apply to P6, which takes d or n"),
    ("P1", {"n": 5, "d": 2}, "--range key 'd' does not apply to P1, which takes n"),
    ("P3", {"n": 7, "d": 3}, "--range key 'd' does not apply to P3, which takes n"),
    ("P5", {"d": 3, "n": 7}, "--range key 'n' does not apply to P5, which takes d"),
    ("P5", {"d": 3, "n": 5}, "--range key 'n' does not apply to P5, which takes d"),
    ("H", {"n": 3}, "--range key 'n' does not apply to H, which takes no parameters"),
])
def test_verify_proposition_rejects_parameters_the_check_does_not_take(monkeypatch, prop,
                                                                       params, message):
    def no_census(*_args, **_kwargs):
        raise AssertionError("census ran before the parameters were checked")

    monkeypatch.setattr(verify, "construction_census", no_census)
    with pytest.raises(InputError) as refused:
        verify_proposition(prop, **params)
    assert str(refused.value) == message


def test_default_instances_follow_the_grid_table(monkeypatch):
    # the default grids' constructions, then the pools: 28 + 50 + 20 keys
    grids = [("ao2", 2, n, None, None) for n in P1_RANGE]
    grids += [("ao3", 3, n, None, None) for n in P3_RANGE]
    grids += [("cyclic", d, d + 2, None, None) for d in P5_RANGE]
    grids += [("cyclic", d, n, None, None) for d, n in P6_GRID]
    pools = [("random", 2, n, seed, RANDOM_COEFF_BOUND) for n, seed in RANDOM_2D_POOL]
    pools += [("random", 3, n, seed, RANDOM_COEFF_BOUND) for n, seed in RANDOM_3D_POOL]
    keys = default_instances()
    assert len(keys) == len(set(keys)) == 98
    assert set(keys) == set(grids) | set(pools)
    # a grid edited in the table changes what H and S check, with no second list
    spec = verify._GRIDDED["P1"]
    monkeypatch.setitem(verify._GRIDDED, "P1", spec._replace(grid=spec.grid + ((13,),)))
    assert ("ao2", 2, 13, None, None) in default_instances()
    assert ("ao2", 2, 13, None, None) in suite_instances(["S"])
