"""Fail paths of the verdicts: each check fails when one computed field is
off, and a pooled check counts every violation while keeping ten notes.

The census is tampered with after enumeration, by replacing the cached
construction census with a copy that has one field changed.
"""

from fractions import Fraction
from math import ceil

import pytest

from arrangement_lab import verify
from arrangement_lab.cells import cube, simplex, simplex_product
from arrangement_lab.verify import default_instances, run_suite, verify_proposition


def _one_more_cell_of_the_first_class(report):
    counts = dict(report.class_counts)
    counts[min(counts)] += 1
    return {"class_counts": counts}


WRONG_FIELD = {
    "census": _one_more_cell_of_the_first_class,
    "delta": lambda report: {"delta": report.delta + Fraction(1, 1000)},
    "cell_count": lambda report: {"cell_count": report.cell_count + 1},
}


def _tamper(monkeypatch, change):
    real = verify.construction_census

    def tampered(*key):
        report = real(*key)
        return report._replace(**change(report))

    monkeypatch.setattr(verify, "construction_census", tampered)


@pytest.mark.parametrize("field", sorted(WRONG_FIELD))
@pytest.mark.parametrize("prop, params", [("P1", {"n": 7}), ("P3", {"n": 7}), ("P5", {"d": 3})])
def test_census_check_fails_on_one_wrong_field(monkeypatch, prop, params, field):
    assert verify_proposition(prop, **params).passed
    _tamper(monkeypatch, WRONG_FIELD[field])
    result = verify_proposition(prop, **params)
    assert result.verdict == "fail"
    assert set(result.expected) == set(result.computed) == set(WRONG_FIELD)
    mismatched = {key for key in result.expected if result.expected[key] != result.computed[key]}
    assert mismatched == {field}


def _pooled_result(props, pool_only=False):
    results = run_suite(props, {"n": [5]} if pool_only else None).results
    return next(r for r in results if not pool_only or "pool" in r.params)


def _no_simplices(report):
    return {"class_counts": {}}


def _huge_delta(report):
    return {"delta": Fraction(100)}


# Each change fails exactly one of the check's conditions on every instance.
@pytest.mark.parametrize("props, pool_only, change, tested", [
    (["H"], False, _huge_delta, lambda: sum(1 for key in default_instances() if key[1] in (2, 3))),
    (["S"], False, _no_simplices, lambda: len(default_instances())),
    (["P2"], True, _no_simplices, lambda: len(verify.RANDOM_2D_POOL)),
    (["P4"], True, _no_simplices, lambda: len(verify.RANDOM_3D_POOL)),
], ids=["H", "S", "P2-random", "P4-random"])
def test_pooled_check_counts_every_violation_and_keeps_ten_notes(
    monkeypatch, props, pool_only, change, tested
):
    _tamper(monkeypatch, change)
    result = _pooled_result(props, pool_only)
    assert result.verdict == "fail"
    assert result.params["instances"] == tested() > 10
    assert result.expected == {"violations": 0}
    assert result.computed == {"violations": tested()}
    assert len(result.notes) == 10


def _mismatched(result):
    """The expected keys that `computed` also has, with another value there."""
    return {key for key, value in result.expected.items()
            if key in result.computed and result.computed[key] != value}


def _keeping_the_identity(change):
    """`change`, with the cell count set so that I*delta still equals
    (2 f1 - f1_ext - p_odd)/2: the identity residual stays 0, so only the
    key of the changed field is off."""
    def changed(report):
        fields = change(report)
        new = report._replace(**fields)
        rhs = Fraction(2 * new.f_bounded - new.f_external - new.p_odd, 2)
        return {**fields, "cell_count": rhs / new.delta}
    return changed


# one wrong key of P2 each, the others kept right
WRONG_2D_KEY = {
    "delta": _keeping_the_identity(lambda r: {"delta": r.delta + Fraction(1, 1000)}),
    "f1": _keeping_the_identity(lambda r: {"f_bounded": r.f_bounded + 1}),
    "f1_external": _keeping_the_identity(lambda r: {"f_external": r.f_external + 1}),
    "p_odd": _keeping_the_identity(lambda r: {"p_odd": r.p_odd + 1}),
    "identity_residual": lambda r: {"cell_count": r.cell_count + 1},
}


@pytest.mark.parametrize("key", sorted(WRONG_2D_KEY))
@pytest.mark.parametrize("n", [7, 8])
def test_p2_fails_on_each_wrong_key(monkeypatch, n, key):
    assert verify_proposition("P2", n=n).passed
    _tamper(monkeypatch, WRONG_2D_KEY[key])
    result = verify_proposition("P2", n=n)
    assert result.verdict == "fail"
    assert set(result.expected) == set(result.computed) == set(WRONG_2D_KEY)
    assert _mismatched(result) == {key}


def _one_over_the_cell_bound(position):
    """Record `position` one above floor(2F/3) - 1 and the next one below its
    diameter, so the chain's diameter sum is unchanged."""
    def change(report):
        records = list(report.records)
        for at, step in ((position, 1), (position + 1, -1)):
            records[at] = records[at]._replace(diameter=records[at].diameter + step)
        return {"records": records}
    return change


def _one_simplex_fewer(report):
    counts = dict(report.class_counts)
    counts[simplex(3)] -= 1
    return {"class_counts": counts}


# Each change breaks exactly one condition of `_p4_checks` on ao3(7).
P4_CONDITION = {
    "delta exceeds the 3D upper bound":
        lambda r: {"delta": verify.prop4_upper_bound(r.n) + Fraction(1, 1000)},
    "a cell exceeds floor(2F/3) - 1": _one_over_the_cell_bound(3),
    "fewer than n-3 simplices": _one_simplex_fewer,
    "f2 != n*C(n-2,2)": lambda r: {"f_bounded": r.f_bounded + 1},
    "f2_external below n(n-2)/3 + 2":
        lambda r: {"f_external": ceil(Fraction(r.n * (r.n - 2), 3) + 2) - 1},
    "inequality chain broken": lambda r: {"cell_count": r.cell_count + 1000},
}


@pytest.mark.parametrize("condition", sorted(P4_CONDITION))
def test_p4_fails_on_each_condition(monkeypatch, condition):
    assert verify_proposition("P4", n=7).passed
    _tamper(monkeypatch, P4_CONDITION[condition])
    result = verify_proposition("P4", n=7)
    assert result.verdict == "fail"
    assert result.computed["violations"] == 1
    (note,) = result.notes
    assert note.startswith(condition)


def _one_more(cls):
    def change(report):
        counts = dict(report.class_counts)
        counts[cls] = counts.get(cls, 0) + 1
        return {"class_counts": counts}
    return change


@pytest.mark.parametrize("prop, key, change", [
    ("P6", "cubical_cells", _one_more(cube(3))),
    ("P7", "simplices", _one_more(simplex(3))),
    ("P7", "simplex_prisms", _one_more(simplex_product(1, 2))),
])
def test_cyclic_count_fails_alone(monkeypatch, prop, key, change):
    assert verify_proposition(prop, d=3, n=8).passed
    _tamper(monkeypatch, change)
    result = verify_proposition(prop, d=3, n=8)
    assert result.verdict == "fail"
    assert _mismatched(result) == {key}
    assert result.computed["delta"] >= result.expected["delta_at_least"]


@pytest.mark.parametrize("below, verdict", [(Fraction(1, 1000), "fail"), (0, "pass")],
                         ids=["one-step-below", "equal"])
@pytest.mark.parametrize("prop, bound", [("P6", verify.prop6_lower_bound),
                                         ("P7", verify.prop7_lower_bound)], ids=["P6", "P7"])
def test_cyclic_delta_floor(monkeypatch, prop, bound, below, verdict):
    _tamper(monkeypatch, lambda r: {"delta": bound(3, 8) - below})
    result = verify_proposition(prop, d=3, n=8)
    assert result.expected["delta_at_least"] == bound(3, 8)
    assert result.computed["delta"] == bound(3, 8) - below
    assert result.verdict == verdict


def test_p3_at_six_fails_on_delta_and_notes_the_deviation(monkeypatch):
    deviation = "deviation: enumerated delta differs from the closed form"
    assert deviation not in verify_proposition("P3", n=6).notes
    _tamper(monkeypatch, WRONG_FIELD["delta"])
    result = verify_proposition("P3", n=6)
    assert result.verdict == "fail"
    assert result.notes[-1] == deviation


def test_p4_cell_note_names_the_first_cell_over_the_bound(monkeypatch):
    raised = 5
    _tamper(monkeypatch, _one_over_the_cell_bound(raised))
    result = verify_proposition("P4", n=7)
    record = verify.construction_census("ao3", 3, 7, None, None).records[raised]
    (note,) = result.notes
    assert note == (f"a cell exceeds floor(2F/3) - 1: cell {raised} in --cells order"
                    f" has diameter {record.diameter} and F = {record.facet_count}")


def _result(expected, computed):
    return verify.VerificationResult("X", {}, expected, computed, [])


@pytest.mark.parametrize("expected, computed, verdict", [
    ({"count": 3}, {"count": 3}, "pass"),
    ({"count": 3}, {"count": 4}, "fail"),
    ({"delta_at_least": Fraction(3, 2)}, {"delta": Fraction(3, 2)}, "pass"),
    ({"delta_at_least": Fraction(3, 2)}, {"delta": Fraction(2)}, "pass"),
    ({"delta_at_least": Fraction(3, 2)}, {"delta": Fraction(149, 100)}, "fail"),
    # context keys, on either side, never decide the verdict
    ({"count": 3, "upper_bound": 7}, {"count": 3}, "pass"),
    ({"count": 3}, {"count": 3, "f1_external": 9}, "pass"),
    ({"count": 3, "upper_bound": 7}, {"count": 4, "f1_external": 9}, "fail"),
    ({}, {"violations": 0}, "pass"),
], ids=["equal", "unequal", "at-least-equal", "at-least-above", "at-least-below",
        "expected-context", "computed-context", "context-beside-a-wrong-key", "nothing-expected"])
def test_pass_rule(expected, computed, verdict):
    result = _result(expected, computed)
    assert result.verdict == verdict
    assert result.passed == (verdict == "pass")


def test_summary_passes_when_every_result_passes():
    passing, failing = _result({"a": 1}, {"a": 1}), _result({"a": 1}, {"a": 2})
    assert verify.SuiteSummary([passing, passing], {}).all_pass
    assert not verify.SuiteSummary([passing, failing], {}).all_pass
