"""Fail paths of the verdicts: each check fails when one computed field is
off, and a pooled check counts every violation while keeping ten notes.

The census is tampered with after enumeration, by replacing the cached
construction census with a copy that has one field changed.
"""

import dataclasses
from fractions import Fraction

import pytest

from arrangement_lab import verify
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
        return dataclasses.replace(report, **change(report))

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
