"""The integer vertex kernel against the Fraction oracle, plus scaling laws.

`enumerate_vertices` and `check_simple` must agree with the oracle item by
item (points, tight sets, sign vectors) on simple input, and on the witness
and reason of the NotSimpleError they raise otherwise.  The coefficients
drawn here are non-integer rationals of both signs, so the scaling of each
hyperplane to primitive integers is exercised too.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arrangement_lab.arrangement import (
    Arrangement,
    SimplicityReport,
    check_simple,
    enumerate_vertices,
    hyperplane,
)
from arrangement_lab.constructions import build_ao2, build_ao3, build_cyclic_star
from arrangement_lab.errors import NotSimpleError
from oracle_vertices import check_simple_by_fractions, enumerate_vertices_by_fractions
from signs import vertex_signs

coefficients = st.builds(Fraction, st.integers(-40, 40), st.integers(2, 9))
nonzero = coefficients.filter(lambda c: c != 0)


@st.composite
def rational_arrangements(draw):
    d = draw(st.sampled_from([2, 3, 4]))
    n = draw(st.integers(d + 1, d + 3))
    normals = st.lists(coefficients, min_size=d, max_size=d).filter(any)
    return Arrangement(d, tuple(
        hyperplane(draw(normals), draw(coefficients)) for _ in range(n)
    ))


def outcome(enumerate_fn, arr):
    """The vertices, or the report and message of the NotSimpleError."""
    try:
        return enumerate_fn(arr)
    except NotSimpleError as exc:
        return exc.report, str(exc)


def assert_matches_oracle(arr):
    kernel = outcome(enumerate_vertices, arr)
    oracle = outcome(enumerate_vertices_by_fractions, arr)
    if isinstance(oracle, list):
        assert isinstance(kernel, list) and len(kernel) == len(oracle)
        for ours, theirs in zip(kernel, oracle):
            assert ours.point == theirs.point
            assert ours.tight_set == theirs.tight_set
            assert ours.plus == theirs.plus
    else:
        assert kernel == oracle
    # the simplicity check returns the report the census raises
    assert check_simple(arr) == (SimplicityReport(True) if isinstance(kernel, list) else kernel[0])
    assert check_simple(arr) == check_simple_by_fractions(arr)


@settings(deadline=None, max_examples=60)
@given(rational_arrangements())
def test_rational_arrangements_match_oracle(arr):
    assert_matches_oracle(arr)


@pytest.mark.parametrize(
    "built",
    [build_ao2(4), build_ao2(9), build_ao3(5), build_ao3(8),
     build_cyclic_star(2, 6), build_cyclic_star(3, 7), build_cyclic_star(4, 8),
     build_cyclic_star(5, 9)],
    ids=lambda b: f"{b.family}-{b.d}-{b.n}",
)
def test_constructions_match_oracle(built):
    assert_matches_oracle(built.arrangement)


def through(point, normal):
    """The hyperplane with this normal through this point."""
    normal = [Fraction(c) for c in normal]
    return hyperplane(normal, sum(a * x for a, x in zip(normal, point)))


P2 = (Fraction(1, 2), Fraction(-1, 3))
P3 = (Fraction(2, 3), Fraction(-3, 4), Fraction(1, 5))

NOT_SIMPLE = {
    "too-few": Arrangement(2, (
        through(P2, ["1/2", "1/3"]), through(P2, ["-2/7", "5/3"]),
    )),
    "parallel": Arrangement(2, (
        hyperplane(["1/2", "1/3"], 1), hyperplane(["-1/4", "-1/6"], "1/3"),
        hyperplane(["-1/5", "1/7"], "2/3"),
    )),
    "concurrent": Arrangement(2, (
        through(P2, ["1/2", "1/3"]), through(P2, ["-2/7", "5/3"]),
        through(P2, ["3/4", "-1/9"]), hyperplane(["1/3", "1/5"], "7/2"),
    )),
    "same-plane-reversed": Arrangement(3, (
        hyperplane(["1/2", "-1/3", "1/4"], "1/5"), hyperplane(["1/3", "1/2", "-2/3"], 1),
        hyperplane(["-3/4", "1/2", "-3/8"], "-3/10"), hyperplane(["1/7", "2/9", "1/8"], 2),
    )),
    "repeated-point": Arrangement(3, (
        hyperplane(["1/3", "-1/2", "1/5"], "7/3"), through(P3, ["1/2", "1/3", "-1/4"]),
        through(P3, ["-2/3", "1/5", "1/2"]), through(P3, ["3/7", "-1/2", "2/3"]),
        through(P3, ["1/6", "1/4", "5/3"]),
    )),
    "extra-plane": Arrangement(3, (
        through(P3, ["1/2", "1/3", "-1/4"]), through(P3, ["-2/3", "1/5", "1/2"]),
        through(P3, ["3/7", "-1/2", "2/3"]), hyperplane(["1/3", "-1/2", "1/5"], "7/3"),
        through(P3, ["1/6", "1/4", "5/3"]),
    )),
}


@pytest.mark.parametrize("name", sorted(NOT_SIMPLE))
def test_not_simple_witness_and_reason_match_oracle(name):
    arr = NOT_SIMPLE[name]
    assert not check_simple(arr).is_simple
    with pytest.raises(NotSimpleError):
        enumerate_vertices(arr)
    assert_matches_oracle(arr)


def test_not_simple_reports_name_the_defect():
    # the fixtures above hit each defect the kernel can report
    reasons = {name: check_simple(arr).reason for name, arr in NOT_SIMPLE.items()}
    assert reasons["parallel"] == "hyperplanes do not meet in a single point"
    assert reasons["same-plane-reversed"] == "hyperplanes do not meet in a single point"
    assert reasons["repeated-point"] == "point of subset (1, 2, 3) lies on extra hyperplanes [4]"
    with pytest.raises(NotSimpleError) as err:
        enumerate_vertices(NOT_SIMPLE["extra-plane"])
    assert err.value.report.witness == (0, 1, 2, 4)
    assert "extra hyperplanes [4]" in err.value.report.reason


def scaled(arr, k, factor):
    planes = list(arr.hyperplanes)
    h = planes[k]
    planes[k] = hyperplane([c * factor for c in h.a], h.b * factor)
    return Arrangement(arr.dim, tuple(planes))


def points_and_signs(arr):
    try:
        return [(v.point, vertex_signs(v, arr.n)) for v in enumerate_vertices(arr)]
    except NotSimpleError as exc:
        return exc.report


@settings(deadline=None, max_examples=40)
@given(rational_arrangements(), st.data())
def test_scaling_one_hyperplane(arr, data):
    """A positive factor changes nothing; a negative one flips column k."""
    k = data.draw(st.integers(0, arr.n - 1))
    factor = data.draw(nonzero)
    before = points_and_signs(arr)
    after = points_and_signs(scaled(arr, k, factor))
    if isinstance(before, list) and factor < 0:
        before = [(p, s[:k] + (-s[k],) + s[k + 1:]) for p, s in before]
    assert after == before
