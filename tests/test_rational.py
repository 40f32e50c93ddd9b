"""Exact scalar and linear-algebra layer."""

import re
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arrangement_lab import rational
from arrangement_lab.errors import DimensionMismatchError
from arrangement_lab.rational import (
    decimal_display,
    format_rational,
    integer_row,
    parse_rational,
    sign_affine,
    solve_integer_system,
    solve_linear_system,
    vector,
)
from oracle_arithmetic import identity_matrix, mat_vec, matrix


def cofactor_determinant(m):
    """Independent oracle: Laplace expansion along the first row."""
    size = len(m)
    if size == 1:
        return m[0][0]
    total = Fraction(0)
    for j in range(size):
        minor = [row[:j] + row[j + 1 :] for row in m[1:]]
        total += (-1) ** j * m[0][j] * cofactor_determinant(minor)
    return total


def test_identity_system():
    x = solve_linear_system(identity_matrix(3), vector([1, 2, 3]))
    assert x == vector([1, 2, 3])


def test_singular_system_returns_none():
    m = matrix([[1, 1], [1, 1]])
    assert solve_linear_system(m, vector([0, 1])) is None


def test_two_by_two_solution_verified_by_substitution():
    m = matrix([[1, 1], [1, -1]])
    b = vector([2, 0])
    x = solve_linear_system(m, b)
    assert x == (Fraction(1), Fraction(1))
    assert mat_vec(m, x) == b


def test_dimension_mismatch_raises():
    with pytest.raises(DimensionMismatchError):
        solve_linear_system(identity_matrix(3), vector([1, 2]))
    with pytest.raises(DimensionMismatchError):
        sign_affine(vector([1, 0]), Fraction(0), vector([1, 2, 3]))


fractions_st = st.fractions(
    min_value=-50, max_value=50, max_denominator=20
)


@settings(deadline=None, max_examples=60)
@given(
    st.lists(st.lists(fractions_st, min_size=4, max_size=4), min_size=4, max_size=4),
    st.lists(fractions_st, min_size=4, max_size=4),
)
def test_solve_agrees_with_cofactor_determinant(rows, rhs):
    m = matrix(rows)
    b = vector(rhs)
    x = solve_linear_system(m, b)
    det = cofactor_determinant([list(r) for r in m])
    if x is None:
        assert det == 0
    else:
        assert det != 0
        assert mat_vec(m, x) == b


@settings(deadline=None, max_examples=100)
@given(fractions_st, fractions_st)
def test_arithmetic_is_exact(p, r):
    assert (p + r) - r == p
    assert p.denominator > 0


def test_sign_affine():
    assert sign_affine(vector([1, 0]), Fraction(0), vector([0, 5])) == 0
    assert sign_affine(vector([1, 1]), Fraction(1), vector([1, 1])) == 1
    assert sign_affine(vector([1, 1]), Fraction(1), vector([0, 0])) == -1


def test_rational_round_trip():
    for text in ["3/4", "-7/5", "12", "0", "-3"]:
        assert format_rational(parse_rational(text)) == text
    assert format_rational(Fraction(6, 8)) == "3/4"


@pytest.mark.parametrize("text", ["1e1000000", "0.5", "1_000", " 1", "1 ", "1/-2", "+", "/2",
                                  "1/2/3", "\u0663", "", "1/0"])
def test_parse_rational_refuses_other_forms_before_building_a_fraction(monkeypatch, text):
    def no_fraction(*args):
        raise AssertionError(f"Fraction built from {text!r}")

    if text != "1/0":  # well-formed, refused by Fraction's zero division
        monkeypatch.setattr(rational, "Fraction", no_fraction)
    with pytest.raises(ValueError, match=re.escape(f"not a rational literal: {text!r}")):
        parse_rational(text)


def test_parse_rational_names_a_long_value_by_its_start_and_length():
    with pytest.raises(ValueError, match=re.escape("not a rational literal: " + repr("9" * 39 + "x"))):
        parse_rational("9" * 39 + "x")  # 40 characters, shown whole
    with pytest.raises(ValueError) as refused:
        parse_rational("9" * 40 + "x")
    assert str(refused.value) == f"not a rational literal: {'9' * 20!r}... (41 characters)"


def test_parse_rational_reads_signed_integers_and_quotients():
    assert [parse_rational(t) for t in ["+4", "-0", "007", "-6/4", "+1/3"]] == [
        4, 0, 7, Fraction(-3, 2), Fraction(1, 3)]


def test_decimal_display_six_digits_half_even():
    assert decimal_display(Fraction(26, 15)) == "1.733333"
    assert decimal_display(Fraction(17, 10)) == "1.700000"
    assert decimal_display(Fraction(1, 2), places=0) == "0"   # round half even
    assert decimal_display(Fraction(3, 2), places=0) == "2"


square_systems = st.integers(1, 4).flatmap(
    lambda d: st.tuples(
        st.lists(st.lists(fractions_st, min_size=d, max_size=d), min_size=d, max_size=d),
        st.lists(fractions_st, min_size=d, max_size=d),
    )
)


@settings(deadline=None, max_examples=80)
@given(square_systems)
def test_integer_core_agrees_with_cramer(system):
    rows, rhs = system
    solved = solve_integer_system([integer_row((*row, y)) for row, y in zip(rows, rhs)])
    det = cofactor_determinant(rows)
    if det == 0:
        assert solved is None
        return
    numerators, denominator = solved
    assert denominator > 0
    assert gcd(denominator, *numerators) == 1
    for i in range(len(rows)):
        replaced = [row[:i] + [y] + row[i + 1:] for row, y in zip(rows, rhs)]
        assert Fraction(numerators[i], denominator) == cofactor_determinant(replaced) / det


@settings(deadline=None, max_examples=40)
@given(
    st.lists(st.integers(-30, 30), min_size=3, max_size=3),
    st.lists(st.integers(-30, 30), min_size=3, max_size=3),
    st.integers(-5, 5),
    st.integers(-5, 5),
    st.lists(st.integers(-30, 30), min_size=3, max_size=3),
)
def test_integer_core_returns_none_on_singular(u, v, s, t, rhs):
    dependent = [s * a + t * b for a, b in zip(u, v)]
    rows = [(*u, rhs[0]), (*v, rhs[1]), (*dependent, rhs[2])]
    assert solve_integer_system(rows) is None
    assert solve_integer_system([rows[2], rows[0], rows[1]]) is None


def test_integer_core_lowest_terms_and_shapes():
    # 2x = 1, 4y = -2 in unreduced form: x = 1/2, y = -1/2
    assert solve_integer_system([(4, 0, 2), (0, -8, 4)]) == ((1, -1), 2)
    assert solve_integer_system([(-3, 6)]) == ((-2,), 1)
    assert solve_integer_system([]) == ((), 1)
    with pytest.raises(DimensionMismatchError):
        solve_integer_system([(1, 2), (3, 4)])


@settings(deadline=None, max_examples=60)
@given(st.lists(fractions_st, min_size=1, max_size=5).filter(any))
def test_integer_row_is_a_positive_coprime_multiple(values):
    ints = integer_row(values)
    assert gcd(*ints) == 1
    ratios = {Fraction(i) / v for i, v in zip(ints, values) if v != 0}
    assert len(ratios) == 1 and ratios.pop() > 0
    assert all(i == 0 for i, v in zip(ints, values) if v == 0)
