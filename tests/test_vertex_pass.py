"""The one-pass vertex kernel against its retained references.

* The prefix-shared elimination of `_solve_subsets` must yield the same
  stream as `solve_integer_system` run on each d-subset by itself, and stop
  with the same witness and reason, also on rows with zero leading entries
  (which force column pivots) and on dependent rows (singular prefixes).
* `Vertex.steps` must equal the steps built from the line orders sorted
  over the Fraction points (`oracle_vertices.line_orders`), on the verify
  instances, on large constructions and on random rational arrangements,
  also after relabelling and reorientation, which moves each step with its
  hyperplane: reorienting k swaps the two sides of k and negates up.
* An arrangement whose first three subsets hit the three defects in turn
  must report the first of them, as the subset-by-subset oracle does.
"""

import itertools
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from arrangement_lab.arrangement import (
    Arrangement,
    SimplicityReport,
    _solve_subsets,
    check_simple,
    enumerate_vertices,
    hyperplane,
)
from arrangement_lab.constructions import build, build_ao2, build_ao3, build_cyclic_star
from arrangement_lab.errors import NotSimpleError
from arrangement_lab.rational import solve_integer_system
from arrangement_lab.verify import default_instances
from oracle_vertices import enumerate_vertices_by_fractions, line_steps_from_orders
from test_vertices_oracle import outcome


# ---------------------------------------------------------------------------
# the solve stream
# ---------------------------------------------------------------------------

def stream(solve, rows, d):
    """(the (subset, point) pairs solved, then the report and message of
    the NotSimpleError that stopped them, or None)."""
    solved = []
    try:
        solve(rows, d, solved)
    except NotSimpleError as exc:
        return solved, (exc.report, str(exc))
    return solved, None


def not_simple(witness, reason):
    return NotSimpleError(f"arrangement is not simple: {reason}",
                          report=SimplicityReport(False, witness, reason))


def solve_each_subset(rows, d, solved):
    """The reference: every d-subset solved on its own, in lex order."""
    if len(rows) < d + 1:
        raise not_simple(None, f"need at least {d + 1} hyperplanes, got {len(rows)}")
    seen = {}
    for subset in itertools.combinations(range(len(rows)), d):
        point = solve_integer_system([rows[i] for i in subset])
        if point is None:
            raise not_simple(subset, "hyperplanes do not meet in a single point")
        if point in seen:
            raise not_simple(subset, f"intersection point coincides with subset {seen[point]}")
        seen[point] = subset
        solved.append((subset, point))


# entries are often zero, so pivots land in later columns
entries = st.one_of(st.just(0), st.just(0), st.integers(-6, 6))


@st.composite
def integer_row_sets(draw):
    d = draw(st.integers(1, 5))
    n = draw(st.integers(d + 1, d + 4))
    rows = [tuple(draw(entries) for _ in range(d + 1)) for _ in range(n)]
    # some rows depend on earlier ones, which makes prefixes singular
    for k in range(n):
        if k >= 2 and draw(st.integers(0, 3)) == 0:
            i, j = draw(st.integers(0, k - 1)), draw(st.integers(0, k - 1))
            s, t = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
            rows[k] = tuple(s * a + t * b for a, b in zip(rows[i], rows[j]))
    return rows, d


@settings(deadline=None, max_examples=150)
@given(integer_row_sets())
def test_prefix_elimination_equals_per_subset_solves(case):
    rows, d = case
    assert stream(_solve_subsets, rows, d) == stream(solve_each_subset, rows, d)


def test_prefix_elimination_reports_the_first_leaf_of_a_singular_prefix():
    # rows 0 and 1 have parallel normals, so the prefix (0, 1) is singular
    # before any third row is reduced; its first leaf (0, 1, 2) is reported
    rows = [(0, 1, 0, 2), (0, 2, 0, 5), (1, 0, 0, 1), (0, 0, 1, 3), (1, 1, 1, 7)]
    solved, (rep, _) = stream(_solve_subsets, rows, 3)
    assert solved == [] and rep.witness == (0, 1, 2)
    assert stream(_solve_subsets, rows, 3) == stream(solve_each_subset, rows, 3)


# ---------------------------------------------------------------------------
# the steps
# ---------------------------------------------------------------------------

def assert_lines_match_oracle(arr):
    vertices = enumerate_vertices(arr)
    assert [v.steps for v in vertices] == line_steps_from_orders(arr, vertices)


@pytest.mark.parametrize("key", default_instances(), ids=str)
def test_verify_instances_lines_match_oracle(key):
    assert_lines_match_oracle(build(*key).arrangement)


@pytest.mark.parametrize(
    "built",
    [build_ao2(40), build_ao3(16), build_cyclic_star(2, 12), build_cyclic_star(3, 10),
     build_cyclic_star(4, 10), build_cyclic_star(5, 11), build_cyclic_star(6, 12)],
    ids=lambda b: f"{b.family}-{b.d}-{b.n}",
)
def test_large_constructions_lines_match_oracle(built):
    assert_lines_match_oracle(built.arrangement)


coefficients = st.builds(Fraction, st.integers(-40, 40), st.integers(2, 9))


def move(arr, order, flipped):
    """`arr` with hyperplane order[k] at position k, reoriented if in `flipped`."""
    moved = []
    for i in order:
        h = arr.hyperplanes[i]
        sign = -1 if i in flipped else 1
        moved.append(hyperplane([sign * c for c in h.a], sign * h.b))
    return Arrangement(arr.dim, tuple(moved))


@st.composite
def relabelled_arrangements(draw):
    """A random rational arrangement, and the same hyperplanes permuted by
    `order` with those in `flipped` reoriented."""
    d = draw(st.integers(2, 5))
    n = draw(st.integers(d + 1, d + 3))
    normals = st.lists(coefficients, min_size=d, max_size=d).filter(any)
    arr = Arrangement(d, tuple(hyperplane(draw(normals), draw(coefficients)) for _ in range(n)))
    order = draw(st.permutations(range(n)))
    flipped = draw(st.sets(st.integers(0, n - 1)))
    return arr, move(arr, order, flipped), order, flipped


@settings(deadline=None, max_examples=60)
@given(relabelled_arrangements())
def test_random_arrangements_lines_match_oracle(case):
    arr, moved, order, flipped = case
    assume(check_simple(arr).is_simple)
    assert_lines_match_oracle(arr)
    assert_lines_match_oracle(moved)

    # relabelling and reorientation keep every point, so the neighbours of
    # a vertex on each line are the same points in both; reorienting the
    # dropped hyperplane swaps its sides and negates up
    before, after = enumerate_vertices(arr), enumerate_vertices(moved)
    position = {i: k for k, i in enumerate(order)}
    by_tight = {v.tight_set: v for v in after}

    def point(vertices, vid):
        return None if vid is None else vertices[vid].point

    for v in before:
        w = by_tight[tuple(sorted(position[i] for i in v.tight_set))]
        assert w.point == v.point
        assert all(w.sign_vector[position[i]] == (-s if i in flipped else s)
                   for i, s in enumerate(v.sign_vector))
        for i, (minus, plus, up) in zip(v.tight_set, v.steps):
            moved_minus, moved_plus, moved_up = w.steps[w.tight_set.index(position[i])]
            if i in flipped:
                moved_minus, moved_plus, moved_up = moved_plus, moved_minus, -moved_up
            assert (point(after, moved_minus), point(after, moved_plus), moved_up) == \
                (point(before, minus), point(before, plus), up)


# ---------------------------------------------------------------------------
# defects in subset order
# ---------------------------------------------------------------------------

def test_first_defect_in_subset_order_is_reported():
    # lines 0 and 1 meet at P = (1, 2); line 2 is parallel to line 0 and
    # line 3 passes through P.  Subset (0, 1) has an extra line, (0, 2) is
    # singular and (0, 3) repeats P: the solve pass stops at (0, 2), and the
    # extra line on (0, 1) must still be the error.
    arr = Arrangement(2, (
        hyperplane([1, 1], 3), hyperplane([1, -1], -1),
        hyperplane([2, 2], 7), hyperplane([3, 1], 5),
    ))
    with pytest.raises(NotSimpleError) as err:
        enumerate_vertices(arr)
    assert err.value.report.witness == (0, 1, 3)
    assert err.value.report.reason == "point of subset (0, 1) lies on extra hyperplanes [3]"
    assert outcome(enumerate_vertices, arr) == outcome(enumerate_vertices_by_fractions, arr)
    # the simplicity check alone reports the singular pair, as before
    assert check_simple(arr).witness == (0, 2)
