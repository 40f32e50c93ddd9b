"""Construction families: coordinates, epsilon rule, determinism, randoms."""

import re
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arrangement_lab.arrangement import (
    Arrangement,
    check_simple,
    enumerate_bounded_cells,
    enumerate_edges,
    enumerate_vertices,
)
from arrangement_lab.cells import build_cell_records, polygon, simplex, simplex_product
from arrangement_lab import constructions
from arrangement_lab.constructions import (
    SplitMix64,
    _extends_simply,
    build,
    build_ao2,
    build_ao3,
    build_cyclic_star,
    random_simple_arrangement,
)
from arrangement_lab.errors import InputError
from arrangement_lab.jsonio import arrangement_to_obj, canonical_dumps
from arrangement_lab.verify import RANDOM_2D_POOL, RANDOM_3D_POOL, RANDOM_COEFF_BOUND
from oracle_arithmetic import evaluate_sign, solve_by_echelon
from oracle_generation import extends_simply_by_subsets
from oracle_vertices import check_simple_by_fractions

ZERO = Fraction(0)


def on_plane(h, *coords):
    return evaluate_sign(h, tuple(Fraction(c) for c in coords)) == 0


def bounded_cells_of(arr):
    vertices = enumerate_vertices(arr)
    edges = enumerate_edges(arr, vertices)
    return vertices, edges, enumerate_bounded_cells(arr, vertices)


# ---------------------------------------------------------------------------
# coordinates pinned by the construction rules
# ---------------------------------------------------------------------------

def test_ao2_line_three_through_unit_intercepts():
    arr = build_ao2(7).arrangement
    h3 = arr.hyperplanes[2]
    assert on_plane(h3, 1, 0) and on_plane(h3, 0, 1)


def test_ao2_axes_and_last_line():
    built = build_ao2(6)
    arr = built.arrangement
    eps = built.epsilon
    assert on_plane(arr.hyperplanes[0], 5, 0)       # x1 axis
    assert on_plane(arr.hyperplanes[1], 0, -3)      # x2 axis
    for k in range(3, 6):
        h = arr.hyperplanes[k - 1]
        assert on_plane(h, 1 + (k - 3) * eps, 0)
        assert on_plane(h, 0, 1 - (k - 3) * eps)
    assert on_plane(arr.hyperplanes[5], 2, 0)
    assert on_plane(arr.hyperplanes[5], 0, 2 + eps)


def test_ao3_intercepts():
    built = build_ao3(7)
    arr, eps = built.arrangement, built.epsilon
    assert on_plane(arr.hyperplanes[0], 1, 2, 0)    # x3 = 0
    assert on_plane(arr.hyperplanes[1], 1, 0, 2)    # x2 = 0
    assert on_plane(arr.hyperplanes[2], 0, 1, 2)    # x1 = 0
    for k in range(4, 7):
        h = arr.hyperplanes[k - 1]
        assert on_plane(h, 1 + 2 * (k - 4) * eps, 0, 0)
        assert on_plane(h, 0, 1 + (k - 4) * eps, 0)
        assert on_plane(h, 0, 0, 1 - (k - 4) * eps)
    assert on_plane(arr.hyperplanes[6], 3, 0, 0)
    assert on_plane(arr.hyperplanes[6], 0, 2, 0)
    assert on_plane(arr.hyperplanes[6], 0, 0, 3 + eps)


def test_cyclic_star_first_slanted_plane_through_unit_points():
    arr = build_cyclic_star(3, 6).arrangement
    h4 = arr.hyperplanes[3]  # shift term vanishes at k = d+1
    assert on_plane(h4, 1, 0, 0) and on_plane(h4, 0, 1, 0) and on_plane(h4, 0, 0, 1)


def test_cyclic_star_coordinate_planes_ordering():
    arr = build_cyclic_star(4, 6).arrangement
    # plane k (1-based, k <= d) is x_{d+1-k} = 0
    for k in range(1, 5):
        axis = 4 - k
        point = [Fraction(1)] * 4
        point[axis] = ZERO
        assert evaluate_sign(arr.hyperplanes[k - 1], tuple(point)) == 0


@pytest.mark.parametrize("d, builder", [(2, build_ao2), (3, build_ao3)])
def test_ao_is_the_closed_cyclic_star(d, builder):
    for n in range(d + 2, d + 9):
        built = builder(n)
        star = build_cyclic_star(d, n)
        assert built.epsilon == star.epsilon
        assert built.arrangement.hyperplanes[:-1] == star.arrangement.hyperplanes[:-1]
        closing = built.arrangement.hyperplanes[-1]
        intercepts = [*range(d, 1, -1), d + built.epsilon]
        for axis, c in enumerate(intercepts):
            point = [0] * d
            point[axis] = c
            assert on_plane(closing, *point)


def test_build_picks_the_builder_of_each_family_name():
    assert build("ao2", None, 7) == build("ao2", 2, 7) == build_ao2(7)
    assert build("ao3", 3, 7) == build_ao3(7)
    assert build("cyclic", 4, 8) == build_cyclic_star(4, 8)
    assert build("random", 2, 6, 3, 100) == random_simple_arrangement(2, 6, 3, 100)


def test_epsilon_rule_and_recorded_bounds():
    assert build_ao2(7).epsilon == Fraction(1, 5)
    assert build_ao3(7).epsilon == Fraction(1, 4)
    assert build_cyclic_star(3, 8).epsilon == Fraction(1, 5)
    for n in range(4, 10):
        assert build_ao2(n).epsilon < Fraction(1, n - 3)
    for n in range(5, 10):
        assert build_ao3(n).epsilon < Fraction(1, n - 4)
    for d, n in [(2, 5), (3, 7), (4, 9)]:
        if n - d - 1 >= 1:
            assert build_cyclic_star(d, n).epsilon < Fraction(1, n - d - 1)


def test_parameter_validation():
    with pytest.raises(InputError):
        build_ao2(3)
    with pytest.raises(InputError):
        build_ao3(4)
    with pytest.raises(InputError):
        build_cyclic_star(1, 4)
    with pytest.raises(InputError):
        build_cyclic_star(3, 3)


def test_constructions_simple_across_grids():
    for n in range(4, 13):
        assert check_simple(build_ao2(n).arrangement).is_simple
    for n in range(5, 11):
        assert check_simple(build_ao3(n).arrangement).is_simple
    for d, n in [(2, 3), (2, 7), (3, 4), (4, 6), (5, 11), (6, 8)]:
        assert check_simple(build_cyclic_star(d, n).arrangement).is_simple


# ---------------------------------------------------------------------------
# small census facts tied to construction
# ---------------------------------------------------------------------------

def test_ao2_4_cells():
    arr = build_ao2(4).arrangement
    vertices, edges, cells = bounded_cells_of(arr)
    records = build_cell_records(arr, vertices, [c.signature for c in cells])
    classes = sorted(r.cell_class for r in records)
    assert classes == [polygon(3), polygon(3), polygon(4)]
    assert Fraction(sum(r.diameter for r in records), len(records)) == Fraction(4, 3)


def test_cyclic_star_25_counts():
    arr = build_cyclic_star(2, 5).arrangement
    vertices, edges, cells = bounded_cells_of(arr)
    assert len(vertices) == 10
    assert len(cells) == comb(4, 2)


def test_ao2_first_lines_form_smaller_star():
    # dropping the closing line leaves n-3 triangles and C(n-3,2) squares
    for n in (6, 8):
        full = build_ao2(n).arrangement
        prefix = Arrangement(2, full.hyperplanes[: n - 1])
        vertices, edges, cells = bounded_cells_of(prefix)
        records = build_cell_records(prefix, vertices, [c.signature for c in cells])
        triangles = sum(1 for r in records if r.cell_class == polygon(3))
        squares = sum(1 for r in records if r.cell_class == polygon(4))
        assert triangles == n - 3
        assert squares == comb(n - 3, 2)
        assert triangles + squares == len(records)


def test_cyclic_star_without_second_plane():
    for d, n in [(2, 6), (3, 7)]:
        full = build_cyclic_star(d, n).arrangement
        dropped = Arrangement(
            d, full.hyperplanes[:1] + full.hyperplanes[2:]
        )
        assert check_simple(dropped).is_simple
        _, _, cells = bounded_cells_of(dropped)
        assert len(cells) == comb(n - 2, d)


# ---------------------------------------------------------------------------
# random arrangements
# ---------------------------------------------------------------------------

def test_splitmix_reference_values():
    # first outputs for seed 0 of the standard 64-bit split-mix sequence
    stream = SplitMix64(0)
    assert stream.next_u64() == 0xE220A8397B1DCDAF
    assert stream.next_u64() == 0x6E789E6AA1B965F4


def test_random_arrangement_counts_and_determinism():
    built = random_simple_arrangement(2, 5, seed=1)
    vertices, edges, cells = bounded_cells_of(built.arrangement)
    assert len(vertices) == 10 and len(cells) == 6
    again = random_simple_arrangement(2, 5, seed=1)
    assert built.arrangement == again.arrangement
    text1 = canonical_dumps(arrangement_to_obj(built.arrangement, built.metadata()))
    text2 = canonical_dumps(arrangement_to_obj(again.arrangement, again.metadata()))
    assert text1 == text2


@settings(deadline=None, max_examples=30)
@given(st.integers(0, 10_000), st.integers(2, 3), st.integers(4, 9))
def test_random_arrangements_are_simple_by_fractions(seed, d, n):
    # generation carries no final simplicity check; an independent one agrees
    arr = random_simple_arrangement(d, n, seed=seed).arrangement
    assert check_simple_by_fractions(arr).is_simple


def test_random_35_census_is_forced():
    # every simple arrangement of five planes has the same combinatorial type
    built = random_simple_arrangement(3, 5, seed=7)
    arr = built.arrangement
    vertices, edges, cells = bounded_cells_of(arr)
    records = build_cell_records(arr, vertices, [c.signature for c in cells])
    counts = {}
    for rec in records:
        counts[rec.cell_class] = counts.get(rec.cell_class, 0) + 1
    assert counts == {simplex(3): 2, simplex_product(1, 2): 2}


def test_random_parameter_validation():
    with pytest.raises(InputError, match=re.escape("random arrangement requires d >= 2")):
        random_simple_arrangement(1, 8, seed=0)
    with pytest.raises(InputError):
        random_simple_arrangement(2, 5, seed=0, bound=5)
    with pytest.raises(InputError):
        random_simple_arrangement(2, 2, seed=0)


@pytest.mark.parametrize("seed", [-1, 2**64], ids=["minus-one", "two-to-the-64"])
def test_random_refuses_a_seed_outside_the_generator_range(seed):
    # SplitMix64 keeps seed mod 2^64, so -1 would build seed 2^64 - 1's
    # arrangement and 2^64 seed 0's, under another name
    with pytest.raises(InputError, match=re.escape(f"seed must lie in [0, 2^64), got {seed}")):
        random_simple_arrangement(2, 5, seed=seed)
    random_simple_arrangement(2, 5, seed=2**64 - 1)


def test_random_seeds_differ():
    a = random_simple_arrangement(2, 5, seed=1).arrangement
    b = random_simple_arrangement(2, 5, seed=2).arrangement
    assert a != b


# ---------------------------------------------------------------------------
# the candidate check against its retained reference
# ---------------------------------------------------------------------------

# entries are often zero, so pivots land in later columns
entries = st.one_of(st.just(0), st.integers(-5, 5))


@st.composite
def candidate_streams(draw):
    """d and up to 14 candidate rows: plain draws, combinations of earlier
    candidates (dependent normals) and rows through a point the earlier
    candidates already meet in (repeated points)."""
    d = draw(st.integers(2, 4))
    rows = []
    for _ in range(draw(st.integers(1, 14 - 3 * (d - 2)))):
        kind = draw(st.integers(0, 3)) if len(rows) >= d else 0
        if kind == 1:
            i, j = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, len(rows) - 1))
            s, t = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
            rows.append(tuple(s * a + t * b for a, b in zip(rows[i], rows[j])))
        elif kind == 2:
            # a row through the point of d earlier rows, if they meet in one
            subset = draw(st.lists(st.sampled_from(rows), min_size=d, max_size=d))
            point = solve_by_echelon(subset)
            a = [draw(entries) for _ in range(d)]
            if point is None:
                rows.append((*a, draw(entries)))
            else:
                p, q = point
                rows.append((*(c * q for c in a), sum(c * x for c, x in zip(a, p))))
        else:
            rows.append(tuple(draw(entries) for _ in range(d + 1)))
    return d, rows


@settings(deadline=None, max_examples=200)
@given(candidate_streams())
def test_extends_simply_decides_as_solving_each_subset(case):
    # each candidate is offered to both checks over the same accepted rows;
    # they must agree on the verdict and leave the same points behind, and
    # a refused candidate must leave the points as they were
    d, candidates = case
    existing, points, reference = [], set(), set()
    for candidate in candidates:
        before = set(points)
        verdict = _extends_simply(existing, candidate, d, points)
        assert verdict == extends_simply_by_subsets(existing, candidate, d, reference)
        assert points == reference
        if verdict:
            existing.append(candidate)
        else:
            assert set(points) == before


def test_random_pools_are_built_as_by_the_reference(monkeypatch):
    # the 70 default pool arrangements and a few larger ones are the ones
    # the per-subset check builds; bound 10 forces redraws (56 at n = 40)
    keys = ([(2, n, seed, RANDOM_COEFF_BOUND) for n, seed in RANDOM_2D_POOL]
            + [(3, n, seed, RANDOM_COEFF_BOUND) for n, seed in RANDOM_3D_POOL]
            + [(2, 30, 0, 100), (3, 12, 0, 100), (2, 40, 0, 10), (3, 14, 1, 10)])
    built = [random_simple_arrangement(*key).arrangement for key in keys]
    monkeypatch.setattr(constructions, "_extends_simply", extends_simply_by_subsets)
    assert built == [random_simple_arrangement(*key).arrangement for key in keys]

