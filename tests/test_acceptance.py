"""Acceptance gate: one test per criterion, every comparison exact.

Run as `pytest tests/test_acceptance.py -v -s` for the per-criterion lines.

Three sub-checks of criterion 6 are provably unattainable and are kept as
strict xfails rather than weakened:

  * the plane rows (2,6) and (2,8): a prism over a 1-simplex *is* a square,
    the same cell the cubical count books, so the disjoint prism tally
    (n-d)(n-d-1) double-counts (the true quadrilateral count is C(n-2,2)),
    and the lower bound derived from that tally overshoots the true average
    diameter (e.g. 14/5 > 8/5 at (2,6));
  * the counts-sum-to-I check at n = 2d for d in {4,5}: from dimension 4 on,
    cells outside the simplex, prism and cube classes exist (18 of the 35
    cells at (4,8): six Δ2×Δ2 and twelve Δ2×Δ1×Δ1), so simplices + prisms
    + cubes < I; equality holds only through dimension 3.
"""

from fractions import Fraction
from math import comb

import pytest

from arrangement_lab.arrangement import enumerate_vertices
from arrangement_lab.cells import skeletons_for_cells
from arrangement_lab.census import cube_count, prism_count, simplex_count
from arrangement_lab.constructions import build
from arrangement_lab.cli import main as cli_main
from arrangement_lab.verify import (
    P6_GRID,
    RANDOM_2D_POOL,
    RANDOM_3D_POOL,
    RANDOM_COEFF_BOUND,
    construction_census,
    default_instances,
    delta_formula_2d,
    delta_formula_3d,
    expected_census_2d,
    expected_census_3d,
    expected_census_dplus2,
    hirsch_bound,
    prop4_upper_bound,
    prop6_lower_bound,
    prop7_lower_bound,
    verify_proposition,
)


def _identity_holds(report) -> bool:
    rhs = Fraction(2 * report.f_bounded - report.f_external - report.p_odd, 2)
    return report.cell_count * report.delta == rhs


def test_criterion_1_ao2_census_and_delta():
    for n in range(4, 13):
        report = construction_census("ao2", 2, n, None, None)
        assert report.class_counts == expected_census_2d(n), f"census at n={n}"
        assert report.delta == delta_formula_2d(n), f"delta at n={n}"
    assert construction_census("ao2", 2, 7, None, None).delta == Fraction(26, 15)
    print("\nACCEPTANCE criterion 1: PASS — ao2 census and delta, n=4..12")


def test_criterion_2_identity_and_components():
    for n in range(4, 13):
        report = construction_census("ao2", 2, n, None, None)
        assert report.f_bounded == n * (n - 2), f"f1 at n={n}"
        assert report.f_external == 2 * (n - 1), f"f1_external at n={n}"
        expected_p_odd = n - 2 if n % 2 == 0 else n - 1
        assert report.p_odd == expected_p_odd, f"p_odd at n={n}"
        assert _identity_holds(report), f"identity at n={n}"
    assert len(RANDOM_2D_POOL) == 50
    for n, seed in RANDOM_2D_POOL:
        assert n <= 8
        report = construction_census("random", 2, n, seed, RANDOM_COEFF_BOUND)
        assert _identity_holds(report), f"identity of random seed={seed}"
        assert report.delta <= delta_formula_2d(n), f"delta of random seed={seed}"
        assert simplex_count(report) >= n - 2, f"triangles of random seed={seed}"
    print("ACCEPTANCE criterion 2: PASS — 2D identity and components, "
          "ao2 n=4..12 plus 50 random instances")


def test_criterion_3_ao3_census_and_delta():
    for n in range(5, 11):
        if n == 6:
            continue
        report = construction_census("ao3", 3, n, None, None)
        assert report.class_counts == expected_census_3d(n), f"census at n={n}"
        assert report.delta == delta_formula_3d(n), f"delta at n={n}"
    assert construction_census("ao3", 3, 7, None, None).delta == Fraction(41, 20)
    # n = 6: enumeration against the closed form, with the documented
    # alternative value 1.8 attached as a note
    result = verify_proposition("P3", n=6)
    assert result.passed
    assert result.computed["delta"] == Fraction(19, 10)
    joined = " ".join(result.notes)
    assert "19/10" in joined and "1.8" in joined
    print("ACCEPTANCE criterion 3: PASS — ao3 census and delta, n=5..10 "
          "(n=6 delta matches the closed form; discrepancy note attached)")


def test_criterion_4_three_dimensional_bounds():
    instances = [("ao3", 3, n, None, None) for n in range(5, 10)]
    assert len(RANDOM_3D_POOL) == 20
    instances += [
        ("random", 3, n, seed, RANDOM_COEFF_BOUND) for n, seed in RANDOM_3D_POOL
    ]
    for family, d, n, seed, bound in instances:
        assert n <= 9 if family == "ao3" else n <= 7
        report = construction_census(family, d, n, seed, bound)
        label = f"{family} n={n} seed={seed}"
        assert report.delta <= prop4_upper_bound(n), label
        for rec in report.records:
            assert rec.diameter <= (2 * rec.facet_count) // 3 - 1, label
        assert report.f_bounded == n * comb(n - 2, 2), label
        assert Fraction(report.f_external) >= Fraction(n * (n - 2), 3) + 2, label
        assert simplex_count(report) >= n - 3, label
    print("ACCEPTANCE criterion 4: PASS — 3D bound, per-cell bound, facet "
          "counts, simplex floor on ao3 n=5..9 plus 20 random instances")


def test_criterion_5_dplus2_grid():
    for d in range(2, 7):
        report = construction_census("cyclic", d, d + 2, None, None)
        assert report.cell_count == d + 1, f"I at d={d}"
        assert report.delta == Fraction(2 * d, d + 1), f"delta at d={d}"
        assert report.class_counts == expected_census_dplus2(d), f"census at d={d}"
    print("ACCEPTANCE criterion 5: PASS — d+2 hyperplane grid, d=2..6")


def test_criterion_6_cyclic_star_counts_and_bounds():
    for d, n in P6_GRID:
        report = construction_census("cyclic", d, n, None, None)
        assert cube_count(report) == comb(n - d, d), f"cubes at ({d},{n})"
        assert simplex_count(report) == n - d, f"simplices at ({d},{n})"
        if d >= 3:
            assert prism_count(report) == (n - d) * (n - d - 1), f"prisms at ({d},{n})"
            bound = max(prop6_lower_bound(d, n), prop7_lower_bound(d, n))
            assert report.delta >= bound, f"delta bound at ({d},{n})"
            total = simplex_count(report) + prism_count(report) + cube_count(report)
            assert total <= report.cell_count, f"class sum at ({d},{n})"
        else:
            # only the cubical-cell consequence survives in the plane
            assert report.delta >= prop6_lower_bound(d, n), f"delta bound at ({d},{n})"
    report = construction_census("cyclic", 3, 6, None, None)
    assert simplex_count(report) + prism_count(report) + cube_count(report) == 10
    print("ACCEPTANCE criterion 6: PASS — cyclic-star counts and bounds "
          "(plane prism tally and d>=4 sum checks tracked as strict xfails)")


@pytest.mark.xfail(
    strict=True,
    reason="in the plane a simplex prism is a square, already booked as a "
    "cubical cell; the disjoint tally (n-d)(n-d-1) double-counts (true "
    "quadrilateral count is C(n-2,2))",
)
@pytest.mark.parametrize("n", [6, 8])
def test_criterion_6_prism_tally_in_the_plane(n):
    report = construction_census("cyclic", 2, n, None, None)
    print(f"ACCEPTANCE criterion 6 (plane prism tally, n={n}): FAIL expected "
          f"— documented degeneracy")
    assert prism_count(report) == (n - 2) * (n - 3)


@pytest.mark.xfail(
    strict=True,
    reason="the sharper lower bound counts cubes and prisms as disjoint "
    "classes, which fails in the plane where they coincide",
)
@pytest.mark.parametrize("n", [6, 8])
def test_criterion_6_delta_max_bound_in_the_plane(n):
    report = construction_census("cyclic", 2, n, None, None)
    bound = max(prop6_lower_bound(2, n), prop7_lower_bound(2, n))
    print(f"ACCEPTANCE criterion 6 (plane max bound, n={n}): FAIL expected "
          f"— documented degeneracy")
    assert report.delta >= bound


@pytest.mark.xfail(
    strict=True,
    reason="from dimension 4 on, cells outside the simplex, prism and cube "
    "classes appear (18 of 35 cells at (4,8): 6 Δ2×Δ2 and 12 Δ2×Δ1×Δ1), so "
    "simplices+prisms+cubes < I even at n=2d",
)
@pytest.mark.parametrize("d,n", [(4, 8), (5, 10)])
def test_criterion_6_counts_sum_to_cells_at_twice_d(d, n):
    report = construction_census("cyclic", d, n, None, None)
    total = simplex_count(report) + prism_count(report) + cube_count(report)
    print(f"ACCEPTANCE criterion 6 (sum at n=2d, d={d}): FAIL expected "
          f"— documented degeneracy")
    assert total == report.cell_count


def test_criterion_7_structural_universals():
    checked = 0
    for family, d, n, seed, bound in default_instances():
        report = construction_census(family, d, n, seed, bound)
        label = f"{family} d={d} n={n} seed={seed}"
        assert report.vertex_count == comb(n, d), label
        assert report.cell_count == comb(n - 1, d), label
        arr = build(family, d, n, seed, bound).arrangement
        vertices = enumerate_vertices(arr)
        for rec, adj in zip(report.records, skeletons_for_cells(report.records, vertices, d, n)):
            assert all(len(nbrs) == d for nbrs in adj.values()), label
            assert 2 * rec.edge_count == sum(map(len, adj.values())), label
            assert rec.diameter >= 1 or rec.vertex_count == 1, label
            if d == 3:
                assert rec.vertex_count - rec.edge_count + rec.facet_count == 2, label
        assert simplex_count(report) >= n - d, label
        if d in (2, 3):
            assert report.delta <= hirsch_bound(d, n), label
        checked += 1
    assert checked >= 90
    print(f"ACCEPTANCE criterion 7: PASS — structural universals on "
          f"{checked} instances")


def test_criterion_8_deterministic_summaries(tmp_path):
    first = tmp_path / "one.json"
    second = tmp_path / "two.json"
    code1 = cli_main(["verify", "--prop", "all", "--out", str(first)])
    code2 = cli_main(["verify", "--prop", "all", "--out", str(second)])
    assert code1 == code2 == 0
    assert first.read_bytes() == second.read_bytes()
    print("ACCEPTANCE criterion 8: PASS — byte-identical verify summaries")
