"""Mechanical verification of the census formulas, identities and bounds.

Check ids (the CLI vocabulary):

  P1  census and average diameter of the ao2 family
  P2  the 2D edge-counting identity and the optimality components
  P3  census and average diameter of the ao3 family
  P4  3D upper bound, per-cell bound, facet counts, simplex floor
  P5  arrangements with d+2 hyperplanes: census and delta = 2d/(d+1)
  P6  cubical-cell count of the cyclic star and its diameter consequence
  P7  simplex and simplex-prism counts of the cyclic star, sharper bound
  H   the conditional bound delta <= d + 2d/(n-1), tested for d in {2,3}
  S   simplex floor: every simple arrangement has >= n-d simplex cells

Every comparison is an exact rational or integer equality/inequality; there
are no tolerances anywhere in this module.  No check writes its verdict: one
rule, `VerificationResult.passed`, reads it off the result's own `expected`
and `computed`, so every verdict in a summary JSON can be recomputed from it.

The random pools are one mapping from dimension to [n, seed] pairs,
`RANDOM_POOLS` (d = 2 and 3) by default; `verify --seeds` adds or replaces
pools in any d >= 2.  P2 reads the d = 2 pool and P4 the d = 3 pool, H the
default instances in d = 2 and 3, and S every default instance.

Each gridded check (P1-P7) is declared once, in `_GRIDDED`.  `_plan` checks
every grid point against its check's condition before the CLI's size budget
or any census sees it; `run_suite` and `verify_proposition` both run its rows.

The P7 grid starts at d = 3.  A plane row runs only through `--range`
(`verify --prop P7 --range d=2,n=6`), and it fails: in the plane, a prism
over a 1-simplex *is* a combinatorial square, i.e. the same cell the
cubical count already books, so the disjoint tally (n-d)(n-d-1)
double-counts and the derived lower bound overshoots.  The verifier reports
the honest counts with an explanatory note instead of asserting the
degenerate claim.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import takewhile
from math import comb
from typing import Callable, Iterator, Mapping, NamedTuple, Optional, Sequence

from .cells import CellClass, cube, polygon, shell, simplex, simplex_product
from .census import (
    CensusReport,
    census,
    cube_count,
    prism_count,
    simplex_count,
)
from .constructions import RANDOM_COEFF_BOUND, SplitMix64, build
from .errors import InputError

# Documented random pools: seeds 0..k-1, n cycling through the small range.
RANDOM_2D_POOL: tuple[tuple[int, int], ...] = tuple((4 + s % 5, s) for s in range(50))
RANDOM_3D_POOL: tuple[tuple[int, int], ...] = tuple((5 + s % 3, s) for s in range(20))
Pools = Mapping[int, Sequence[tuple[int, int]]]  # dimension -> its [n, seed] pairs
RANDOM_POOLS: Pools = {2: RANDOM_2D_POOL, 3: RANDOM_3D_POOL}

P1_RANGE = tuple(range(4, 13))
P2_RANGE = tuple(range(4, 13))
P3_RANGE = tuple(range(5, 11))
P4_RANGE = tuple(range(5, 10))
P5_RANGE = tuple(range(2, 7))
P6_GRID = ((2, 6), (2, 8), (3, 6), (3, 8), (4, 8), (4, 9), (5, 10), (5, 11))
P7_GRID = tuple(pair for pair in P6_GRID if pair[0] >= 3)

PROP_IDS = ("P1", "P2", "P3", "P4", "P5", "P6", "P7", "H", "S")

Instance = tuple  # (family, d, n, seed, bound), the key of construction_census


class VerificationResult(NamedTuple):
    prop: str
    params: dict
    expected: dict
    computed: dict
    notes: list[str]

    @property
    def passed(self) -> bool:
        """Every expected `<key>_at_least` is at most computed `<key>`, and every
        other expected key that `computed` has is equal there; the rest is context."""
        return all(
            self.computed[key.removesuffix("_at_least")] >= value
            if key.endswith("_at_least") else self.computed.get(key, value) == value
            for key, value in self.expected.items()
        )

    @property
    def verdict(self) -> str:
        return "pass" if self.passed else "fail"


class SuiteSummary(NamedTuple):
    results: list[VerificationResult]
    pools: Pools   # the random pools that were used

    @property
    def all_pass(self) -> bool:
        return all(r.passed for r in self.results)


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def delta_formula_2d(n: int) -> Fraction:
    return 2 - Fraction(2 * ((n + 1) // 2), (n - 1) * (n - 2))


def delta_formula_3d(n: int) -> Fraction:
    return (
        3
        - Fraction(6, n - 1)
        + Fraction(6 * (n // 2 - 2), (n - 1) * (n - 2) * (n - 3))
    )


def prop4_upper_bound(n: int) -> Fraction:
    return 3 + Fraction(4 * (2 * n * n - 16 * n + 21), 3 * (n - 1) * (n - 2) * (n - 3))


def prop6_lower_bound(d: int, n: int) -> Fraction:
    return Fraction(d * comb(n - d, d), comb(n - 1, d))


def prop7_lower_bound(d: int, n: int) -> Fraction:
    return 1 + Fraction((d - 1) * comb(n - d, d) + (n - d) * (n - d - 1), comb(n - 1, d))


def hirsch_bound(d: int, n: int) -> Fraction:
    return d + Fraction(2 * d, n - 1)


def expected_census_2d(n: int) -> dict[CellClass, int]:
    counts: Counter[CellClass] = Counter()
    counts[polygon(3)] += n - 2
    counts[polygon(4)] += (n - 1) * (n - 4) // 2
    counts[polygon(n)] += 1
    return {cls: c for cls, c in counts.items() if c}


def expected_census_3d(n: int) -> dict[CellClass, int]:
    """Classifier-level census of the ao3 family: n-3 simplices,
    (n-3)(n-4)-1 prisms, C(n-3,3) cubes and one n-shell.  At n = 5 the shell
    has the prism's counts and is a prism combinatorially, so the
    classification precedence folds it into the product class."""
    counts: Counter[CellClass] = Counter()
    counts[simplex(3)] += n - 3
    counts[simplex_product(1, 2)] += (n - 3) * (n - 4) - 1
    counts[cube(3)] += comb(n - 3, 3)
    if n == 5:
        counts[simplex_product(1, 2)] += 1
    else:
        counts[shell(n)] += 1
    return {cls: c for cls, c in counts.items() if c}


def expected_census_dplus2(d: int) -> dict[CellClass, int]:
    """Two simplices plus a pair of each simplex product, the middle product
    once when d is even; in the plane these are two triangles and a square."""
    counts: Counter[CellClass] = Counter()
    counts[simplex(d)] += 2
    for k in range(1, d // 2 + 1):
        counts[simplex_product(k, d - k)] += 1 if (d % 2 == 0 and k == d // 2) else 2
    return dict(counts)


# ---------------------------------------------------------------------------
# cached construction censuses (pure in their arguments)
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def construction_census(
    family: str, d: int, n: int, seed: Optional[int], bound: Optional[int]
) -> CensusReport:
    built = build(family, d, n, seed, bound)
    return census(built.arrangement, metadata=built.metadata())


def default_instances(pools: Pools = RANDOM_POOLS) -> list[tuple]:
    """(family, d, n, seed, bound) keys of every default grid point that
    `_GRIDDED` declares and of the random pools, by dimension, each key
    once, in first-seen order."""
    instances = [key for spec in _GRIDDED.values() for point in spec.grid
                 for key in spec.keys(*point)]
    instances += [key for d in sorted(pools) for key in _pool_keys(d, pools[d])]
    return list(dict.fromkeys(instances))


def _pool_keys(d: int, pool: Sequence[tuple[int, int]]) -> list[Instance]:
    return [("random", d, n, seed, RANDOM_COEFF_BOUND) for n, seed in pool]


def _labels(counts: dict[CellClass, int]) -> dict[str, int]:
    return {cls.label: count for cls, count in sorted(counts.items())}


def _identity_residual(report: CensusReport) -> Fraction:
    """I*delta - (2 f1 - f1_0 - p_odd)/2; zero exactly when the identity holds."""
    rhs = Fraction(2 * report.f_bounded - report.f_external - report.p_odd, 2)
    return report.cell_count * report.delta - rhs


# ---------------------------------------------------------------------------
# result shapes
# ---------------------------------------------------------------------------

def _census_result(
    prop: str,
    params: dict,
    report: CensusReport,
    expected_counts: dict[CellClass, int],
    delta: Fraction,
    notes: Sequence[str] = (),
) -> VerificationResult:
    """Compare the census, delta and cell count C(n-1, d) of a report with
    their closed forms."""
    cell_count = comb(report.n - 1, report.dim)
    return VerificationResult(
        prop,
        params,
        {"census": _labels(expected_counts), "delta": delta, "cell_count": cell_count},
        {
            "census": _labels(report.class_counts),
            "delta": report.delta,
            "cell_count": report.cell_count,
        },
        list(notes),
    )


def _violations_result(
    prop: str,
    params: dict,
    failures: list[str],
    expected: Optional[dict] = None,
    computed: Optional[dict] = None,
) -> VerificationResult:
    """A check that counts its violations and notes the first ten; `expected`
    and `computed` add context keys beside the count."""
    return VerificationResult(
        prop,
        params,
        {"violations": 0, **(expected or {})},
        {"violations": len(failures), **(computed or {})},
        failures[:10],
    )


# ---------------------------------------------------------------------------
# the individual checks; each receives the censuses of its `_plan` keys
# ---------------------------------------------------------------------------

def _verify_p1(n: int, report: CensusReport) -> VerificationResult:
    return _census_result("P1", {"n": n}, report, expected_census_2d(n), delta_formula_2d(n))


def _verify_p2(n: int, report: CensusReport) -> VerificationResult:
    p_odd_expected = n - 2 if n % 2 == 0 else n - 1
    expected = {
        "delta": delta_formula_2d(n),
        "f1": n * (n - 2),
        "f1_external": 2 * (n - 1),
        "p_odd": p_odd_expected,
        "identity_residual": Fraction(0),
    }
    computed = {
        "delta": report.delta,
        "f1": report.f_bounded,
        "f1_external": report.f_external,
        "p_odd": report.p_odd,
        "identity_residual": _identity_residual(report),
    }
    return VerificationResult("P2", {"n": n}, expected, computed, [])


def _verify_p2_random(keys: Sequence[Instance], *reports: CensusReport) -> VerificationResult:
    """On each random 2D instance: the identity holds, delta never beats the
    ao2 value, the simplex floor holds and external edges are >= 2(n-1)."""
    failures: list[str] = []
    for (_, _, n, seed, _), report in zip(keys, reports):
        if _identity_residual(report) != 0:
            failures.append(f"identity n={n} seed={seed}")
        if report.delta > delta_formula_2d(n):
            failures.append(f"delta n={n} seed={seed}")
        if simplex_count(report) < n - 2:
            failures.append(f"triangles n={n} seed={seed}")
        if report.f_external < 2 * (n - 1):
            failures.append(f"external n={n} seed={seed}")
    return _violations_result("P2", {"pool": "random-2d", "instances": len(keys)}, failures)


def _verify_p3(
    n: int, report: CensusReport, star: Optional[CensusReport] = None
) -> VerificationResult:
    delta_expected = delta_formula_3d(n)
    if n == 6:
        # The closed form gives 19/10 at n = 6 while the independently
        # documented value is 1.8 = 9/5, which matches the cyclic-star
        # arrangement of six planes instead; report both, assert neither
        # census nor the 1.8.
        notes = [
            "n=6 closed form: 19/10; documented alternative value: 1.8 (= 9/5)",
            f"enumerated delta of the ao3 arrangement: {report.delta}",
            f"enumerated delta of the cyclic star with 6 planes: {star.delta}",
            f"enumerated ao3 census: {_labels(report.class_counts)}",
        ]
        result = VerificationResult(
            "P3",
            {"n": n},
            {"delta": delta_expected},
            {"delta": report.delta, "census": _labels(report.class_counts)},
            notes,
        )
        if not result.passed:
            result.notes.append("deviation: enumerated delta differs from the closed form")
        return result
    notes = []
    if n == 5:
        notes.append(
            "the 5-facet shell cell has a prism's counts and skeleton, so it is"
            " classified with the simplex products"
        )
    return _census_result("P3", {"n": n}, report, expected_census_3d(n), delta_expected, notes)


def _p4_checks(report: CensusReport) -> list[str]:
    n = report.n
    failures = []
    if report.delta > prop4_upper_bound(n):
        failures.append("delta exceeds the 3D upper bound")
    for i, rec in enumerate(report.records):
        if rec.diameter > (2 * rec.facet_count) // 3 - 1:
            failures.append(f"a cell exceeds floor(2F/3) - 1: cell {i} in --cells order"
                            f" has diameter {rec.diameter} and F = {rec.facet_count}")
            break
    if simplex_count(report) < n - 3:
        failures.append("fewer than n-3 simplices")
    if report.f_bounded != n * comb(n - 2, 2):
        failures.append("f2 != n*C(n-2,2)")
    if Fraction(report.f_external) < Fraction(n * (n - 2), 3) + 2:
        failures.append("f2_external below n(n-2)/3 + 2")
    # the proof's chain, term by term
    total_diameter = sum(rec.diameter for rec in report.records)
    middle = sum((2 * rec.facet_count) // 3 - 1 for rec in report.records)
    right = Fraction(
        4 * report.f_bounded - 2 * report.f_external - n + 3 - 3 * report.cell_count, 3
    )
    if not (total_diameter <= middle and Fraction(middle) <= right):
        failures.append("inequality chain broken")
    return failures


def _verify_p4(n: int, report: CensusReport) -> VerificationResult:
    return _violations_result(
        "P4",
        {"n": n},
        _p4_checks(report),
        expected={"upper_bound": prop4_upper_bound(n)},
        computed={
            "delta": report.delta,
            "f2": report.f_bounded,
            "f2_external": report.f_external,
            "simplices": simplex_count(report),
        },
    )


def _verify_p4_random(keys: Sequence[Instance], *reports: CensusReport) -> VerificationResult:
    failures: list[str] = []
    for (_, _, n, seed, _), report in zip(keys, reports):
        for what in _p4_checks(report):
            failures.append(f"n={n} seed={seed}: {what}")
    return _violations_result("P4", {"pool": "random-3d", "instances": len(keys)}, failures)


def _verify_p5(d: int, report: CensusReport) -> VerificationResult:
    return _census_result(
        "P5", {"d": d, "n": d + 2}, report, expected_census_dplus2(d), Fraction(2 * d, d + 1)
    )


def _verify_p6(d: int, n: int, report: CensusReport) -> VerificationResult:
    expected = {"cubical_cells": comb(n - d, d), "delta_at_least": prop6_lower_bound(d, n)}
    computed = {"cubical_cells": cube_count(report), "delta": report.delta}
    notes = []
    if d == 2:
        notes.append("in the plane the cubical cells are the quadrilaterals")
    return VerificationResult("P6", {"d": d, "n": n}, expected, computed, notes)


def _verify_p7(d: int, n: int, report: CensusReport) -> VerificationResult:
    expected = {
        "simplices": n - d,
        "simplex_prisms": (n - d) * (n - d - 1),
        "delta_at_least": prop7_lower_bound(d, n),
    }
    computed = {
        "simplices": simplex_count(report),
        "simplex_prisms": prism_count(report),
        "delta": report.delta,
    }
    notes = []
    if d == 2:
        notes.append(
            "degenerate in the plane: a prism over a 1-simplex is a square, the"
            " same cell the cubical count books, so the disjoint tally"
            " (n-d)(n-d-1) double-counts and the bound overshoots; the honest"
            " counts are reported instead"
        )
    return VerificationResult("P7", {"d": d, "n": n}, expected, computed, notes)


def _verify_hirsch(keys: Sequence[Instance], *reports: CensusReport) -> VerificationResult:
    failures = [f"{family} d={d} n={n} seed={seed}"
                for (family, d, n, seed, _), report in zip(keys, reports)
                if report.delta > hirsch_bound(d, n)]
    return _violations_result("H", {"instances": len(keys)}, failures)


def _verify_simplex_floor(keys: Sequence[Instance], *reports: CensusReport) -> VerificationResult:
    failures = [f"{family} d={d} n={n} seed={seed}"
                for (family, d, n, seed, _), report in zip(keys, reports)
                if simplex_count(report) < n - d]
    return _violations_result("S", {"instances": len(keys)}, failures)


# ---------------------------------------------------------------------------
# the gridded checks, declared once
# ---------------------------------------------------------------------------

class _Gridded(NamedTuple):
    """A check over a grid of points, run as check(*point, *reports), where
    the reports are the censuses of keys(*point)."""
    check: Callable[..., VerificationResult]
    names: tuple[str, ...]              # the parameters, which are also the --range keys
    grid: tuple[tuple[int, ...], ...]   # the default points
    admits: Callable[..., bool]         # the parameter condition ...
    condition: str                      # ... and the InputError message when it fails
    keys: Callable[..., list[Instance]]


# tuple(zip(r)) turns a range of values into its one-parameter points
_GRIDDED = {
    "P1": _Gridded(_verify_p1, ("n",), tuple(zip(P1_RANGE)), lambda n: n >= 4,
                   "P1 requires n >= 4", lambda n: [("ao2", 2, n, None, None)]),
    "P2": _Gridded(_verify_p2, ("n",), tuple(zip(P2_RANGE)), lambda n: n >= 4,
                   "P2 requires n >= 4", lambda n: [("ao2", 2, n, None, None)]),
    # at n = 6 the note also reads the cyclic star of six planes
    "P3": _Gridded(_verify_p3, ("n",), tuple(zip(P3_RANGE)), lambda n: n >= 5,
                   "P3 requires n >= 5", lambda n: [("ao3", 3, n, None, None)]
                   + [("cyclic", 3, 6, None, None)] * (n == 6)),
    "P4": _Gridded(_verify_p4, ("n",), tuple(zip(P4_RANGE)), lambda n: n >= 5,
                   "P4 requires n >= 5 (the bound fails below that: a lone"
                   " simplex already beats it at n = 4)", lambda n: [("ao3", 3, n, None, None)]),
    "P5": _Gridded(_verify_p5, ("d",), tuple(zip(P5_RANGE)), lambda d: d >= 2,
                   "P5 requires d >= 2", lambda d: [("cyclic", d, d + 2, None, None)]),
    "P6": _Gridded(_verify_p6, ("d", "n"), P6_GRID, lambda d, n: d >= 2 and n >= 2 * d,
                   "P6 requires d >= 2 and n >= 2d", lambda d, n: [("cyclic", d, n, None, None)]),
    "P7": _Gridded(_verify_p7, ("d", "n"), P7_GRID, lambda d, n: d >= 2 and n >= 2 * d,
                   "P7 requires d >= 2 and n >= 2d", lambda d, n: [("cyclic", d, n, None, None)]),
}


def _grid(prop: str, ranges: Optional[dict]) -> Iterator[tuple[int, ...]]:
    """The points of a gridded check, lazily: every combination of the
    ascending `ranges` values when they give each parameter, keeping n >= 2d
    of (d, n) pairs up to the first d over max(n)/2, else the default points
    whose values they admit; raises InputError when that leaves none."""
    spec = _GRIDDED[prop]
    given = [(ranges or {}).get(name) for name in spec.names]
    if not all(given):
        points = (p for p in spec.grid
                  if all(not values or v in values for v, values in zip(p, given)))
    elif len(given) == 1:
        points = zip(given[0])
    else:
        top = given[1][-1]
        points = ((d, n) for d in takewhile(lambda d: 2 * d <= top, given[0])
                  for n in given[1] if n >= 2 * d)
    count = 0
    for count, p in enumerate(points, 1):
        yield p
    if not count:
        # only a (d, n) grid can be left empty: a one-parameter range is never filtered
        raise InputError(f"--range leaves the {prop} grid empty: no (d, n) pair to check")


# ---------------------------------------------------------------------------
# public dispatch
# ---------------------------------------------------------------------------

def _check_keys(prop: str, keys) -> None:
    """Raise InputError at the first of `keys`, sorted, that `prop` does not take."""
    names = _GRIDDED[prop].names if prop in _GRIDDED else ()
    for key in sorted(keys):
        if key not in names:
            takes = " or ".join(names) or "no parameters"
            raise InputError(f"--range key {key!r} does not apply to {prop}, which takes {takes}")


def _plan(
    props: Sequence[str],
    ranges: Optional[dict],
    pools: Pools,
    point: Optional[tuple[int, ...]] = None,
) -> Iterator[tuple[Callable[..., VerificationResult], tuple, list[Instance]]]:
    """The checks `run_suite` makes, in order, as (check, arguments, the
    instances it censuses); `point` replaces the grid of the one gridded
    check selected.  Raises InputError on a bad selection, pool entry or
    grid point."""
    requested = {p.upper() for p in props}
    if "ALL" in requested:
        requested = set(PROP_IDS)
    unknown = requested - set(PROP_IDS)
    if unknown:
        raise InputError(f"unknown proposition ids: {sorted(unknown)}")
    if ranges and len(requested) != 1:
        raise InputError("--range requires exactly one proposition")
    if ranges and requested <= {"H", "S"}:
        raise InputError(
            "--range does not apply to H or S: they check the default instances"
            " built from the random pools in use"
        )
    if ranges:
        (prop,) = requested
        _check_keys(prop, ranges)
    for d, pool in pools.items():
        for n, seed in pool:
            if n < d + 1:
                raise InputError(f"random pool d{d} entry n={n} seed={seed}: needs n >= {d + 1}")
            if not 0 <= seed <= SplitMix64.MASK:
                raise InputError(f"random pool d{d} entry n={n} seed={seed}: "
                                 f"seeds lie in [0, 2^64)")

    instances = default_instances(pools)
    hirsch = [key for key in instances if key[1] in (2, 3)]
    # the checks that read a list of instances, each after its grid if it has one
    listed = {
        "P2": (_verify_p2_random, _pool_keys(2, pools.get(2, ()))),
        "P4": (_verify_p4_random, _pool_keys(3, pools.get(3, ()))),
        "H": (_verify_hirsch, hirsch),
        "S": (_verify_simplex_floor, instances),
    }
    for prop in (p for p in PROP_IDS if p in requested):
        spec = _GRIDDED.get(prop)
        if spec is not None:
            for p in [point] if point else _grid(prop, ranges):
                if not spec.admits(*p):
                    raise InputError(spec.condition)
                yield spec.check, p, spec.keys(*p)
        if prop in listed:
            check, keys = listed[prop]
            yield check, (keys,), keys


def _run(row: tuple) -> VerificationResult:
    check, args, keys = row
    return check(*args, *(construction_census(*key) for key in keys))


def verify_proposition(prop: str, **params) -> VerificationResult:
    """Run one check; raises InputError for an unknown id, a missing or bad
    parameter, and any key the check does not take."""
    prop = prop.upper()
    if prop not in PROP_IDS:
        raise InputError(f"unknown proposition id {prop!r}")
    spec = _GRIDDED.get(prop)
    try:
        point = tuple(int(params[name]) for name in (spec.names if spec else ()))
    except KeyError as exc:
        raise InputError(f"{prop} is missing parameter {exc}") from exc
    _check_keys(prop, params)
    # the first row is the check at `point`, or H or S; P2's and P4's pool rows follow it
    first, *_ = _plan([prop], None, RANDOM_POOLS, point)
    return _run(first)


def suite_instances(
    props: Sequence[str] = ("all",),
    ranges: Optional[dict] = None,
    pools: Pools = RANDOM_POOLS,
) -> Iterator[Instance]:
    """The (family, d, n, seed, bound) keys of every instance `run_suite`
    would census with these arguments, each once, in first-seen order,
    without building any of them; raises InputError as `run_suite` does."""
    seen = set()
    for _, _, keys in _plan(props, ranges, pools):
        for key in keys:
            if key not in seen:
                seen.add(key)
                yield key


def run_suite(
    props: Sequence[str] = ("all",),
    ranges: Optional[dict] = None,
    pools: Pools = RANDOM_POOLS,
) -> SuiteSummary:
    """Run the requested checks over their grids, in id order.

    `ranges` ({"n": [...]} and/or {"d": [...]}) restricts the grid and is only
    accepted when a single proposition other than H or S is selected, with
    keys that proposition takes (its parameter names), when it leaves at least
    one instance, and when every point it gives meets the check's condition;
    the default grids are the documented acceptance grids.
    The random pools, keyed by dimension, with coefficients bounded by
    RANDOM_COEFF_BOUND, feed P2 (d = 2), P4 (d = 3), H (d = 2 and 3) and S
    (every pool); H and S check them beside every default-grid construction.
    """
    plan = list(_plan(props, ranges, pools))  # raises before any census
    return SuiteSummary([_run(row) for row in plan], pools)
