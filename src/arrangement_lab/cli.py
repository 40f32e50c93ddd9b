"""Command-line interface: construct, random, analyze, verify, export.

Exit codes: 0 success (or all checks pass), 1 verification failure,
2 invalid input or parameters.  Output files are canonical JSON (or SVG/OFF
text) written atomically, so identical invocations give identical bytes.

`random`, `analyze`, `export` and `verify` solve C(n,d) vertices per
instance, and the cell pass looks up the 2^d cells at each of them.  So
before building anything they check both counts against a size budget
(`--max-vertices`, default `DEFAULT_MAX_VERTICES`, and `CELL_PASS_FACTOR`
times it for the lookups) and exit 2 above it.
"""

from __future__ import annotations

import argparse
import sys
from math import comb

from .census import census
from .constructions import build, random_simple_arrangement
from .errors import GenerationError, InputError, NotSimpleError
from .export import render_off, render_svg
from .jsonio import (
    _read_json,
    arrangement_to_obj,
    atomic_write_text,
    canonical_dumps,
    census_to_obj,
    check_writable,
    json_integer,
    load_arrangement,
    suite_to_obj,
)
from .rational import decimal_display, format_rational
from .verify import (
    RANDOM_2D_POOL,
    RANDOM_3D_POOL,
    RANDOM_COEFF_BOUND,
    run_suite,
    suite_instances,
)

# The largest C(n,d) vertex count an instance may have without --max-vertices.
DEFAULT_MAX_VERTICES = 1_000_000
# The cell pass may make this many C(n,d)*2^d lookups per vertex of the
# budget: 2^7, so every instance with d <= 7 under the vertex limit passes.
CELL_PASS_FACTOR = 2**7


def _add_size_budget(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--max-vertices", type=int, default=DEFAULT_MAX_VERTICES,
        help=f"refuse instances with more than this many vertices C(n,d), or more "
        f"than {CELL_PASS_FACTOR} times as many cell-pass lookups C(n,d)*2^d "
        f"(default {DEFAULT_MAX_VERTICES})",
    )


def _check_size(instance: str, n: int, d: int, limit: int) -> None:
    """Raise InputError when the instance has more than `limit` vertices, or
    its cell pass more than `CELL_PASS_FACTOR * limit` lookups; a negative n
    is left to the builder's own parameter check."""
    vertices = comb(max(n, 0), d)
    if vertices > limit:
        raise InputError(
            f"{instance} has C({n},{d}) = {vertices} vertices, above the limit of "
            f"{limit}; raise it with --max-vertices"
        )
    lookups = vertices << d
    if lookups > CELL_PASS_FACTOR * limit:
        raise InputError(
            f"{instance} has C({n},{d})*2^{d} = {lookups} cell-pass lookups, above the "
            f"limit of {CELL_PASS_FACTOR * limit} ({CELL_PASS_FACTOR} per vertex of the "
            "budget); raise it with --max-vertices"
        )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="arrangement-lab",
        description="Exact engine for simple hyperplane arrangements: "
        "construction, bounded-cell censuses, diameter statistics, checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_construct = sub.add_parser("construct", help="build a named family")
    p_construct.add_argument("--family", required=True, choices=("cyclic", "ao2", "ao3"))
    p_construct.add_argument("-d", type=int, default=None, help="dimension (cyclic only)")
    p_construct.add_argument("-n", type=int, required=True, help="number of hyperplanes")
    p_construct.add_argument("--out", required=True, help="output arrangement JSON")

    p_random = sub.add_parser("random", help="seeded random simple arrangement")
    p_random.add_argument("-d", type=int, required=True, choices=(2, 3))
    p_random.add_argument("-n", type=int, required=True)
    p_random.add_argument("--seed", type=int, required=True)
    p_random.add_argument("--bound", type=int, default=RANDOM_COEFF_BOUND)
    p_random.add_argument("--out", required=True)
    _add_size_budget(p_random)

    p_analyze = sub.add_parser("analyze", help="census and diameter statistics")
    p_analyze.add_argument("input", help="arrangement JSON file")
    p_analyze.add_argument("--report", default=None, help="write the census JSON here")
    p_analyze.add_argument("--cells", action="store_true", help="include per-cell records")
    _add_size_budget(p_analyze)

    p_verify = sub.add_parser("verify", help="run the verification suite")
    p_verify.add_argument(
        "--prop", action="append", required=True,
        help="P1..P7, H, S or all (repeatable)",
    )
    p_verify.add_argument("--range", dest="range_spec", default=None,
                          help='grid override, e.g. "n=4..12" or "d=2..6"')
    p_verify.add_argument("--seeds", default=None,
                          help="JSON file overriding the random pools")
    p_verify.add_argument("--out", default=None, help="write the summary JSON here")
    _add_size_budget(p_verify)

    p_export = sub.add_parser("export", help="render SVG (d=2) or OFF (d=3)")
    p_export.add_argument("input")
    p_export.add_argument("--format", required=True, choices=("svg", "off"))
    p_export.add_argument("--out", required=True)
    p_export.add_argument("--cell", default=None, help="cell signature for OFF export")
    _add_size_budget(p_export)

    return parser


def _parse_range(spec: str) -> dict[str, range]:
    ranges: dict[str, range] = {}
    for chunk in spec.split(","):
        chunk = chunk.strip()
        key, _, value = chunk.partition("=")
        key, value = key.strip(), value.strip()
        if key not in ("n", "d") or not value:
            raise InputError(f'malformed range chunk {chunk!r}; use "n=4..12" or "d=2..6"')
        try:
            lo, hi = value.split("..", 1) if ".." in value else (value, value)
            ranges[key] = range(int(lo), int(hi) + 1)
        except ValueError as exc:
            raise InputError(f"malformed range bounds in {chunk!r}") from exc
        if not ranges[key]:
            raise InputError(f"empty range {chunk!r}")
    return ranges


def _pool(obj: dict, key: str, default) -> tuple[tuple[int, int], ...]:
    """The [n, seed] pairs of one pool, each a JSON integer as given."""
    return tuple(
        (json_integer(n, f"{key} pool n"), json_integer(seed, f"{key} pool seed"))
        for n, seed in obj.get(key, default)
    )


def _load_pools(path: str):
    try:
        obj = _read_json(path)
        if not isinstance(obj, dict):
            raise TypeError('top level must be an object with "d2" and/or "d3" pools')
        d2 = _pool(obj, "d2", RANDOM_2D_POOL)
        d3 = _pool(obj, "d3", RANDOM_3D_POOL)
    except (OSError, ValueError, TypeError) as exc:
        raise InputError(f"cannot read seeds file {path}: {exc}") from exc
    return d2, d3


def _cmd_construct(args) -> int:
    built = build(args.family, args.d, args.n)
    text = canonical_dumps(arrangement_to_obj(built.arrangement, built.metadata()))
    atomic_write_text(args.out, text)
    print(
        f"{built.family}: n={built.n} d={built.d} "
        f"epsilon={format_rational(built.epsilon)} -> {args.out}"
    )
    return 0


def _cmd_random(args) -> int:
    _check_size(f"random d={args.d} n={args.n} seed={args.seed}", args.n, args.d,
                args.max_vertices)
    built = random_simple_arrangement(args.d, args.n, args.seed, args.bound)
    text = canonical_dumps(arrangement_to_obj(built.arrangement, built.metadata()))
    atomic_write_text(args.out, text)
    print(f"random: n={built.n} d={built.d} seed={built.seed} bound={built.bound} -> {args.out}")
    return 0


def _cmd_analyze(args) -> int:
    if args.report:
        check_writable(args.report)
    arr, metadata = load_arrangement(args.input)
    _check_size(args.input, arr.n, arr.dim, args.max_vertices)
    report = census(arr, metadata=metadata)
    print(
        f"n={report.n} d={report.dim} I={report.cell_count} "
        f"delta={format_rational(report.delta)} ({decimal_display(report.delta)})"
    )
    for cls, count in sorted(report.class_counts.items()):
        print(f"  {cls.label}: {count}")
    if args.report:
        atomic_write_text(
            args.report, canonical_dumps(census_to_obj(report, include_cells=args.cells))
        )
    return 0


def _cmd_verify(args) -> int:
    if args.out:
        check_writable(args.out)
    ranges = _parse_range(args.range_spec) if args.range_spec else None
    pools_2d, pools_3d = (RANDOM_2D_POOL, RANDOM_3D_POOL)
    if args.seeds:
        pools_2d, pools_3d = _load_pools(args.seeds)
    for family, d, n, seed, _ in suite_instances(args.prop, ranges, pools_2d, pools_3d):
        instance = f"{family} d={d} n={n}" + ("" if seed is None else f" seed={seed}")
        _check_size(instance, n, d, args.max_vertices)
    summary = run_suite(args.prop, ranges, pools_2d, pools_3d)
    for result in summary.results:
        params = " ".join(f"{k}={v}" for k, v in result.params.items())
        print(f"{result.prop} {params}: {result.verdict}")
        for note in result.notes:
            print(f"    note: {note}")
    print(f"all pass: {summary.all_pass}")
    if args.out:
        atomic_write_text(args.out, canonical_dumps(suite_to_obj(summary)))
    return 0 if summary.all_pass else 1


def _cmd_export(args) -> int:
    check_writable(args.out)
    arr, _ = load_arrangement(args.input)
    _check_size(args.input, arr.n, arr.dim, args.max_vertices)
    if args.format == "svg":
        if args.cell is not None:
            raise InputError("--cell applies only to --format off")
        text = render_svg(arr)
    else:
        if args.cell is None:
            raise InputError("OFF export requires --cell SIGNATURE")
        text = render_off(arr, args.cell)
    atomic_write_text(args.out, text)
    print(f"wrote {args.format} to {args.out}")
    return 0


_COMMANDS = {
    "construct": _cmd_construct,
    "random": _cmd_random,
    "analyze": _cmd_analyze,
    "verify": _cmd_verify,
    "export": _cmd_export,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except NotSimpleError as exc:
        witness = ""
        if exc.report is not None and exc.report.witness is not None:
            one_based = tuple(i + 1 for i in exc.report.witness)
            witness = f" (hyperplanes {one_based})"
        print(f"error: {exc}{witness}", file=sys.stderr)
        return 2
    except (ValueError, GenerationError) as exc:
        # InputError and the dimension/parameter errors all derive from
        # ValueError; GenerationError is the random generator out of attempts
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
