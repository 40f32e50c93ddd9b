#!/usr/bin/env python3
"""Compare two source trees on the benchmark, in concurrent pairs.

Usage:
    python scripts/bench_pairs.py BASE CHANGE [--seeds 1-10] [--seconds S]
                                  [--workload NAME ...]

BASE and CHANGE are checkouts of the repository, for example an exported
copy of the parent commit and the working tree.  For each workload and seed
the two trees run `perfbench/run.py` at the same time, one process each, so
both sides of a pair see the same phase of the machine.  Each run lasts
`--seconds`, by default BENCHMARK.json's `run_seconds`, the length of the
benchmark's own runs.  BASE is started first in even-numbered pairs and
CHANGE in odd-numbered ones, so the start order does not favour either
side.  For every end-to-end metric of BENCHMARK.json (read from CHANGE) the
script prints each pair's ratio CHANGE / BASE, each side's median and
quartiles, how many pairs CHANGE won, and whether the gap between the
medians exceeds BASE's interquartile range.  Two verdicts follow for each metric and workload:
"gain holds" when CHANGE won at least 9 of every 10 pairs and its median is
better by more than that range, and "worse than bound" when its median is
worse than BASE's by more than the metric's BENCHMARK.json bound.

Exit codes: 0 when every run was correct, 1 when a run failed or reported
incorrect outputs, 2 when a tree has no src/arrangement_lab or the
arguments are invalid.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path


def parse_seeds(spec: str) -> list[int]:
    """"1-10" or "1,4,7" (or a mix) as a list of seeds."""
    seeds: list[int] = []
    for chunk in spec.split(","):
        lo, _, hi = chunk.strip().partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    if not seeds or min(seeds) < 0:
        raise ValueError(f"no non-negative seeds in {spec!r}")
    return seeds


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as `perfbench/spread.py` computes them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def summarise(base: list[float], change: list[float], better: str,
              bound: float | None = None) -> dict:
    """Pairwise comparison of one metric; `better` is "higher" or "lower",
    `bound` the relative worsening BENCHMARK.json allows it.

    "gain_holds": CHANGE won at least 9 of every 10 pairs and its median is
    better than BASE's by more than BASE's interquartile range.
    "worse_than_bound": CHANGE's median is worse than BASE's by more than
    `bound` times BASE's median (None without a bound)."""
    ratios = [c / b for b, c in zip(base, change)]
    if better == "higher":
        wins = sum(c > b for b, c in zip(base, change))
    else:
        wins = sum(c < b for b, c in zip(base, change))
    base_q = quartiles(base)
    change_q = quartiles(change)
    gain = change_q[1] - base_q[1] if better == "higher" else base_q[1] - change_q[1]
    iqr = base_q[2] - base_q[0]
    return {
        "ratios": ratios,
        "ratio_median": statistics.median(ratios),
        "base": base_q,
        "change": change_q,
        "wins": wins,
        "pairs": len(ratios),
        "gap_exceeds_base_iqr": abs(change_q[1] - base_q[1]) > iqr,
        "gain_holds": 10 * wins >= 9 * len(ratios) and gain > iqr,
        "worse_than_bound": None if bound is None else -gain > bound * abs(base_q[1]),
    }


def yes_no(flag: bool) -> str:
    return "yes" if flag else "no"


def pair_order(index: int, base: Path, change: Path) -> list[tuple[str, Path]]:
    """The two sides of pair `index` in the order they are started: BASE
    first when the index is even, CHANGE first when it is odd."""
    sides = [("base", base), ("change", change)]
    return sides if index % 2 == 0 else sides[::-1]


def run_one(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds)],
        cwd=tree, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{tree} {workload} seed {seed} exited {proc.returncode}:\n"
                           f"{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{tree} {workload} seed {seed}: outputs not correct")
    return {name: m["value"] for name, m in result["metrics"].items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=None,
                        help="run length of each side (default: BENCHMARK.json's run_seconds)")
    parser.add_argument("--workload", action="append", default=None)
    args = parser.parse_args(argv)

    for tree in (args.base, args.change):
        if not (tree / "src" / "arrangement_lab").is_dir():
            print(f"error: {tree} has no src/arrangement_lab", file=sys.stderr)
            return 2
    try:
        seeds = parse_seeds(args.seeds)
    except ValueError as exc:
        print(f"error: --seeds: {exc}", file=sys.stderr)
        return 2
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds

    failed = False
    with ThreadPoolExecutor(max_workers=2) as pool:
        for workload in workloads:
            runs: dict[str, list[dict]] = {"base": [], "change": []}
            for index, seed in enumerate(seeds):
                sides = {side: pool.submit(run_one, tree, workload, seed, seconds)
                         for side, tree in pair_order(index, args.base, args.change)}
                try:
                    results = {side: future.result() for side, future in sides.items()}
                except RuntimeError as exc:
                    print(f"error: {exc}", file=sys.stderr)
                    failed = True
                    continue
                for side, metrics in results.items():
                    runs[side].append(metrics)
                print(f"{workload} seed {seed}: " + "  ".join(
                    f"{m['name']} {results['base'][m['name']]:.4g} -> "
                    f"{results['change'][m['name']]:.4g}" for m in spec["end_to_end"]),
                    flush=True)
            if not runs["base"]:
                continue
            print(f"{workload}: {len(runs['base'])} pairs")
            for metric in spec["end_to_end"]:
                name = metric["name"]
                s = summarise([r[name] for r in runs["base"]],
                              [r[name] for r in runs["change"]], metric["better"],
                              metric.get("bound"))
                print(f"  {name:12s} ({metric['better']} is better) "
                      f"base {s['base'][1]:.5g} [{s['base'][0]:.5g}-{s['base'][2]:.5g}]  "
                      f"change {s['change'][1]:.5g} [{s['change'][0]:.5g}-{s['change'][2]:.5g}]  "
                      f"ratio median {s['ratio_median']:.3f} "
                      f"(range {min(s['ratios']):.3f}-{max(s['ratios']):.3f})  "
                      f"wins {s['wins']}/{s['pairs']}  "
                      f"gap > base IQR: {yes_no(s['gap_exceeds_base_iqr'])}")
                bound = "" if s["worse_than_bound"] is None else \
                    f"  worse than bound {metric['bound']}: {yes_no(s['worse_than_bound'])}"
                print(f"  {'':12s} gain holds: {yes_no(s['gain_holds'])}{bound}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
