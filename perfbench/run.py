#!/usr/bin/env python3
"""Benchmark of the arrangement-lab command line, end to end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload verify-suite --seed 0 --seconds 45 --trace 0

Workloads: verify-suite and analyze-ladder (see workloads.py).
The package is imported from ./src, so nothing needs installing.  One
process, no extra threads; ARRANGEMENT_LAB_THREADS is removed from the
environment before the package is imported.

--trace 0 reports the end-to-end metrics:
  setup_s      median time to import the package and write the workload's
               input files, over set-ups made before and between repetitions
  wall_s       median wall time of one timed repetition; repetitions run
               until --seconds have passed, each with an empty census cache
  cells_per_s  bounded cells of the distinct instances asked about, per
               wall second of one repetition
  peak_rss_mb  peak resident memory of this process
fail_ratio (failed / attempted operations) is printed with them; the last
line carries it as "failed" and "attempted".

--trace 1 runs the same untraced repetitions, then two traced repetitions,
and reports per-layer calls, inclusive and self time, item counts and
derived ratios (see tracer.py).  It also checks that
the two traced repetitions count exactly the same work, that every census
enumerates C(n,d) vertices, C(n-1,d) bounded cells and in 3D n*C(n-2,2)
bounded facets, and that the census cache misses equal the distinct keys
verify passed to it.  Spans go to .bench_out/trace-<workload>-seed<seed>.json.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
MODULES = ("cli", "verify", "census", "cells", "arrangement", "constructions",
           "jsonio", "export", "rational")

# A batch of set-ups runs before the first repetition and after each one, so
# the set-up samples span the whole run instead of its first second.
SETUP_BATCH_S = 0.25
TRACED_REPETITIONS = 2


def import_lab():
    """Import arrangement_lab afresh, so every set-up pays the import."""
    for name in [m for m in sys.modules if m.split(".")[0] == "arrangement_lab"]:
        del sys.modules[name]
    mods = {short: importlib.import_module(f"arrangement_lab.{short}") for short in MODULES}
    return argparse.Namespace(**mods)


def set_up(workload, times: list[float]):
    """Set the workload up from a fresh import, at least once and until
    SETUP_BATCH_S have passed; appends each set-up's time to `times` and
    returns the package of the last one."""
    started = time.perf_counter()
    while True:
        begin = time.perf_counter()
        lab = import_lab()
        workload.setup(lab)
        times.append(time.perf_counter() - begin)
        if time.perf_counter() - started >= SETUP_BATCH_S:
            return lab


def repeat(workload, lab, tracer=None, run_id=None):
    """One timed repetition, then its untimed check; returns the wall time,
    the repetition's state and the number of failed operations."""
    gc.collect()
    if tracer is not None:
        tracer.begin(run_id)
    begin = time.perf_counter()
    state = workload.repetition(lab)
    wall = time.perf_counter() - begin
    if tracer is not None:
        tracer.end()
    return wall, state, workload.check(lab, state)


def declared_metrics(key: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[key]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    if not (SRC / "arrangement_lab" / "__init__.py").is_file():
        print(f"error: no package source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    threads = os.environ.pop("ARRANGEMENT_LAB_THREADS", None)

    from tracer import Tracer, metric_units
    from workloads import WORKLOADS, SetupError

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        setups: list[float] = []
        walls = []
        failed = attempted = 0
        started = time.perf_counter()
        try:
            lab = set_up(workload, setups)
            while not walls or time.perf_counter() - started < args.seconds:
                wall, _, bad = repeat(workload, lab)
                walls.append(wall)
                failed += bad
                attempted += workload.ops_per_rep
                lab = set_up(workload, setups)
        except SetupError as exc:
            print(f"error: set-up failed: {exc}", file=sys.stderr)
            return 1
        setup_s = statistics.median(setups)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        wall_s = statistics.median(walls)

        problems = []
        if args.trace:
            tracer = Tracer()
            tracer.install(lab)
            runs, caches, traced = [], [], []
            try:
                for k in range(TRACED_REPETITIONS):
                    run_id = f"{args.workload}/seed{args.seed}/traced{k}"
                    wall, state, bad = repeat(workload, lab, tracer, run_id)
                    runs.append(run_id)
                    caches.append({"hits": state.get("hits", 0), "misses": state.get("misses", 0)})
                    traced.append(wall)
                    failed += bad
                    attempted += workload.ops_per_rep
            finally:
                tracer.uninstall()
            overhead = statistics.median(traced) / wall_s
            metrics = tracer.metrics(runs, caches, overhead)
            units = metric_units()
            problems += trace_problems(tracer, workload, runs, caches)
            tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.json",
                         {"workload": args.workload, "seed": args.seed})
            declared = declared_metrics("per_layer")
        else:
            metrics = {
                "setup_s": setup_s,
                "wall_s": wall_s,
                "cells_per_s": workload.cells / wall_s,
                "peak_rss_mb": peak_rss_mb,
            }
            units = {"setup_s": "s", "wall_s": "s", "cells_per_s": "1/s", "peak_rss_mb": "MB"}
            declared = declared_metrics("end_to_end")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if declared != units:
        print(f"error: metrics {sorted(units.items())} differ from BENCHMARK.json "
              f"{sorted(declared.items())}", file=sys.stderr)
        return 1
    for message in workload.problems + problems:
        print(f"problem: {message}", file=sys.stderr)

    print(f"{args.workload} seed={args.seed}: {len(setups)} set-ups, {len(walls)} repetitions, "
          f"wall_s each: {' '.join(f'{w:.3f}' for w in walls)}")
    print(f"nproc={os.cpu_count()} python={platform.python_version()} "
          f"ARRANGEMENT_LAB_THREADS={'set (removed)' if threads is not None else 'unset'}")
    for name, value in metrics.items():
        print(f"{name} {value} {units[name]}")
    print(f"fail_ratio {failed / attempted} ({failed}/{attempted} operations)")
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


def trace_problems(tracer, workload, runs, caches) -> list[str]:
    """Self-checks of the tracer against counts known independently."""
    problems = []
    first = tracer.counts(runs[0], caches[0])
    for run, cache in zip(runs[1:], caches[1:]):
        again = tracer.counts(run, cache)
        diff = sorted(k for k in first if first[k] != again[k])
        if diff:
            problems.append(f"traced repetitions counted different work in {diff}")
    for run in runs:
        problems += tracer.census_problems(run)
    if workload.name == "verify-suite":
        for run, cache in zip(runs, caches):
            raw, padded = tracer.census_keys(run)
            if cache["misses"] != len(raw):
                problems.append(f"census cache misses {cache['misses']} != {len(raw)} distinct "
                                "argument keys")
            calls = tracer.aggregate(run)["verify.construction_census"]["calls"]
            if cache["hits"] + cache["misses"] != calls:
                problems.append(f"census cache hits and misses do not add up to {calls} calls")
            if padded != workload.instances:
                problems.append(f"verify asked about {len(padded)} instances, the workload "
                                f"defines {len(workload.instances)}")
    return problems


if __name__ == "__main__":
    sys.exit(main())
