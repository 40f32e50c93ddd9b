#!/usr/bin/env python3
"""Run the benchmark on seeds 1-10 and report how steady it is.

    python3 perfbench/spread.py

Runs every workload of BENCHMARK.json, one benchmark process at a time, each
with the BENCHMARK.json run length.  For every end-to-end metric it prints
the median, the quartiles (statistics.quantiles, n=4) and the spread
(Q3 - Q1) / median beside the metric's bound.  One traced run per workload at
seed 0 adds the per-layer metrics.  The figures and the machine they were
measured on are written to perfbench/baseline.json.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "perfbench" / "run.py"
OUT = ROOT / "perfbench" / "baseline.json"
SEEDS = range(1, 11)
TRACE_SEED = 0


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    started = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    if proc.stderr.strip():
        print(proc.stderr.rstrip(), file=sys.stderr)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["elapsed_s"] = time.perf_counter() - started
    return result


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except OSError:
        return "unknown"
    return proc.stdout.strip() or "unknown"


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {
        "machine": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "cpu": cpu_model(),
            "git_commit": git_commit(),
            "ARRANGEMENT_LAB_THREADS": "set (the benchmark removes it)"
            if "ARRANGEMENT_LAB_THREADS" in os.environ else "unset",
        },
        "run_seconds": spec["run_seconds"],
        "seeds": list(SEEDS),
        "workloads": {},
    }
    worst = 0.0
    for workload in (w["name"] for w in spec["workloads"]):
        values: dict[str, list[float]] = {name: [] for name in bounds}
        elapsed = []
        for seed in SEEDS:
            result = run_once(workload, seed, spec["run_seconds"], 0)
            if not result["correct"] or result["failed"]:
                print(f"{workload} seed {seed}: INCORRECT {result}", file=sys.stderr)
                return 1
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            elapsed.append(result["elapsed_s"])
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v[-1]:.4g}" for k, v in values.items())
                + f" (run took {elapsed[-1]:.1f} s)", flush=True)
        entry = {"run_elapsed_s": elapsed}
        for name, vals in values.items():
            q1, median, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / median
            entry[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread,
                           "bound": bounds[name], "values": vals}
            if name != "setup_s":
                worst = max(worst, spread / bounds[name])
            print(f"  {name:12s} median {median:.5g}  q1 {q1:.5g}  q3 {q3:.5g}  "
                  f"spread {spread:.4f}  bound {bounds[name]}  bound/3 {bounds[name] / 3:.4f}")
        traced = run_once(workload, TRACE_SEED, spec["run_seconds"], 1)
        entry["traced_seed"] = TRACE_SEED
        entry["traced_metrics"] = {k: v["value"] for k, v in traced["metrics"].items()}
        entry["trace.overhead_ratio"] = entry["traced_metrics"]["trace.overhead_ratio"]
        entry["traced_correct"] = traced["correct"]
        entry["traced_run_elapsed_s"] = traced["elapsed_s"]
        print(f"  trace.overhead_ratio {entry['trace.overhead_ratio']:.4f} "
              f"(traced run took {traced['elapsed_s']:.1f} s, correct={traced['correct']})")
        report["workloads"][workload] = entry
    print(f"largest spread as a share of its bound (setup_s excluded): {worst:.3f}")
    OUT.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
