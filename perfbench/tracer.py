"""Per-layer tracing of arrangement_lab from outside the package.

The tracer replaces each listed public function with a wrapper at every
module binding (``census``, ``export``, ``constructions``, ``verify`` and
``cli`` import these functions by name, so patching only the defining module
would miss most calls).  Spanned functions record one span per call: name,
start, end, parent span and run id, kept in memory and written out once at
the end.  A span's self time is its duration minus the time covered by its
child spans and by the aggregated leaf calls made directly inside it.

The two arithmetic leaves, ``rational.solve_linear_system`` and
``rational.sign_affine``, are called hundreds of thousands of times per run,
so they are counted and timed in place instead of spanned; each span also
carries how many leaf calls happened under it (inclusive), which gives the
solves made while generating a random arrangement.
"""

from __future__ import annotations

import inspect
import json
import statistics
import sys
import time
from math import comb

# (module, function, reports .items because it returns a list)
SPANNED = (
    ("cli", "main", False),
    ("verify", "run_suite", False),
    ("verify", "construction_census", False),
    ("census", "census", False),
    ("cells", "build_cell_records", True),
    ("cells", "skeletons_for_cells", True),
    ("cells", "cell_diameter", False),
    ("cells", "classify_cell", False),
    ("arrangement", "check_simple", False),
    ("arrangement", "enumerate_vertices", True),
    ("arrangement", "enumerate_edges", True),
    ("arrangement", "enumerate_bounded_cells", True),
    ("arrangement", "enumerate_bounded_facets", True),
    ("arrangement", "restrict_to_hyperplane", False),
    ("constructions", "build_ao2", False),
    ("constructions", "build_ao3", False),
    ("constructions", "build_cyclic_star", False),
    ("constructions", "random_simple_arrangement", False),
    ("jsonio", "load_arrangement", False),
    ("jsonio", "canonical_dumps", False),
    ("jsonio", "atomic_write_text", False),
    ("export", "render_svg", False),
    ("export", "render_off", False),
)
LEAVES = (("rational", "solve_linear_system"), ("rational", "sign_affine"))
SOLVE = 0  # index of solve_linear_system in LEAVES

DERIVED = (
    ("verify.construction_census.hits", "count"),
    ("verify.construction_census.misses", "count"),
    ("verify.unique_census_ratio", "ratio"),
    ("rational.solve_linear_system.per_vertex", "ratio"),
    ("rational.sign_affine.per_vertex", "ratio"),
    ("constructions.random_simple_arrangement.solve_ratio", "ratio"),
    ("trace.overhead_ratio", "ratio"),
)


def metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units: dict[str, str] = {}
    for module, func, has_items in SPANNED:
        base = f"{module}.{func}"
        units[f"{base}.calls"] = "count"
        units[f"{base}.incl_s"] = "s"
        units[f"{base}.self_s"] = "s"
        if has_items:
            units[f"{base}.items"] = "count"
        if base == "jsonio.atomic_write_text":
            units[f"{base}.bytes"] = "bytes"
    for module, func in LEAVES:
        units[f"{module}.{func}.calls"] = "count"
        units[f"{module}.{func}.self_s"] = "s"
    units.update(DERIVED)
    return units


class Span:
    __slots__ = ("name", "index", "start", "end", "parent", "run", "covered",
                 "leaf_calls", "items", "attrs")

    def __init__(self, name, index, parent, run):
        self.name = name
        self.index = index
        self.start = self.end = 0.0
        self.parent = parent          # index into Tracer.spans, or None
        self.run = run
        self.covered = 0.0            # time of direct child spans and leaf calls
        self.leaf_calls = [0] * len(LEAVES)   # inclusive of descendants
        self.items = None
        self.attrs = None

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.covered


def _binder(fn):
    signature = inspect.signature(fn)

    def bind(args, kwargs) -> dict:
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments

    return bind


class Tracer:
    """Install with `install(lab)`, bracket each traced repetition with
    `begin(run_id)` / `end()`, then `uninstall()`."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._run = None
        self._restore: list[tuple] = []
        self.leaf_stats: dict[str, list] = {}   # run -> per leaf [calls, seconds]
        self._leaf_run: list = []

    # -- wrapping ---------------------------------------------------------

    def install(self, lab) -> None:
        replacements = {}
        for module, func, has_items in SPANNED:
            original = getattr(getattr(lab, module), func)
            replacements[id(original)] = (original, self._span_wrapper(
                f"{module}.{func}", original, has_items))
        for index, (module, func) in enumerate(LEAVES):
            original = getattr(getattr(lab, module), func)
            replacements[id(original)] = (original, self._leaf_wrapper(index, original))
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "arrangement_lab"
                                   or mod_name.startswith("arrangement_lab.")):
                continue
            for attr, value in list(vars(mod).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    self._restore.append((mod, attr, value))

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._restore):
            setattr(mod, attr, value)
        self._restore.clear()

    def _span_wrapper(self, name, fn, has_items):
        stack, spans, clock = self._stack, self.spans, time.perf_counter
        describe = _DESCRIBERS.get(name)
        bind = _binder(fn) if describe else None

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            span = Span(name, len(spans), None if parent is None else parent.index, self._run)
            spans.append(span)
            stack.append(span)
            result = None
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                span.end = clock()
                stack.pop()
                if has_items and isinstance(result, list):
                    span.items = len(result)
                if describe is not None:
                    span.attrs = describe(args, kwargs, bind(args, kwargs), result)
                if parent is not None:
                    parent.covered += span.end - span.start
                    for k, c in enumerate(span.leaf_calls):
                        parent.leaf_calls[k] += c

        wrapper.__wrapped__ = fn
        return wrapper

    def _leaf_wrapper(self, index, fn):
        stack, clock = self._stack, time.perf_counter

        def wrapper(*args):
            start = clock()
            result = fn(*args)
            elapsed = clock() - start
            stat = self._leaf_run[index]
            stat[0] += 1
            stat[1] += elapsed
            if stack:
                top = stack[-1]
                top.covered += elapsed
                top.leaf_calls[index] += 1
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- runs ---------------------------------------------------------------

    def begin(self, run_id: str) -> None:
        self._run = run_id
        self._leaf_run = [[0, 0.0] for _ in LEAVES]
        self.leaf_stats[run_id] = self._leaf_run

    def end(self) -> None:
        self._run = None

    # -- reporting ----------------------------------------------------------

    def aggregate(self, run_id: str) -> dict[str, dict]:
        """Per spanned name: calls, incl_s, self_s, items, bytes for one run."""
        table = {f"{m}.{f}": {"calls": 0, "incl_s": 0.0, "self_s": 0.0, "items": 0, "bytes": 0}
                 for m, f, _ in SPANNED}
        for span in self.spans:
            if span.run != run_id:
                continue
            row = table[span.name]
            row["calls"] += 1
            row["incl_s"] += span.end - span.start
            row["self_s"] += span.self_s
            row["items"] += span.items or 0
            if span.attrs and "bytes" in span.attrs:
                row["bytes"] += span.attrs["bytes"]
        return table

    def counts(self, run_id: str, cache: dict) -> dict:
        """Everything in a run that must repeat exactly in the next one."""
        table = self.aggregate(run_id)
        counts = {name: (row["calls"], row["items"], row["bytes"]) for name, row in table.items()}
        counts["leaves"] = tuple(stat[0] for stat in self.leaf_stats[run_id])
        counts["cache"] = (cache["hits"], cache["misses"])
        return counts

    def _spans(self, run_id, name):
        return [s for s in self.spans if s.run == run_id and s.name == name]

    def census_keys(self, run_id):
        """Raw argument keys of construction_census calls, and the same keys
        padded to all five parameters."""
        raw, padded = set(), set()
        for span in self._spans(run_id, "verify.construction_census"):
            raw.add(span.attrs["raw"])
            padded.add(span.attrs["padded"])
        return raw, padded

    def census_problems(self, run_id) -> list[str]:
        """Face counts under every census call must match the closed forms
        C(n,d) vertices, C(n-1,d) bounded cells and, in 3D, n*C(n-2,2)
        bounded facets."""
        children: dict[int, dict[str, int]] = {}
        for span in self.spans:
            if span.run == run_id and span.parent is not None \
                    and self.spans[span.parent].name == "census.census":
                children.setdefault(span.parent, {})[span.name] = span.items
        problems = []
        for span in self._spans(run_id, "census.census"):
            n, d = span.attrs["n"], span.attrs["d"]
            got = children.get(span.index, {})
            want = {
                "arrangement.enumerate_vertices": comb(n, d),
                "arrangement.enumerate_bounded_cells": comb(n - 1, d),
            }
            if d == 3:
                want["arrangement.enumerate_bounded_facets"] = n * comb(n - 2, 2)
            for name, value in want.items():
                if got.get(name) != value:
                    problems.append(f"census n={n} d={d}: {name} gave {got.get(name)}, want {value}")
        return problems

    def metrics(self, runs: list[str], caches: list[dict], overhead_ratio: float) -> dict:
        """Per-layer metrics: counts from the last run (they repeat exactly),
        times as the median over the traced runs."""
        tables = [self.aggregate(r) for r in runs]
        last = tables[-1]
        out: dict[str, float] = {}
        for module, func, has_items in SPANNED:
            name = f"{module}.{func}"
            out[f"{name}.calls"] = last[name]["calls"]
            out[f"{name}.incl_s"] = statistics.median(t[name]["incl_s"] for t in tables)
            out[f"{name}.self_s"] = statistics.median(t[name]["self_s"] for t in tables)
            if has_items:
                out[f"{name}.items"] = last[name]["items"]
            if name == "jsonio.atomic_write_text":
                out[f"{name}.bytes"] = last[name]["bytes"]
        for index, (module, func) in enumerate(LEAVES):
            out[f"{module}.{func}.calls"] = self.leaf_stats[runs[-1]][index][0]
            out[f"{module}.{func}.self_s"] = statistics.median(
                self.leaf_stats[r][index][1] for r in runs)

        run = runs[-1]
        cache = caches[-1]
        _, padded = self.census_keys(run)
        vertices = last["arrangement.enumerate_vertices"]["items"]
        generated = [s for s in self._spans(run, "constructions.random_simple_arrangement")
                     if s.attrs is not None]
        useful = sum(comb(s.attrs["n"], s.attrs["d"]) for s in generated)
        attempted = sum(s.leaf_calls[SOLVE] for s in generated)
        out["verify.construction_census.hits"] = cache["hits"]
        out["verify.construction_census.misses"] = cache["misses"]
        out["verify.unique_census_ratio"] = _ratio(len(padded), cache["misses"])
        out["rational.solve_linear_system.per_vertex"] = _ratio(
            out["rational.solve_linear_system.calls"], vertices)
        out["rational.sign_affine.per_vertex"] = _ratio(out["rational.sign_affine.calls"], vertices)
        out["constructions.random_simple_arrangement.solve_ratio"] = _ratio(useful, attempted)
        out["trace.overhead_ratio"] = overhead_ratio
        return out

    def write(self, path, header: dict) -> None:
        rows = [[s.name, s.start, s.end, s.parent, s.run, s.items] for s in self.spans]
        with open(path, "w") as handle:
            json.dump({**header, "fields": ["name", "start", "end", "parent", "run", "items"],
                       "spans": rows}, handle)


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def _census_key(args, kwargs, arguments, _result):
    # lru_cache keys on the arguments as passed, so ("ao2", 2, n) and
    # ("ao2", 2, n, None, None) are different entries; record both forms.
    return {"raw": (args, tuple(sorted(kwargs.items()))),
            "padded": tuple(arguments.values())}


def _census_attrs(_args, _kwargs, arguments, _result):
    arr = arguments["arr"]
    return {"n": arr.n, "d": arr.dim}


def _random_attrs(_args, _kwargs, arguments, result):
    if result is None:
        return None
    return {"n": arguments["n"], "d": arguments["d"]}


def _write_attrs(_args, _kwargs, arguments, _result):
    return {"bytes": len(arguments["text"].encode())}


_DESCRIBERS = {
    "verify.construction_census": _census_key,
    "census.census": _census_attrs,
    "constructions.random_simple_arrangement": _random_attrs,
    "jsonio.atomic_write_text": _write_attrs,
}
