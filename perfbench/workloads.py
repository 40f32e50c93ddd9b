"""The benchmark's two workloads.

Each workload drives the public CLI in-process (``arrangement_lab.cli.main``)
and checks every output it produces.  ``setup`` writes the input files,
``repetition`` is the timed part, ``check`` validates one repetition's outputs
(untimed) and returns how many of its operations failed.

* verify-suite: ``verify --prop all`` over 98 small instances (n <= 12,
  d = 2..6).  The only workload where verify's census cache and the
  per-census fixed costs (construction checks, simplicity checks) dominate.
  The seed reorders the random pools, which must not change the summary.
* analyze-ladder: ``analyze --cells`` on ao2(40), ao3(16) and cyclic(6,12),
  then SVG and OFF exports.  Few large structured instances, so the vertex,
  edge, facet (3D) and cell-classification (d = 6) kernels dominate and the
  verify cache does nothing.  The seed permutes hyperplane order and flips
  orientations, which must not change any count (a metamorphic check).

Random generation is measured inside verify-suite, whose pools draw 70
small random arrangements.

At seed 0 the documented inputs are used and the outputs must match the
SHA-256 digests recorded in expected.json byte for byte (a mismatch prints
the new digest; expected.json changes only with an intended output change);
verify-suite's summary must match at every seed.  At every seed the outputs
must satisfy the closed forms of the families.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import traceback
from collections import Counter
from fractions import Fraction
from math import comb
from pathlib import Path

EXPECTED = json.loads((Path(__file__).resolve().parent / "expected.json").read_text())


class SetupError(RuntimeError):
    """A set-up command failed, so the workload has no valid input."""


def invoke(lab, argv: list[str]) -> int:
    """Run one CLI command with its output captured; returns the exit code,
    or -1 when the command raised instead of exiting."""
    sink = io.StringIO()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            return lab.cli.main(argv)
    except SystemExit as exc:  # argparse rejects its arguments this way
        return exc.code if isinstance(exc.code, int) else 2
    except Exception:
        traceback.print_exc()
        return -1


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Workload:
    name = ""
    ops_per_rep = 0  # operations one repetition attempts

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.dir = workdir
        self.cells = 0          # sum of C(n-1, d) over the distinct instances asked about
        self.problems: list[str] = []

    def fail(self, message: str) -> None:
        self.problems.append(message)

    def digest_ok(self, label: str, path: Path, every_seed: bool = False) -> bool:
        if self.seed != 0 and not every_seed:
            return True
        want = EXPECTED["digests"][self.name].get(label)
        got = sha256(path)
        if got != want:
            self.fail(f"{label}: sha256 {got}, recorded {want}")
            return False
        return True


# ---------------------------------------------------------------------------

class VerifySuite(Workload):
    name = "verify-suite"
    ops_per_rep = 52  # the checks of verify --prop all

    def setup(self, lab) -> None:
        # Seed 0 gives the documented pools in their documented order; any
        # other seed shuffles them.  H and S always check the default
        # instances, so pools of other arrangements would add work on top of
        # them; a reordering asks about the same 98 instances at every seed.
        rng = random.Random(self.seed)
        d2 = list(lab.verify.RANDOM_2D_POOL)
        d3 = list(lab.verify.RANDOM_3D_POOL)
        if self.seed != 0:
            rng.shuffle(d2)
            rng.shuffle(d3)
        self.seeds_file = self.dir / "seeds.json"
        self.seeds_file.write_text(json.dumps({"d2": d2, "d3": d3}))
        self.instances = set(lab.verify.default_instances())
        self.cells = sum(comb(n - 1, d) for _, d, n, _, _ in self.instances)
        self.cache = lab.verify.construction_census
        self.out = self.dir / "summary.json"

    def repetition(self, lab) -> dict:
        # Each CLI invocation a user makes starts with an empty cache.
        self.cache.cache_clear()
        before = self.cache.cache_info()
        code = invoke(lab, ["verify", "--prop", "all", "--seeds", str(self.seeds_file),
                            "--out", str(self.out)])
        after = self.cache.cache_info()
        # counted across the call, so a cache_clear that clears nothing still shows
        return {"code": code, "hits": after.hits - before.hits,
                "misses": after.misses - before.misses}

    def check(self, lab, state: dict) -> int:
        everything = self.ops_per_rep
        if state["misses"] == 0:
            self.fail("cold-cache guard: a timed repetition made no census cache misses")
            return everything
        if state["code"] not in (0, 1):
            self.fail(f"verify exited {state['code']}")
            return everything
        try:
            summary = json.loads(self.out.read_text())
            results = summary["results"]
        except (OSError, ValueError, KeyError) as exc:
            self.fail(f"unreadable summary: {exc}")
            return everything
        if len(results) != self.ops_per_rep:
            self.fail(f"summary has {len(results)} checks, expected {self.ops_per_rep}")
            return everything
        pools = {r["params"].get("pool"): r["params"].get("instances") for r in results}
        if pools.get("random-2d") != 50 or pools.get("random-3d") != 20:
            self.fail(f"random pools were not the seeded ones: {pools}")
            return everything
        # the summary does not depend on the order of the pools
        if not self.digest_ok("summary.json", self.out, every_seed=True):
            return everything
        failed = [r for r in results if r["verdict"] != "pass"]
        for r in failed:
            self.fail(f"{r['prop']} {r['params']}: {r['verdict']} {r['notes']}")
        if (state["code"] == 0) != (not failed) or summary.get("all_pass") != (not failed):
            self.fail("exit code and all_pass disagree with the verdicts")
            return everything
        return len(failed)


# ---------------------------------------------------------------------------

def _negate(text: str) -> str:
    if text == "0":
        return text
    return text[1:] if text.startswith("-") else "-" + text


def census_profile(report: dict) -> dict:
    """The parts of a census report that relabelling and reorienting the
    hyperplanes must leave unchanged."""
    keys = ("I", "vertex_count", "delta", "class_counts", "f_bounded", "f_external", "p_odd")
    profile = {key: report[key] for key in keys}
    cells = Counter((c["V"], c["E"], c["F"], c["diameter"], c["class"]) for c in report["cells"])
    profile["cells"] = sorted([*key, count] for key, count in cells.items())
    return profile


class AnalyzeLadder(Workload):
    name = "analyze-ladder"
    ops_per_rep = 5  # three analyze commands and two exports
    INSTANCES = (  # (name, construct arguments, d, n)
        ("ao2", ["--family", "ao2", "-n", "40"], 2, 40),
        ("ao3", ["--family", "ao3", "-n", "16"], 3, 16),
        ("cyclic", ["--family", "cyclic", "-d", "6", "-n", "12"], 6, 12),
    )

    def setup(self, lab) -> None:
        rng = random.Random(self.seed)
        for name, args, d, n in self.INSTANCES:
            path = self.dir / f"{name}.json"
            if invoke(lab, ["construct", *args, "--out", str(path)]) != 0:
                raise SetupError(f"construct {name} failed")
            if self.seed == 0:
                continue
            obj = json.loads(path.read_text())
            planes = obj["hyperplanes"]
            rng.shuffle(planes)
            for plane in planes:
                if rng.random() < 0.5:
                    plane["a"] = [_negate(c) for c in plane["a"]]
                    plane["b"] = _negate(plane["b"])
            path.write_text(json.dumps(obj, indent=2))
        self.cells = sum(comb(n - 1, d) for _, _, d, n in self.INSTANCES)

    def repetition(self, lab) -> dict:
        codes = []
        for name, _, _, _ in self.INSTANCES:
            codes.append(invoke(lab, ["analyze", str(self.dir / f"{name}.json"), "--report",
                                      str(self.dir / f"{name}.census.json"), "--cells"]))
        codes.append(invoke(lab, ["export", str(self.dir / "ao2.json"), "--format", "svg",
                                  "--out", str(self.dir / "ao2.svg")]))
        cell = None
        if codes[1] == 0:  # the OFF export needs a cell from the ao3 report
            report = json.loads((self.dir / "ao3.census.json").read_text())
            cell = report["cells"][0]["signature"]
            codes.append(invoke(lab, ["export", str(self.dir / "ao3.json"), "--format", "off",
                                      f"--cell={cell}", "--out", str(self.dir / "ao3.off")]))
        else:
            codes.append(None)
        return {"codes": codes, "cell": cell}

    def check(self, lab, state: dict) -> int:
        oks = []
        reports = {}
        for (name, _, d, n), code in zip(self.INSTANCES, state["codes"]):
            ok = code == 0
            if ok:
                path = self.dir / f"{name}.census.json"
                reports[name] = json.loads(path.read_text())
                forms_ok = self._census_ok(lab, name, d, n, reports[name])
                ok = self.digest_ok(f"{name}.census.json", path) and forms_ok
            else:
                self.fail(f"analyze {name} exited {code}")
            oks.append(ok)
        svg_code, off_code = state["codes"][3:]
        svg_ok = svg_code == 0 and self._svg_ok(40) and \
            self.digest_ok("ao2.svg", self.dir / "ao2.svg")
        off_ok = off_code == 0 and "ao3" in reports and \
            self._off_ok(reports["ao3"], state["cell"]) and \
            self.digest_ok("ao3.off", self.dir / "ao3.off")
        if svg_code != 0 or off_code != 0:
            self.fail(f"exports exited {svg_code} (svg) and {off_code} (off)")
        oks += [svg_ok, off_ok]
        return oks.count(False)

    def _census_ok(self, lab, name, d, n, report) -> bool:
        verify, cells = lab.verify, lab.cells
        counts = report["class_counts"]
        want = {"I": comb(n - 1, d), "vertex_count": comb(n, d)}
        got = {"I": report["I"], "vertex_count": report["vertex_count"]}
        if name == "ao2":
            want["census"] = {c.label: k for c, k in verify.expected_census_2d(n).items()}
            want["delta"] = verify.delta_formula_2d(n)
            want["f1"] = n * (n - 2)
            got.update(census=counts, delta=Fraction(report["delta"]), f1=report["f_bounded"])
        elif name == "ao3":
            want["census"] = {c.label: k for c, k in verify.expected_census_3d(n).items()}
            want["delta"] = verify.delta_formula_3d(n)
            want["f2"] = n * comb(n - 2, 2)
            got.update(census=counts, delta=Fraction(report["delta"]), f2=report["f_bounded"])
        else:
            want["cubes"] = comb(n - d, d)
            want["simplices"] = n - d
            got["cubes"] = counts.get(cells.cube(d).label, 0)
            got["simplices"] = counts.get(cells.simplex(d).label, 0)
        ok = True
        if got != want:
            self.fail(f"{name}: closed forms {want}, got {got}")
            ok = False
        # relabelled and reoriented inputs must give the seed-0 answer
        reference = EXPECTED["reference"][name]
        profile = census_profile(report)
        if profile != reference:
            self.fail(f"{name}: census profile differs from seed 0: {json.dumps(profile)}")
            ok = False
        return ok

    def _svg_ok(self, n: int) -> bool:
        text = (self.dir / "ao2.svg").read_text()
        got = (text.count("<polygon "), text.count("<line "), text.count("<circle "))
        want = (comb(n - 1, 2), n, comb(n, 2))
        if got != want:
            self.fail(f"svg has (polygons, lines, vertices) {got}, want {want}")
            return False
        return True

    def _off_ok(self, report: dict, cell: str) -> bool:
        record = next(c for c in report["cells"] if c["signature"] == cell)
        lines = (self.dir / "ao3.off").read_text().splitlines()
        try:
            v, f, e = (int(x) for x in lines[1].split())
            faces = [[int(x) for x in line.split()] for line in lines[2 + v:]]
            sizes_ok = all(face[0] == len(face) - 1 for face in faces)
            face_edges = sum(face[0] for face in faces)
        except (IndexError, ValueError) as exc:
            self.fail(f"malformed OFF: {exc}")
            return False
        ok = (lines[0] == "OFF" and sizes_ok and len(faces) == f and face_edges == 2 * e
              and v - e + f == 2 and (v, e, f) == (record["V"], record["E"], record["F"]))
        if not ok:
            self.fail(f"OFF for {cell} has (V,E,F)=({v},{e},{f}); census record {record}")
        return ok


WORKLOADS = {w.name: w for w in (VerifySuite, AnalyzeLadder)}
