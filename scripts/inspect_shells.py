#!/usr/bin/env python3
"""Print canonical skeletons of every shell-classified cell in the ao3 grid.

Shells are recognized by their facet and vertex counts alone, so whether two
shells with the same counts are actually isomorphic is an open inspection
question; this script prints the canonical forms so equal/distinct skeletons
are visible at a glance.  The forms come from the test suite's graph oracle
(`tests/oracle_classify.canonical_form`).

Usage: python scripts/inspect_shells.py [N_MAX]
"""

import sys
from collections import defaultdict
from pathlib import Path

from arrangement_lab.arrangement import enumerate_vertices, signature_str
from arrangement_lab.cells import skeletons_for_cells
from arrangement_lab.census import census
from arrangement_lab.constructions import build_ao3

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from oracle_classify import canonical_form  # noqa: E402


def main() -> int:
    n_max = int(sys.argv[1]) if len(sys.argv) > 1 else 10
    by_form = defaultdict(list)
    for n in range(5, n_max + 1):
        arr = build_ao3(n).arrangement
        shells = [rec for rec in census(arr).records if rec.cell_class.kind == "shell"]
        skeletons = skeletons_for_cells(shells, enumerate_vertices(arr), 3, n)
        for rec, adj in zip(shells, skeletons):
            form = canonical_form(adj)
            label = f"ao3({n}) cell {signature_str(rec.signature, n)}"
            by_form[form].append(label)
            print(f"{label}: canonical form hash {hash(form):#018x}, "
                  f"{form[0]} vertices")
    print()
    for form, labels in by_form.items():
        if len(labels) > 1:
            print(f"shared skeleton: {', '.join(labels)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
