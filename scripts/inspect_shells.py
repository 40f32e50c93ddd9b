#!/usr/bin/env python3
"""Print canonical skeletons of every shell-classified cell in the ao3 grid.

Shells are recognized by their facet and vertex counts alone, so whether two
shells with the same counts are actually isomorphic is an open inspection
question; this script prints the canonical forms so equal/distinct skeletons
are visible at a glance.

Usage: python scripts/inspect_shells.py [N_MAX]
"""

import sys
from collections import defaultdict

from arrangement_lab.arrangement import enumerate_vertices, line_steps
from arrangement_lab.cells import shell_canonical_forms
from arrangement_lab.census import census
from arrangement_lab.constructions import build_ao3
from arrangement_lab.jsonio import signature_str


def main() -> int:
    n_max = int(sys.argv[1]) if len(sys.argv) > 1 else 10
    by_form = defaultdict(list)
    for n in range(5, n_max + 1):
        arr = build_ao3(n).arrangement
        report = census(arr)
        steps = line_steps(arr, enumerate_vertices(arr))
        for signature, form in shell_canonical_forms(report.records, steps).items():
            label = f"ao3({n}) cell {signature_str(signature)}"
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
