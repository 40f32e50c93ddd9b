#!/usr/bin/env python3
"""Render the standard gallery: line-arrangement SVGs and two OFF cells.

Usage: python scripts/render_figures.py [OUTDIR]
"""

import os
import sys

from arrangement_lab.census import census
from arrangement_lab.constructions import build_ao2, build_ao3, build_cyclic_star
from arrangement_lab.export import render_off, render_svg
from arrangement_lab.jsonio import atomic_write_text, signature_str


def main() -> int:
    outdir = sys.argv[1] if len(sys.argv) > 1 else "figures"
    os.makedirs(outdir, exist_ok=True)

    for name, built in [
        ("ao2_7", build_ao2(7)),
        ("star_2_6", build_cyclic_star(2, 6)),
    ]:
        path = os.path.join(outdir, f"{name}.svg")
        atomic_write_text(path, render_svg(built.arrangement))
        print(f"wrote {path}")

    for name, built, kind in [
        ("star_3_6_cube", build_cyclic_star(3, 6), "cube"),
        ("ao3_7_shell", build_ao3(7), "shell"),
    ]:
        report = census(built.arrangement)
        signature = next(
            signature_str(rec.signature, built.n)
            for rec in report.records if rec.cell_class.kind == kind
        )
        path = os.path.join(outdir, f"{name}.off")
        atomic_write_text(path, render_off(built.arrangement, signature))
        print(f"wrote {path} (cell {signature})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
