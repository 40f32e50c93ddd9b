"""JSON interchange: arrangements, censuses, verification summaries.

One parser, many emitters.  Rationals travel as "p/q" strings ("p" when the
denominator is 1); every emitter goes through `canonical_dumps` (sorted keys,
fixed indentation, trailing newline) so identical inputs give byte-identical
files.  Files are written atomically: temp file in the target directory,
then rename.
"""

from __future__ import annotations

import json
import os
import tempfile
from fractions import Fraction
from typing import Optional

from .arrangement import Arrangement, Hyperplane
from .census import CensusReport
from .cells import CellRecord
from .errors import InputError
from .rational import decimal_display, format_rational, parse_rational
from .verify import SuiteSummary, VerificationResult


def jsonify(value):
    """Recursively convert to JSON-ready structures; Fractions become strings."""
    if isinstance(value, Fraction):
        return format_rational(value)
    if isinstance(value, dict):
        return {str(k): jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonify(v) for v in value]
    return value


def canonical_dumps(obj) -> str:
    return json.dumps(jsonify(obj), sort_keys=True, indent=2) + "\n"


def atomic_write_text(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".json")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def signature_str(signature) -> str:
    if any(s == 0 for s in signature):
        raise ValueError("cell signatures are zero-free")
    return "".join("+" if s > 0 else "-" for s in signature)


def signature_from_str(text: str) -> tuple[int, ...]:
    if not text or any(ch not in "+-" for ch in text):
        raise InputError(f"signature must be a nonempty +/- string, got {text!r}")
    return tuple(1 if ch == "+" else -1 for ch in text)


# ---------------------------------------------------------------------------
# arrangements
# ---------------------------------------------------------------------------

def arrangement_to_obj(arr: Arrangement, metadata: Optional[dict] = None) -> dict:
    obj = {
        "dim": arr.dim,
        "hyperplanes": [
            {"a": [format_rational(c) for c in h.a], "b": format_rational(h.b)}
            for h in arr.hyperplanes
        ],
    }
    if metadata:
        obj["metadata"] = jsonify(metadata)
    return obj


def arrangement_from_obj(obj: dict) -> tuple[Arrangement, dict]:
    try:
        dim = int(obj["dim"])
        rows = obj["hyperplanes"]
        planes = tuple(
            Hyperplane(
                tuple(parse_rational(c) for c in row["a"]),
                parse_rational(row["b"]),
            )
            for row in rows
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed arrangement JSON: {exc}") from exc
    return Arrangement(dim, planes), obj.get("metadata", {})


def load_arrangement(path: str) -> tuple[Arrangement, dict]:
    try:
        with open(path) as handle:
            obj = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read arrangement from {path}: {exc}") from exc
    return arrangement_from_obj(obj)


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

def cell_record_to_obj(rec: CellRecord) -> dict:
    return {
        "signature": signature_str(rec.signature),
        "V": rec.vertex_count,
        "E": rec.edge_count,
        "F": rec.facet_count,
        "diameter": rec.diameter,
        "class": rec.cell_class.label,
    }


def census_to_obj(report: CensusReport, include_cells: bool = False) -> dict:
    obj = {
        "metadata": jsonify(report.metadata),
        "dim": report.dim,
        "n": report.n,
        "vertex_count": report.vertex_count,
        "I": report.cell_count,
        "class_counts": {
            cls.label: count for cls, count in sorted(report.class_counts.items())
        },
        "delta": format_rational(report.delta),
        "delta_decimal": decimal_display(report.delta),
        "f_bounded": report.f_bounded,
        "f_external": report.f_external,
        "p_odd": report.p_odd,
    }
    if include_cells:
        obj["cells"] = [cell_record_to_obj(rec) for rec in report.records]
    return obj


def verification_to_obj(result: VerificationResult) -> dict:
    return {
        "prop": result.prop,
        "params": jsonify(result.params),
        "expected": jsonify(result.expected),
        "computed": jsonify(result.computed),
        "verdict": result.verdict,
        "notes": list(result.notes),
    }


def suite_to_obj(summary: SuiteSummary) -> dict:
    """The summary with the random pools it used, each sorted by (seed, n),
    so a reordered pool writes the same bytes."""
    return {
        "all_pass": summary.all_pass,
        "results": [verification_to_obj(r) for r in summary.results],
        "random_pools": {
            "d2": sorted(summary.random_2d, key=lambda row: (row[1], row[0])),
            "d3": sorted(summary.random_3d, key=lambda row: (row[1], row[0])),
            "coefficient_bound": summary.bound,
        },
    }
