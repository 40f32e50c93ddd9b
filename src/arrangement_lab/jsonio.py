"""JSON interchange: arrangements, censuses, verification summaries.

One parser, many emitters.  Rationals travel as "p/q" strings ("p" when the
denominator is 1); every emitter goes through `canonical_dumps` (sorted keys,
fixed indentation, trailing newline) so identical inputs give byte-identical
files; it writes Fractions and keys as text in its one walk, so emitters
pass their values as they are.  Files are written atomically: temp file in
the target directory, then rename.
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


_encode_str = json.encoder.encode_basestring_ascii
_SIGN_CHARS = {1: "+", -1: "-"}


def canonical_dumps(obj) -> str:
    """`json.dumps(obj, sort_keys=True, indent=2) + "\n"`, in one walk that
    makes every key `str(key)` and every Fraction `format_rational`."""
    return _dumps(obj, "\n") + "\n"


def _dumps(value, newline: str) -> str:
    if isinstance(value, str):
        return _encode_str(value)
    if type(value) is int:
        return int.__repr__(value)
    inner = newline + "  "
    if isinstance(value, dict):
        items = sorted({str(k): v for k, v in value.items()}.items())
        parts, ends = [_encode_str(k) + ": " + _dumps(v, inner) for k, v in items], "{}"
    elif isinstance(value, (list, tuple)):
        parts, ends = [_dumps(v, inner) for v in value], "[]"
    elif isinstance(value, Fraction):
        return _encode_str(format_rational(value))
    else:
        return json.dumps(value)  # None, booleans, floats; TypeError for the rest
    return ends[0] + inner + ("," + inner).join(parts) + newline + ends[1] if parts else ends


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
    try:
        return "".join([_SIGN_CHARS[s] for s in signature])
    except KeyError:
        raise ValueError("cell signatures are zero-free") from None


def signature_from_str(text: str) -> tuple[int, ...]:
    if not text or any(ch not in "+-" for ch in text):
        raise InputError(f"signature must be a nonempty +/- string, got {text!r}")
    return tuple(1 if ch == "+" else -1 for ch in text)


# ---------------------------------------------------------------------------
# arrangements
# ---------------------------------------------------------------------------

def arrangement_to_obj(arr: Arrangement, metadata: Optional[dict] = None) -> dict:
    obj = {"dim": arr.dim, "hyperplanes": [{"a": h.a, "b": h.b} for h in arr.hyperplanes]}
    if metadata:
        obj["metadata"] = metadata
    return obj


def json_integer(value, what: str) -> int:
    """A JSON integer read as exactly that; a boolean, a float or anything
    else raises InputError naming the value."""
    if type(value) is not int:
        raise InputError(f"{what} must be a JSON integer, got {value!r}")
    return value


def _coefficient(value) -> Fraction:
    """A coefficient given exactly: a rational string or a JSON integer.  A
    JSON float is already rounded to binary, so it is refused, as are
    booleans."""
    if type(value) is int:
        return Fraction(value)
    if not isinstance(value, str):
        raise InputError(
            f'coefficient must be a rational string such as "1/10" or a JSON integer, '
            f"got {value!r}"
        )
    return parse_rational(value)


def arrangement_from_obj(obj: dict) -> tuple[Arrangement, dict]:
    try:
        dim = json_integer(obj["dim"], '"dim"')
        rows = obj["hyperplanes"]
        planes = tuple(
            Hyperplane(
                tuple(_coefficient(c) for c in row["a"]),
                _coefficient(row["b"]),
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
        "metadata": report.metadata,
        "dim": report.dim,
        "n": report.n,
        "vertex_count": report.vertex_count,
        "I": report.cell_count,
        "class_counts": {cls.label: count for cls, count in report.class_counts.items()},
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
    """Every field by name: prop, params, expected, computed, verdict, notes."""
    return dict(vars(result))


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
