"""JSON interchange: arrangements, censuses, verification summaries.

One parser, many emitters.  Rationals travel as "p/q" strings ("p" when the
denominator is 1); every emitter goes through `canonical_dumps` (sorted keys,
fixed indentation, trailing newline) so identical inputs give byte-identical
files; it writes Fractions and keys as text in its one walk, so emitters
pass their values as they are.  Files are written atomically: temp file in
the target directory, then rename; a path that cannot be written is an
InputError naming it.  A result's verdict is written beside the numbers it
is read off.
"""

from __future__ import annotations

import errno
import json
import os
import tempfile
from fractions import Fraction
from typing import Optional

from .arrangement import Arrangement, Hyperplane, signature_str
from .census import CensusReport
from .cells import CellRecord
from .errors import InputError
from .rational import brief, decimal_display, format_rational, parse_rational
from .verify import RANDOM_COEFF_BOUND, SuiteSummary, VerificationResult


_encode_str = json.encoder.encode_basestring_ascii
# Input files may nest no deeper: `canonical_dumps` recurses once per level.
_MAX_DEPTH = 100


def canonical_dumps(obj) -> str:
    """`json.dumps(obj, sort_keys=True, indent=2) + "\n"`, in one walk that
    makes every key `str(key)` and every Fraction `format_rational`."""
    return _dumps(obj, "\n", "\n")


def _dumps(value, newline: str, tail: str = "") -> str:
    """`value` as text at the indent of `newline`, followed by `tail`; a
    container joins all its pieces in one step, so its text is made once."""
    if isinstance(value, str):
        return _encode_str(value) + tail
    if type(value) is int:
        return int.__repr__(value) + tail
    if isinstance(value, Fraction):
        return _encode_str(format_rational(value)) + tail
    if not isinstance(value, (dict, list, tuple)):
        return json.dumps(value) + tail  # None, booleans, floats; TypeError for the rest
    if not value:
        return ("{}" if isinstance(value, dict) else "[]") + tail
    inner = newline + "  "
    sep = "," + inner  # between pieces; the first gets `inner` alone
    if isinstance(value, dict):
        pieces, close = ["{"], "}"
        for key, v in sorted({str(k): v for k, v in value.items()}.items()):
            pieces += (sep, _encode_str(key), ": ", _dumps(v, inner))
    else:
        pieces, close = ["["], "]"
        for v in value:
            pieces += (sep, _dumps(v, inner))
    pieces[1] = inner
    pieces += (newline, close, tail)
    return "".join(pieces)


def atomic_write_text(path: str, text: str) -> None:
    """Raises InputError naming `path` when it cannot be written, and leaves
    no temp file behind."""
    directory = os.path.dirname(os.path.abspath(path))
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".json")
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(text)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise _cannot_write(path, exc.strerror or exc) from exc


def check_writable(path: str) -> None:
    """Raise the InputError `atomic_write_text(path, ...)` would give for a
    missing or unwritable directory or a directory in the way, before any
    work is done, and leave nothing behind."""
    if os.path.isdir(path):
        raise _cannot_write(path, os.strerror(errno.EISDIR))
    try:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)), prefix=".tmp-")
    except OSError as exc:
        raise _cannot_write(path, exc.strerror or exc) from exc
    os.close(fd)
    os.unlink(tmp)


def _cannot_write(path: str, reason) -> InputError:
    return InputError(f"cannot write {path}: {reason}")


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
        raise InputError(f"{what} must be a JSON integer, got {brief(value)}")
    return value


def _coefficient(value) -> Fraction:
    """A coefficient given exactly: a rational string or a JSON integer.  A
    JSON float is already rounded to binary, so it is refused, as are
    booleans."""
    if type(value) is int:
        return Fraction(value)
    if not isinstance(value, str):
        raise InputError(
            f'coefficient must be a JSON integer or a "p/q" string, got {brief(value)}')
    return parse_rational(value)


def arrangement_from_obj(obj: dict) -> tuple[Arrangement, dict]:
    """The arrangement and metadata of a JSON object; every refusal of a
    hyperplane row names its position, 0-based."""
    try:
        dim = json_integer(obj["dim"], '"dim"')
        if not isinstance(obj["hyperplanes"], list):
            raise InputError('"hyperplanes" must be a JSON array')
        planes = tuple(_hyperplane(k, row, dim) for k, row in enumerate(obj["hyperplanes"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed arrangement JSON: {exc}") from exc
    return Arrangement(dim, planes), obj.get("metadata", {})


def _hyperplane(k: int, row, dim: int) -> Hyperplane:
    try:
        if not (isinstance(row, dict) and "a" in row and "b" in row):
            raise InputError('must be a JSON object with "a" and "b"')
        a = row["a"]
        if not isinstance(a, list):  # a string or object would be read item by item
            raise InputError('"a" must be a JSON array of coefficients')
        if len(a) != dim:
            raise InputError(f'"a" has {len(a)} coefficients in a {dim}-dimensional arrangement')
        return Hyperplane(tuple(_coefficient(c) for c in a), _coefficient(row["b"]))
    except ValueError as exc:
        raise InputError(f"hyperplane {k}: {exc}") from exc


def load_arrangement(path: str) -> tuple[Arrangement, dict]:
    try:
        obj = _read_json(path)
    except (OSError, ValueError) as exc:
        raise InputError(f"cannot read arrangement from {path}: {exc}") from exc
    return arrangement_from_obj(obj)


def _read_json(path: str):
    """The JSON value in the file `path`: OSError when it cannot be read,
    ValueError when it is not JSON or nests containers more than
    `_MAX_DEPTH` deep.  The depth is measured level by level, so deep input
    recurses nowhere, before anything else reads the value."""
    too_deep = f"containers nested more than {_MAX_DEPTH} deep"
    with open(path) as handle:
        try:
            value = json.load(handle)
        except RecursionError:  # the reader's own stack ran out first
            raise ValueError(too_deep) from None
    level = [value]
    for _ in range(_MAX_DEPTH + 1):
        level = [c for c in level if isinstance(c, (dict, list))]
        if not level:
            return value
        level = [v for c in level for v in (c.values() if isinstance(c, dict) else c)]
    raise ValueError(too_deep)


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

def cell_record_to_obj(rec: CellRecord, n: int) -> dict:
    return {
        "signature": signature_str(rec.signature, n),
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
        obj["cells"] = [cell_record_to_obj(rec, report.n) for rec in report.records]
    return obj


def verification_to_obj(result: VerificationResult) -> dict:
    """Every field by name (prop, params, expected, computed, notes) and the
    verdict that the pass rule reads off expected and computed."""
    return {**result._asdict(), "verdict": result.verdict}


def suite_to_obj(summary: SuiteSummary) -> dict:
    """The summary with the random pools it used, keyed "d<k>", each sorted
    by (seed, n), so a reordered pool writes the same bytes."""
    return {
        "all_pass": summary.all_pass,
        "results": [verification_to_obj(r) for r in summary.results],
        "random_pools": {
            **{f"d{d}": sorted(pool, key=lambda row: (row[1], row[0]))
               for d, pool in summary.pools.items()},
            "coefficient_bound": RANDOM_COEFF_BOUND,
        },
    }
