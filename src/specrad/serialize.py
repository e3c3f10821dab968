"""UTF-8 JSON wire formats for matrices, operator families, and sets.

Schemas:

- matrix:   {"rows": r, "cols": c, "entries": [row-major floats]}
- family:   {"bands": [{"offset": d, "weights": W}, ...],
             "diagonal": W?, "finite_rank": matrix?}
  where W is a leaf weight sequence: {"kind": "constant", "c": x},
  {"kind": "eventually_constant", "prefix": [...], "tail": x},
  {"kind": "rational", "p": [...], "q": [...]} or
  {"kind": "prefix_with_limit", "prefix": [...], "limit": x}
- set:      a JSON list of matrices or of families (homogeneous)

A matrix, family, band or weight-sequence object with a key outside its
schema is refused, and so is a weight sequence missing one of its keys.
Only leaf weight sequences serialize; derived symbolic sequences are an
in-process representation and have no wire format.
"""

from __future__ import annotations

import hashlib
import json
import numbers
from typing import Any

from .errors import DomainError, InputFormatError
from .families import OperatorFamily
from .matrices import FiniteMatrix
from .sequences import (
    Constant,
    EventuallyConstant,
    PrefixWithLimit,
    RationalFormula,
    WeightSeq,
)
from .sets import OperatorSet


def matrix_to_json(m: FiniteMatrix) -> dict:
    return {"rows": m.rows, "cols": m.cols, "entries": m.a.ravel().tolist()}


def _json_type(obj: Any) -> str:
    """The JSON name of a decoded value's type, for error messages."""
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "boolean"
    if isinstance(obj, (int, float)):
        return "number" if _is_number(obj) else "integer too large for a float"
    return {str: "string", list: "array", dict: "object"}.get(type(obj), type(obj).__name__)


def _require_object(obj: Any, what: str, keys: tuple[str, ...]) -> None:
    """obj must be a JSON object whose keys are all among ``keys``.

    A misspelt key is refused rather than ignored: a family read without
    its "diagonal" would give a silently wrong bracket.
    """
    if not isinstance(obj, dict):
        raise InputFormatError(f"{what} must be a JSON object, got {_json_type(obj)}")
    for key in obj:
        if key not in keys:
            raise InputFormatError(
                f"{what} has unexpected key {key!r}; expected keys: {', '.join(keys) or 'none'}")


def _is_number(value: Any) -> bool:
    """True for a real number that converts to a float.

    This is the one number check for JSON values, chain params and the
    estimators' ``tol`` and ``delta``.  true and false decode to bools, not
    numbers.  JSON integers have no size limit, and one beyond the float
    range is refused here rather than left to overflow in ``float()``.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return False
    try:
        float(value)
    except OverflowError:
        return False
    return True


def _json_numbers(value: Any, what: str) -> list:
    """value as a JSON array of numbers."""
    if not isinstance(value, list):
        raise InputFormatError(f"{what} must be a JSON array, got {_json_type(value)}")
    for v in value:
        if not _is_number(v):
            raise InputFormatError(f"{what} must be JSON numbers, got {_json_type(v)}")
    return value


def _json_int(obj: Any, key: str) -> int:
    """obj[key] as a JSON integer; a bool, float or string is malformed."""
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise InputFormatError(f"{key} must be a JSON integer, got {value!r}")
    return value


def matrix_from_json(obj: Any) -> FiniteMatrix:
    _require_object(obj, "matrix object", ("rows", "cols", "entries"))
    try:
        rows, cols = _json_int(obj, "rows"), _json_int(obj, "cols")
        entries = obj["entries"]
    except KeyError as exc:
        raise InputFormatError(f"matrix object needs rows/cols/entries, missing {exc}") from exc
    _json_numbers(entries, "matrix entries")
    if len(entries) != rows * cols:
        raise InputFormatError(
            f"matrix declares {rows}x{cols} but carries {len(entries)} entries")
    data = [entries[r * cols:(r + 1) * cols] for r in range(rows)]
    try:
        return FiniteMatrix(data)
    except ValueError as exc:
        raise InputFormatError(str(exc)) from exc


# Each leaf weight-sequence kind: its class and its fields in constructor order.
_SEQ_KINDS = {
    "constant": (Constant, ("c",)),
    "eventually_constant": (EventuallyConstant, ("prefix", "tail")),
    "rational": (RationalFormula, ("p", "q")),
    "prefix_with_limit": (PrefixWithLimit, ("prefix", "limit")),
}
# The weight-sequence fields that hold an array of numbers; the rest hold one.
_SEQ_ARRAYS = ("prefix", "p", "q")


def seq_to_json(w: WeightSeq) -> dict:
    """Serialize a leaf sequence, keys in ``_SEQ_KINDS`` order.  Combinators have none."""
    for kind, (cls, fields) in _SEQ_KINDS.items():
        if isinstance(w, cls):
            out = {"kind": kind}
            for key in fields:
                out[key] = list(getattr(w, key)) if key in _SEQ_ARRAYS else getattr(w, key)
            return out
    raise DomainError(f"sequence of type {type(w).__name__} has no JSON form")


def seq_from_json(obj: Any) -> WeightSeq:
    """A leaf weight sequence.

    A key its kind does not declare, a missing one, or a value that is not
    a JSON number (or, for prefix, p and q, an array of them) is refused.
    """
    if not isinstance(obj, dict):
        raise TypeError(f"weight sequence must be a JSON object, got {_json_type(obj)}")
    kind = obj.get("kind")
    if not isinstance(kind, str) or kind not in _SEQ_KINDS:
        raise DomainError(f"unknown weight-sequence kind: {kind!r}")
    cls, fields = _SEQ_KINDS[kind]
    _require_object(obj, f"{kind} weight sequence", ("kind", *fields))
    for key in fields:
        if key not in obj:
            raise InputFormatError(f"{kind} weight sequence needs key {key!r}")
        what = f"{kind} weight sequence key {key!r}"
        if key in _SEQ_ARRAYS:
            _json_numbers(obj[key], what)
        elif not _is_number(obj[key]):
            raise InputFormatError(f"{what} must be a JSON number, got {_json_type(obj[key])}")
    return cls(*(obj[key] for key in fields))


def family_to_json(f: OperatorFamily) -> dict:
    out: dict = {"bands": []}
    for d, w in f.bands.items():
        if d == 0:
            out["diagonal"] = seq_to_json(w)
        else:
            out["bands"].append({"offset": d, "weights": seq_to_json(w)})
    if f.corner is not None:
        out["finite_rank"] = matrix_to_json(FiniteMatrix(f.corner))
    return out


def family_from_json(obj: Any) -> OperatorFamily:
    _require_object(obj, "family object", ("bands", "diagonal", "finite_rank"))
    band_list = obj.get("bands", [])
    if not isinstance(band_list, list):
        raise InputFormatError(f"family bands must be a JSON array, got {_json_type(band_list)}")
    try:
        bands = {}
        for band in band_list:
            _require_object(band, "band", ("offset", "weights"))
            d = _json_int(band, "offset")
            if d in bands:
                raise InputFormatError(f"family has two bands at offset {d}")
            bands[d] = seq_from_json(band["weights"])
        diagonal = seq_from_json(obj["diagonal"]) if "diagonal" in obj else None
        rank = matrix_from_json(obj["finite_rank"]) if "finite_rank" in obj else None
        return OperatorFamily(bands, diagonal=diagonal, finite_rank=rank)
    except InputFormatError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise InputFormatError(f"malformed family object: {exc}") from exc


def element_to_json(e) -> dict:
    return matrix_to_json(e) if isinstance(e, FiniteMatrix) else family_to_json(e)


def element_from_json(obj: Any):
    """A set element: a matrix object (it has "entries") or a family object."""
    if not isinstance(obj, dict):
        raise InputFormatError(
            f"set element must be a matrix object or a family object, got {_json_type(obj)}")
    return matrix_from_json(obj) if "entries" in obj else family_from_json(obj)


def set_to_json(s: OperatorSet) -> list:
    return [element_to_json(e) for e in s]


def set_from_json(obj: Any) -> OperatorSet:
    if not isinstance(obj, list) or not obj:
        raise InputFormatError("operator set must be a nonempty JSON list")
    return OperatorSet([element_from_json(e) for e in obj])


def canonical_dumps(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


def digest(obj: Any) -> str:
    return hashlib.sha256(canonical_dumps(obj).encode("utf-8")).hexdigest()[:16]
