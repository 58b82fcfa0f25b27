"""Problem-file schema and report serialization.

A problem file is UTF-8 JSON with integer ``n``, three quadratics ``f``,
``g``, ``h`` (each ``{"A": n x n, "a": n-vector, "a0": number}``) and an
optional free-form ``meta`` map.  Every entry of ``A``, ``a`` and ``a0`` is
a JSON number: booleans, strings and null are rejected, and so is a number
that is not finite as a float.  Matrices may carry round-off asymmetry up
to ``1e-8 * (1 + max|A|)``; anything larger is rejected, anything smaller
is symmetrized on load.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
from enum import Enum
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Tuple

import numpy as np

from .quad_core import QuadForm

ASYMMETRY_RTOL = 1e-8

_NUMBER_TYPES = {int, float}
_JSON_TYPE_NAMES = {bool: "boolean", str: "string", type(None): "null", dict: "object",
                    list: "array"}


class ProblemFormatError(ValueError):
    """Malformed problem file; maps to exit code 2 in the CLI."""


def _require(cond: bool, msg: str):
    if not cond:
        raise ProblemFormatError(msg)


def _leaf_types(x) -> set:
    # The types of x's entries through nested lists, or x's own type.  The
    # types are checked by name: JSON true and false load as bool, an int
    # subclass that numpy reads as 1 and 0, and numpy reads numeric strings
    # as numbers.
    if type(x) is not list:
        return {type(x)}
    types = set(map(type, x))
    if list in types:
        types.discard(list)
        for y in x:
            if type(y) is list:
                types |= _leaf_types(y)
    return types


def quadform_from_dict(data: dict, name: str, n: int) -> QuadForm:
    _require(isinstance(data, dict), f"field {name!r} must be an object")
    for key in ("A", "a", "a0"):
        _require(key in data, f"field {name!r} is missing {key!r}")
        # a0 is one number: a list there is rejected, not searched for entries.
        types = {type(data[key])} if key == "a0" else _leaf_types(data[key])
        bad = types - _NUMBER_TYPES
        if bad:
            names = [_JSON_TYPE_NAMES.get(t, t.__name__) for t in bad]
            kind = "boolean" if bool in bad else min(names)
            raise ProblemFormatError(f"{name}.{key} must be numeric, not {kind}")
    try:
        A = np.array(data["A"], dtype=float)
        a = np.array(data["a"], dtype=float)
        a0 = float(data["a0"])
    except (ValueError, OverflowError) as exc:  # ragged lists; an int beyond float range
        raise ProblemFormatError(f"field {name!r} has malformed entries: {exc}") from None
    _require(A.shape == (n, n), f"{name}.A must be {n}x{n}, got {A.shape}")
    _require(a.shape == (n,), f"{name}.a must have length {n}, got {a.shape}")
    # max|.| is nan or inf exactly when an entry is; the asymmetry test
    # below needs max|A| anyway, and must not see a non-finite A.
    scale = float(np.abs(A).max(initial=0.0))
    finite = math.isfinite(scale) and math.isfinite(float(np.abs(a).max(initial=0.0)))
    _require(finite and math.isfinite(a0), f"field {name!r} contains non-finite numbers")
    asym = float(np.abs(A - A.T).max(initial=0.0))
    _require(
        asym <= ASYMMETRY_RTOL * (1.0 + scale),
        f"{name}.A is asymmetric beyond tolerance (max deviation {asym:.3g})",
    )
    # A and a are fresh float arrays, checked above: no second copy or pass.
    return QuadForm._from_checked(A, a, a0)


def parse_problem_dict(doc: dict) -> Tuple[QuadForm, QuadForm, QuadForm, dict]:
    _require(isinstance(doc, dict), "problem file must contain a JSON object")
    _require("n" in doc, "missing field 'n'")
    n = doc["n"]
    _require(isinstance(n, int) and not isinstance(n, bool) and n >= 1,
             "'n' must be a positive integer")
    for role in ("f", "g", "h"):
        _require(role in doc, f"missing field {role!r}")
    f = quadform_from_dict(doc["f"], "f", n)
    g = quadform_from_dict(doc["g"], "g", n)
    h = quadform_from_dict(doc["h"], "h", n)
    meta = doc.get("meta", {})
    _require(isinstance(meta, dict), "'meta' must be an object when present")
    return f, g, h, meta


def parse_problem(path) -> Tuple[QuadForm, QuadForm, QuadForm, dict]:
    path = Path(path)
    if not path.exists():
        raise ProblemFormatError(f"no such file: {path}")
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ProblemFormatError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise ProblemFormatError(f"{path}: unreadable file: {exc}") from None
    return parse_problem_dict(doc)


def quadform_to_dict(q: QuadForm) -> dict:
    return {"A": q.A.tolist(), "a": q.a.tolist(), "a0": q.a0}


def problem_to_dict(f: QuadForm, g: QuadForm, h: QuadForm, meta: dict | None = None) -> dict:
    doc = {
        "n": f.n,
        "f": quadform_to_dict(f),
        "g": quadform_to_dict(g),
        "h": quadform_to_dict(h),
    }
    if meta:
        doc["meta"] = meta
    return doc


def dumps_report(payload) -> str:
    """Deterministic JSON text for a report (sorted keys, two-space indent).

    Dataclasses become objects of their fields, leaving out a field whose
    metadata has ``omit_default`` while it equals its default; enums become
    their values, numpy scalars and arrays Python numbers and lists, tuples
    lists, dict keys strings, and any other object its ``repr``.  Floats
    keep Python repr round-trip precision; non-finite values become the
    strings "inf", "-inf", "nan" so the output is strict JSON.  The text is
    that of ``json.dumps(..., sort_keys=True, indent=2)``, written in one
    pass over the report.
    """
    return _write(payload, "\n")


def _write(obj, nl: str) -> str:
    # JSON text of obj; nl is a newline and the indent of obj's own line.
    if obj is None:
        return "null"
    return _writer_of(type(obj))(obj, nl)


@functools.cache
def _writer_of(cls):
    # The writer of cls's instances, chosen once per class.  Checked in this
    # order, so that a subclass (an int or str enum, numpy's float64) is
    # written as the first class it matches.
    if cls is bool:
        return _bool
    if issubclass(cls, str):
        return _string
    if issubclass(cls, int):
        return _int
    if issubclass(cls, float):
        return _float
    if issubclass(cls, Enum):
        return _enum
    if issubclass(cls, np.generic):
        return _numpy_scalar
    if issubclass(cls, np.ndarray):
        return _ndarray
    if dataclasses.is_dataclass(cls) and not issubclass(cls, type):
        fields = sorted(dataclasses.fields(cls), key=lambda f: f.name)
        table = tuple((encode_basestring_ascii(f.name) + ": ", f.name,
                       bool(f.metadata.get("omit_default")), f.default) for f in fields)
        return functools.partial(_dataclass, table)
    if issubclass(cls, dict):
        return _object
    if issubclass(cls, (list, tuple)):
        return _array
    return _repr


def _string(obj, nl: str) -> str:
    return encode_basestring_ascii(obj)


def _bool(obj, nl: str) -> str:
    return "true" if obj else "false"


def _int(obj, nl: str) -> str:
    return int.__repr__(obj)


def _float(obj, nl: str) -> str:
    text = float.__repr__(obj)
    # A finite repr has no "n"; "nan", "inf" and "-inf" are written as strings.
    return '"' + text + '"' if "n" in text else text


def _enum(obj, nl: str) -> str:
    return _write(obj.value, nl)


def _numpy_scalar(obj, nl: str) -> str:
    return _write(obj.item(), nl)


def _ndarray(obj, nl: str) -> str:
    return _write(obj.tolist(), nl)


def _repr(obj, nl: str) -> str:
    return encode_basestring_ascii(repr(obj))


def _dataclass(fields: tuple, obj, nl: str) -> str:
    # fields: (key text, name, omitted at its default, default), by name.
    inner = nl + "  "
    items = []
    for key, name, omit, default in fields:
        value = getattr(obj, name)
        if omit and value == default:
            continue
        items.append(key + _write(value, inner))
    if not items:
        return "{}"
    return "{" + inner + ("," + inner).join(items) + nl + "}"


def _object(obj, nl: str) -> str:
    if not obj:
        return "{}"
    inner = nl + "  "
    items = sorted({str(k): v for k, v in obj.items()}.items())
    return "{" + inner + ("," + inner).join(
        [encode_basestring_ascii(k) + ": " + _write(v, inner) for k, v in items]) + nl + "}"


def _array(seq, nl: str) -> str:
    if not seq:
        return "[]"
    inner = nl + "  "
    return "[" + inner + ("," + inner).join([_write(v, inner) for v in seq]) + nl + "]"
