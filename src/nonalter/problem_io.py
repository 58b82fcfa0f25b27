"""Problem-file schema and report serialization.

A problem file is UTF-8 JSON with integer ``n``, three quadratics ``f``,
``g``, ``h`` (each ``{"A": n x n, "a": n-vector, "a0": number}``) and an
optional free-form ``meta`` map.  Matrices may carry round-off asymmetry up
to ``1e-8 * (1 + max|A|)``; anything larger is rejected, anything smaller
is symmetrized on load.
"""

from __future__ import annotations

import dataclasses
import json
import math
from enum import Enum
from pathlib import Path
from typing import Tuple

import numpy as np

from .quad_core import QuadForm

ASYMMETRY_RTOL = 1e-8


class ProblemFormatError(ValueError):
    """Malformed problem file; maps to exit code 2 in the CLI."""


def _require(cond: bool, msg: str):
    if not cond:
        raise ProblemFormatError(msg)


def _has_bool(x) -> bool:
    # JSON true and false load as bool, an int subclass that numpy reads as 1
    # and 0.  One pass over the element types of each list; only lists nest.
    if not isinstance(x, list):
        return isinstance(x, bool)
    types = set(map(type, x))
    return bool in types or (list in types and any(_has_bool(y) for y in x if isinstance(y, list)))


def quadform_from_dict(data: dict, name: str, n: int) -> QuadForm:
    _require(isinstance(data, dict), f"field {name!r} must be an object")
    for key in ("A", "a", "a0"):
        _require(key in data, f"field {name!r} is missing {key!r}")
        _require(not _has_bool(data[key]), f"{name}.{key} must be numeric, not boolean")
    try:
        A = np.array(data["A"], dtype=float)
        a = np.array(data["a"], dtype=float)
        a0 = float(data["a0"])
    except (TypeError, ValueError) as exc:
        raise ProblemFormatError(f"field {name!r} has non-numeric entries: {exc}") from None
    _require(A.shape == (n, n), f"{name}.A must be {n}x{n}, got {A.shape}")
    _require(a.shape == (n,), f"{name}.a must have length {n}, got {a.shape}")
    _require(
        bool(np.all(np.isfinite(A)) and np.all(np.isfinite(a)) and math.isfinite(a0)),
        f"field {name!r} contains non-finite numbers",
    )
    asym = float(np.abs(A - A.T).max(initial=0.0))
    _require(
        asym <= ASYMMETRY_RTOL * (1.0 + float(np.abs(A).max(initial=0.0))),
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


def to_jsonable(obj):
    """Recursively convert reports (dataclasses, arrays, enums) to JSON data.

    Floats keep Python repr round-trip precision; non-finite values become
    the strings "inf", "-inf", "nan" so the output is strict JSON.
    """
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        if math.isfinite(obj):
            return obj
        return "nan" if math.isnan(obj) else ("inf" if obj > 0 else "-inf")
    if isinstance(obj, Enum):
        return obj.value
    if isinstance(obj, np.generic):
        return to_jsonable(obj.item())
    if isinstance(obj, np.ndarray):
        return [to_jsonable(v) for v in obj.tolist()]
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: to_jsonable(getattr(obj, f.name)) for f in dataclasses.fields(obj)
                if not (f.metadata.get("omit_default") and getattr(obj, f.name) == f.default)}
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    return repr(obj)


def dumps_report(payload) -> str:
    """Deterministic JSON text for a report (sorted keys, two-space indent)."""
    return json.dumps(to_jsonable(payload), sort_keys=True, indent=2)
