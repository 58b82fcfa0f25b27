"""`dumps_report` writes the text of the two-step serializer it replaced:
convert the report to JSON data (`reference_jsonable` below), then
``json.dumps(sort_keys=True, indent=2)``.  Compared byte for byte on the
CLI's corpus payloads, hand-built edge cases and generated JSON-like trees.
"""

import dataclasses
import json
import math
from enum import Enum, IntEnum
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nonalter.cli as cli
from nonalter import corpus
from nonalter.classify import Verdict
from nonalter.duality import DualCertificate, DualPoint, DualSolveResult
from nonalter.problem_io import dumps_report
from nonalter.quad_core import QuadForm


def reference_jsonable(obj):
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
        return reference_jsonable(obj.item())
    if isinstance(obj, np.ndarray):
        return [reference_jsonable(v) for v in obj.tolist()]
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: reference_jsonable(getattr(obj, f.name)) for f in dataclasses.fields(obj)
                if not (f.metadata.get("omit_default") and getattr(obj, f.name) == f.default)}
    if isinstance(obj, dict):
        return {str(k): reference_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [reference_jsonable(v) for v in obj]
    return repr(obj)


def reference_dumps(payload) -> str:
    return json.dumps(reference_jsonable(payload), sort_keys=True, indent=2)


class Color(str, Enum):
    RED = "red"


class Level(IntEnum):
    HIGH = 3


@dataclasses.dataclass
class Empty:
    pass


EDGE_CASES = {
    "nan": float("nan"),
    "inf": float("inf"),
    "-inf": float("-inf"),
    "np.float64 non-finite": [np.float64("nan"), np.float64("inf"), np.float64("-inf")],
    "np.float64 finite": [np.float64(0.1), 1.5],
    "np.float32": np.float32(0.1),
    "np.int64": np.int64(-7),
    "np.bool_": [np.bool_(True), np.bool_(False)],
    "-0.0": [-0.0, 0.0],
    "subnormals": [5e-324, 2.2250738585072014e-308 / 3, -1e-310],
    "large ints": [2**100, -(2**70), 10**300],
    "empty": {"list": [], "dict": {}, "tuple": (), "array": np.zeros(0)},
    "int keys": {3: "c", 1: "a", 2.5: "b", None: 0, False: 1, Color.RED: 2},
    "enums": [Verdict.HOLDS, Color.RED, Level.HIGH],
    "omit_default at default": DualSolveResult("finite", 1.0, DualPoint(0.5, 0.0, 1.0, 1e-12)),
    "omit_default off default": DualSolveResult(
        "dual_infeasible_everywhere", phase_one=4,
        certificate=DualCertificate(np.array([0.5, 0.5]), np.eye(2), -1.0, 1e-9)),
    "empty dataclass": [Empty(), {"x": Empty()}],
    "quadratic": QuadForm([[1.0, 2.0], [2.0, -3.0]], [0.0, 1.0], -1.0),
    "meta strings": {"meta": {"name": "café ☃ \U0001d11e", "ctl": "\x00\x1f\t\n\r\"\\/\x7f",
                              "é\x01": [" ", ""]}},
    "repr fallback": [complex(1, -2), {1, 2}, range(3), Path("ex24.json"), np.array([1 + 2j])],
    "arrays": [np.arange(6).reshape(2, 3), np.array([[1.0, np.nan], [-np.inf, 2.0]]),
               np.array([True, False]), np.array([0.1, 0.2], dtype=np.float32)],
    "mixed lists": [[1.0, 2], [1.0, "x"], [1.0, [2.0]], [np.float64(1.0), 2.0], [2.0, np.float64(1.0)],
                    (1.0, 2.0), [1.0, float("nan")], [[[]]], [{}]],
    "top-level string": "a\nb",
    "top-level None": None,
}


class TestDumpsReport:
    @pytest.mark.parametrize("name", sorted(EDGE_CASES))
    def test_edge_cases(self, name):
        obj = EDGE_CASES[name]
        assert dumps_report(obj) == reference_dumps(obj)
        assert dumps_report({"wrapped": [obj]}) == reference_dumps({"wrapped": [obj]})

    @pytest.mark.parametrize("argv", [
        ["classify"], ["solve"], ["solve", "--single-constraint"],
    ], ids=["classify", "solve", "single-constraint"])
    def test_corpus_payloads(self, argv, monkeypatch, capsys):
        # The CLI's own payloads: its writer is wrapped to keep each one.
        payloads = []

        def keep(payload):
            payloads.append(payload)
            return dumps_report(payload)

        monkeypatch.setattr(cli, "dumps_report", keep)
        for name in corpus.NAMES:
            cli.run(argv[:1] + [str(corpus.corpus_path(name)), "--format", "json"] + argv[1:])
            out = capsys.readouterr().out
            assert out == reference_dumps(payloads[-1]) + "\n", name
        assert len(payloads) == len(corpus.NAMES) == 10

    @settings(max_examples=200, deadline=None)
    @given(st.recursive(
        st.none() | st.booleans() | st.integers() | st.floats() | st.text()
        | st.floats().map(np.float64) | st.integers(-2**63, 2**63 - 1).map(np.int64),
        lambda children: (st.lists(children) | st.tuples(children, children)
                          | st.dictionaries(st.text() | st.integers(), children)
                          | st.lists(st.floats(), min_size=1).map(np.array)),
        max_leaves=40,
    ))
    def test_generated_trees(self, tree):
        assert dumps_report(tree) == reference_dumps(tree)
