"""In-memory spans around the library's layer boundaries, from outside the library.

``Tracer.install()`` replaces public functions of the ``nonalter`` modules
under the names by which the calling module holds them (for example
``nonalter.solve.solve_dual_2d``) with wrappers that record a span: name,
layer, start, end, parent span and request id.  Hot inner functions get
counting wrappers without spans, and ``numpy.linalg.eigh``/``eigvalsh`` are
counted and attributed to the innermost open span.  ``uninstall()`` puts
every original back.  Spans stay in memory until ``write``.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional

import numpy as np

# (module holding the name, attribute) -> span name.  The layer of a span is
# the module that defines the wrapped function.
SPANNED = (
    # Entry points of a request; the benchmark looks them up at call time.
    ("nonalter.problem_io", "parse_problem_dict"),
    ("nonalter.problem_io", "dumps_report"),
    ("nonalter.solve", "solve_nonalter"),
    ("nonalter.classify", "classify_problem"),
    # What the library's modules call each other through.
    ("nonalter.solve", "classify_problem"),
    ("nonalter.solve", "solve_dual_2d"),
    ("nonalter.solve", "grid_min"),
    ("nonalter.solve", "probe_unbounded"),
    ("nonalter.solve", "solve_qp1qc"),
    ("nonalter.solve", "solve_on_affine_subspace"),
    ("nonalter.solve", "recover_solution"),
    ("nonalter.solve", "side_of_sublevel"),
    ("nonalter.classify", "check_assumption1"),
    ("nonalter.classify", "check_assumption2"),
    ("nonalter.classify", "check_assumption3"),
    ("nonalter.classify", "check_assumption4"),
    ("nonalter.classify", "check_assumption5"),
    ("nonalter.classify", "check_inclusion_zeroset"),
    ("nonalter.classify", "pencil_psd_search"),
    ("nonalter.classify", "pencil_psd_search_nonneg"),
    ("nonalter.classify", "detect_separation_by_hyperplane"),
    ("nonalter.classify", "canonical_reduce"),
    ("nonalter.classify", "companion_in_basis"),
    # classify imports solve_qp1qc inside a function, from the qp1qc module.
    ("nonalter.qp1qc", "solve_qp1qc"),
    ("nonalter.qp1qc", "solve_on_affine_subspace"),
)
EIG_FUNCTIONS = ("eigh", "eigvalsh")
QP1QC_STATUSES = ("attained", "unattained", "unbounded_below", "infeasible", "numerical_failure")

# Span fields, stored as lists to keep the per-span cost low.
NAME, LAYER, PARENT, REQUEST, START, END, EIG = range(7)


class Tracer:
    def __init__(self):
        self.spans: List[list] = []
        self.stack: List[int] = []
        self.request: Optional[int] = None
        self.root_eig = 0
        self.dual_evals = 0
        self.lagrangian_calls = 0
        self.lagrangian_finite = 0
        self.grid_points = 0
        self.grid_bytes = 0
        self.qp1qc_status: Counter = Counter()
        self._saved: List[tuple] = []

    # -- spans ---------------------------------------------------------------
    def open(self, name: str, layer: str) -> int:
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, layer, parent, self.request, time.perf_counter(), None, 0])
        idx = len(self.spans) - 1
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][END] = time.perf_counter()
        self.stack.pop()

    def _count_eig(self) -> None:
        if self.stack:
            self.spans[self.stack[-1]][EIG] += 1
        else:
            self.root_eig += 1

    # -- installation ----------------------------------------------------------
    def _patch(self, module, attr: str, replacement) -> None:
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, replacement)

    def _spanned(self, fn: Callable, name: str, layer: str) -> Callable:
        on_result = {
            "solve_dual_2d": self._on_dual,
            "solve_qp1qc": self._on_qp1qc,
        }.get(fn.__name__)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.open(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def _on_dual(self, result) -> None:
        self.dual_evals += result.evaluations

    def _on_qp1qc(self, result) -> None:
        self.qp1qc_status[result.status] += 1

    def install(self) -> None:
        for modname, attr in SPANNED:
            module = importlib.import_module(modname)
            fn = getattr(module, attr)
            layer = fn.__module__.rsplit(".", 1)[-1]
            self._patch(module, attr, self._spanned(fn, f"{layer}.{fn.__name__}", layer))

        duality = importlib.import_module("nonalter.duality")
        lagrangian = duality.lagrangian_dual_value

        def counted_lagrangian(*args, **kwargs):
            value = lagrangian(*args, **kwargs)
            self.lagrangian_calls += 1
            self.lagrangian_finite += math.isfinite(value)
            return value

        self._patch(duality, "lagrangian_dual_value", counted_lagrangian)

        oracle = importlib.import_module("nonalter.oracle")
        grid_points = oracle.grid_points

        def counted_grid_points(spec):
            # Computed from the grid spec: one float64 row of n coordinates
            # per point of the (resolution ** n) grid.
            points = spec.resolution ** spec.n
            self.grid_points += points
            self.grid_bytes += points * spec.n * 8
            return grid_points(spec)

        self._patch(oracle, "grid_points", counted_grid_points)

        for attr in EIG_FUNCTIONS:
            original = getattr(np.linalg, attr)

            def counted(*args, _original=original, **kwargs):
                self._count_eig()
                return _original(*args, **kwargs)

            self._patch(np.linalg, attr, counted)

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    # -- reduction -------------------------------------------------------------
    def self_times(self) -> List[float]:
        """Each span's duration minus the time its child spans cover."""
        own = [s[END] - s[START] for s in self.spans]
        for s in self.spans:
            if s[PARENT] is not None:
                own[s[PARENT]] -= s[END] - s[START]
        return own

    def layer_metrics(self) -> Dict[str, float]:
        own = self.self_times()
        self_s: Dict[str, float] = defaultdict(float)
        eig: Dict[str, int] = defaultdict(int)
        total_s: Dict[str, float] = defaultdict(float)
        calls: Dict[str, int] = defaultdict(int)
        for s, t in zip(self.spans, own):
            self_s[s[LAYER]] += t
            eig[s[LAYER]] += s[EIG]
            total_s[s[NAME]] += s[END] - s[START]
            calls[s[NAME]] += 1
        m = {
            "duality.self_s": self_s["duality"],
            "duality.dual_evals": self.dual_evals,
            "duality.eig_calls": eig["duality"],
            "duality.finite_eval_frac": (
                self.lagrangian_finite / self.lagrangian_calls if self.lagrangian_calls else 0.0
            ),
            "oracle.grid_min_s": total_s["oracle.grid_min"],
            "oracle.probe_unbounded_s": total_s["oracle.probe_unbounded"],
            "oracle.points": self.grid_points,
            "oracle.bytes": self.grid_bytes,
            "classify.self_s": self_s["classify"],
        }
        for k in range(1, 6):
            m[f"classify.a{k}_s"] = total_s[f"classify.check_assumption{k}"]
        m.update({
            "classify.eig_calls": eig["classify"],
            "canonical.reduce_calls": calls["canonical.canonical_reduce"],
            "canonical.reduce_s": total_s["canonical.canonical_reduce"],
            "qp1qc.self_s": self_s["qp1qc"],
            "qp1qc.calls": calls["qp1qc.solve_qp1qc"],
            "qp1qc.eig_calls": eig["qp1qc"],
        })
        for status in QP1QC_STATUSES:
            m[f"qp1qc.status_{status}"] = self.qp1qc_status[status]
        m.update({
            "solve.recover_s": total_s["solve.recover_solution"],
            "solve.self_s": self_s["solve"],
            "problem_io.parse_s": total_s["problem_io.parse_problem_dict"],
            "problem_io.dumps_s": total_s["problem_io.dumps_report"],
            "quad_core.eig_calls": sum(s[EIG] for s in self.spans) + self.root_eig,
        })
        return m

    def layer_shares(self, requests: Optional[set] = None) -> Dict[str, float]:
        """Share of request time spent in each layer's own code."""
        own = self.self_times()
        by_layer: Dict[str, float] = defaultdict(float)
        for s, t in zip(self.spans, own):
            if requests is None or s[REQUEST] in requests:
                by_layer[s[LAYER]] += t
        total = sum(by_layer.values()) or 1.0
        return {k: v / total for k, v in sorted(by_layer.items(), key=lambda kv: -kv[1])}

    def write(self, path, labels: List[str]) -> None:
        keys = ("name", "layer", "parent", "request", "start", "end", "eig_calls")
        rows = [dict(zip(keys, s)) for s in self.spans]
        path.write_text(json.dumps({"request_labels": labels, "spans": rows}), encoding="utf-8")

