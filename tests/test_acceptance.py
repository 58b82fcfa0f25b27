"""Acceptance gate: one test and one printed PASS/FAIL line per criterion.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines.
"""

import json
import subprocess
import sys

import numpy as np
import pytest

from nonalter import corpus
from nonalter.canonical import canonical_expression_value, canonical_reduce
from nonalter.classify import (
    ArrangementClass,
    SearchSpec,
    Verdict,
    classify_problem,
    detect_separation_by_hyperplane,
)
from nonalter.duality import solve_dual_2d
from nonalter.instances import random_nonalter_instance, random_quadform, random_triple
from nonalter.oracle import GridSpec, find_witness, grid_min, grid_points, probe_unbounded
from nonalter.qp1qc import solve_qp1qc
from nonalter.quad_core import (
    QuadForm,
    evaluate,
    evaluate_many,
    find_negative_point,
    nonneg_everywhere,
    unconstrained_min,
)
from nonalter.solve import solve_nonalter


def verdictline(num, label, ok):
    print(f"\nACCEPTANCE {num} {label}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {num} ({label}) failed"


@pytest.fixture(scope="module")
def corpus_reports():
    out = {}
    for name in corpus.NAMES:
        f, g, h, _ = corpus.load(name)
        out[name] = (f, g, h, classify_problem(g, h))
    return out


@pytest.fixture(scope="module")
def nonalter_solutions(corpus_reports):
    out = {}
    for name, (f, g, h, rep) in corpus_reports.items():
        if rep.overall_class is ArrangementClass.NON_ALTER:
            out[name] = solve_nonalter(f, g, h, classification=rep)
    return out


def _spacing_bound(f, argmin, spacing):
    grad = 2 * (f.A @ argmin + f.a)
    lip = np.linalg.norm(grad) + 4 * np.abs(f.A).max() * max(spacing)
    return 3 * lip * max(spacing) * np.sqrt(len(argmin))


def test_criterion_1_corpus_verdicts(corpus_reports):
    checks = []

    f, g, h, rep = corpus_reports["ex22"]
    checks.append(("ex22 assumption2 fails", rep.a2.verdict is Verdict.FAILS))
    checks.append(("ex22 level-set split detected",
                   detect_separation_by_hyperplane(g, h) is not None))

    _, _, _, rep = corpus_reports["ex23"]
    checks.append(("ex23 mutual separation",
                   all(v.is_false for v in rep.inclusions)
                   and rep.overall_class is ArrangementClass.OUTSIDE_NON_ALTER))

    _, _, _, rep = corpus_reports["ex24"]
    checks.append(("ex24 assumption2 holds", rep.a2.verdict is Verdict.HOLDS))

    _, _, _, rep = corpus_reports["ex25a"]
    checks.append(("ex25a in class",
                   rep.overall_class is ArrangementClass.NON_ALTER
                   and rep.in_nonalter is Verdict.HOLDS))

    _, _, _, rep = corpus_reports["ex25b"]
    checks.append(("ex25b in class (membership)", rep.in_nonalter is Verdict.HOLDS))

    _, _, _, rep = corpus_reports["cdt_s2"]
    checks.append(("cdt_s2 outside class",
                   rep.overall_class is ArrangementClass.OUTSIDE_NON_ALTER))

    _, _, _, rep = corpus_reports["hqpd_s5a"]
    checks.append(("hqpd_s5a a1 fails, a2 holds",
                   rep.a1.verdict is Verdict.FAILS and rep.a2.verdict is Verdict.HOLDS))

    _, _, _, rep = corpus_reports["hqpd_s5b"]
    checks.append(("hqpd_s5b a1 holds, a2 fails",
                   rep.a1.verdict is Verdict.HOLDS and rep.a2.verdict is Verdict.FAILS))

    for label, ok in checks:
        print(f"  [{'ok' if ok else 'FAIL'}] {label}")
    passed = sum(ok for _, ok in checks)
    verdictline(1, f"corpus verdicts ({passed}/{len(checks)})", passed == len(checks))


def test_criterion_2_strong_duality(corpus_reports):
    spec = GridSpec.cube(2, resolution=801, eps=0.0)
    bad = []

    for name in ("ex25a", "ex25b", "ex24"):
        f, g, h, _ = corpus_reports[name]
        d = solve_dual_2d(f, g, h)
        o = grid_min(f, g, h, spec)
        bound = 1e-3 + _spacing_bound(f, o.argmin, o.spacing)
        gap = o.min_value - d.value
        if not (-1e-6 <= gap <= bound):
            bad.append((name, gap, bound))

    rng = np.random.default_rng(20240)
    search = SearchSpec(n_samples=2500, grid_per_axis=21)
    checked = 0
    for _ in range(170):
        if checked >= 100:
            break
        f, g, h = random_nonalter_instance(rng)
        rep = classify_problem(g, h, spec=search)
        if rep.overall_class is not ArrangementClass.NON_ALTER:
            continue
        d = solve_dual_2d(f, g, h)
        if d.status != "finite":
            continue
        o = grid_min(f, g, h, spec)
        if o.feasible_count == 0 or np.abs(o.argmin).max() > 9.8:
            continue
        checked += 1
        bound = 1e-3 + _spacing_bound(f, o.argmin, o.spacing)
        gap = o.min_value - d.value
        if not (-1e-6 <= gap <= bound):
            bad.append((f"random#{checked}", gap, bound))

    print(f"  corpus instances: 3, random instances: {checked}, violations: {len(bad)}")
    for item in bad[:5]:
        print("  violation:", item)
    verdictline(2, "strong duality vs oracle", checked >= 100 and not bad)


def test_criterion_3_weak_duality():
    rng = np.random.default_rng(33)
    spec = GridSpec.cube(2, resolution=201, eps=0.0)
    checked = finite_duals = violations = 0
    for _ in range(500):
        if checked >= 300:
            break
        f, g, h = random_triple(rng)
        o = grid_min(f, g, h, spec)
        if o.feasible_count == 0:
            continue
        checked += 1
        d = solve_dual_2d(f, g, h)
        if d.status != "finite":
            continue  # a dual of -inf satisfies weak duality trivially
        finite_duals += 1
        bound = 1e-6 + _spacing_bound(f, o.argmin, o.spacing)
        if d.value > o.min_value + bound:
            violations += 1
    print(f"  instances with nonempty feasible grid: {checked} "
          f"({finite_duals} with a finite dual), violations: {violations}")
    verdictline(3, "weak duality vs oracle", checked >= 300 and violations == 0)


def test_criterion_4_unsolvable_sign_systems(corpus_reports):
    spec = GridSpec.cube(2, resolution=801)
    passing = [
        name
        for name, (_, _, _, rep) in corpus_reports.items()
        if all(rep.assumption(k).verdict is Verdict.HOLDS for k in range(1, 6))
    ]
    ok = len(passing) >= 3
    print(f"  instances passing assumptions 1-5: {passing}")
    for name in passing:
        _, g, h, _ = corpus_reports[name]
        w1 = find_witness(g, h, (">", ">="), spec, n_samples=100_000, margin=1e-8)
        w2 = find_witness(g, h, (">=", ">"), spec, n_samples=100_000, margin=1e-8)
        found = (w1 is not None) or (w2 is not None)
        print(f"  [{'ok' if not found else 'FAIL'}] {name}: no doubly-nonnegative point")
        ok = ok and not found
    _, g, h, _ = corpus_reports["cdt_s2"]
    w = find_witness(g, h, (">", ">"), spec, n_samples=100_000, margin=1e-8)
    found = w is not None and evaluate(g, w) > 0 and evaluate(h, w) > 0
    print(f"  [{'ok' if found else 'FAIL'}] cdt_s2: witness found at {w}")
    verdictline(4, "two quadratic sign systems unsolvable inside the class", ok and found)


def test_criterion_5_side_dichotomy(corpus_reports, nonalter_solutions):
    spec = GridSpec.cube(2, resolution=801)
    pts = grid_points(spec)
    ok = len(nonalter_solutions) >= 3
    for name, rep in nonalter_solutions.items():
        f, g, h, _ = corpus_reports[name]
        nu = rep.nu_star
        lo = unconstrained_min(f).value
        fv = evaluate_many(f, pts)
        gv = evaluate_many(g, pts)
        hv = evaluate_many(h, pts)
        sides = []
        for i in range(1, 6):
            gamma = lo + (nu - lo) * i / 6.0
            mask = fv < gamma
            if not mask.any():
                continue
            neg_pos = bool(((gv[mask] < 0) & (hv[mask] > 0)).all())
            pos_neg = bool(((gv[mask] > 0) & (hv[mask] < 0)).all())
            one_side = neg_pos or pos_neg
            ok = ok and one_side
            sides.append(neg_pos)
        consistent = len(sides) >= 3 and all(s == sides[0] for s in sides)
        ok = ok and consistent
        print(f"  [{'ok' if consistent else 'FAIL'}] {name}: side constant over "
              f"{len(sides)} sampled levels")
    verdictline(5, "sublevel sets stay on one side below the optimum", ok)


def test_criterion_6_single_constraint_suite():
    f = QuadForm([[1.0]], [-2.0], 4.0)
    g = QuadForm([[1.0]], [0.0], -1.0)
    r = solve_qp1qc(f, g)
    ok = r.status == "attained" and abs(r.value - 1.0) <= 1e-8
    print(f"  [{'ok' if ok else 'FAIL'}] boundary case value {r.value!r}")

    f2 = QuadForm(np.diag([0.0, -1.0]), np.zeros(2), 0.0)
    g2 = QuadForm(np.eye(2), np.zeros(2), -1.0)
    r2 = solve_qp1qc(f2, g2)
    ok2 = r2.status == "attained" and abs(r2.value + 1.0) <= 1e-8
    print(f"  [{'ok' if ok2 else 'FAIL'}] singular-multiplier case value {r2.value!r}")

    rng = np.random.default_rng(606)
    spec = GridSpec.cube(2, resolution=401, eps=0.0)
    probe = GridSpec.cube(2, resolution=101)
    const = QuadForm.constant(2, -1.0)
    checked = mismatches = 0
    for _ in range(300):
        f3 = random_quadform(rng, 2, convex=rng.uniform() < 0.5)
        g3 = random_quadform(rng, 2)
        r3 = solve_qp1qc(f3, g3)
        if r3.status == "attained":
            o = grid_min(f3, g3, const, spec)
            if o.feasible_count == 0 or np.abs(r3.x).max() > 9.5:
                continue
            checked += 1
            grad = 2 * (f3.A @ o.argmin + f3.a)
            lip = np.linalg.norm(grad) + 4 * np.abs(f3.A).max() * max(spec.spacing)
            bound = 2 * lip * max(spec.spacing) + 1e-6
            if not (-1e-6 <= o.min_value - r3.value <= bound):
                mismatches += 1
        elif r3.status == "unbounded_below":
            checked += 1
            w = probe_unbounded(f3, g3, const, probe)
            if w is None or evaluate(f3, w) >= -1e6:
                mismatches += 1
    print(f"  random instances checked: {checked}, mismatches: {mismatches}")
    verdictline(6, "single-constraint suite", ok and ok2 and checked >= 200 and mismatches == 0)


def test_criterion_7_canonical_and_nonnegativity():
    rng = np.random.default_rng(77)
    ok = True

    round_trips = 0
    for _ in range(100):
        n = int(rng.integers(1, 4))
        A = rng.normal(size=(n, n))
        A = (A + A.T) / 2
        kind = rng.integers(0, 4)
        if kind == 1:
            A = A @ A.T  # PSD
        elif kind == 2:
            A = np.zeros((n, n))  # affine
        elif kind == 3 and n > 1:
            A[:, -1] = 0
            A[-1, :] = 0  # force a kernel
        g = QuadForm(A, rng.normal(size=n), float(rng.normal()))
        if g.is_constant():
            continue
        change, form = canonical_reduce(g)
        for _ in range(50):
            y = rng.uniform(-3, 3, size=n)
            lhs = change.s * evaluate(g, change.apply(y))
            rhs = canonical_expression_value(form, y)
            if abs(lhs - rhs) > 1e-8 * (1 + abs(rhs)):
                ok = False
        round_trips += 1
    print(f"  canonical round trips verified: {round_trips}")

    sampled = 0
    for _ in range(100):
        n = int(rng.integers(1, 4))
        q = QuadForm(rng.normal(size=(n, n)), rng.normal(size=n), float(rng.normal()))
        if nonneg_everywhere(q):
            pts = rng.uniform(-10, 10, size=(10_000, n))
            vals = evaluate_many(q, pts)
            if (vals < -1e-6 * (1 + (pts**2).sum(axis=1))).any():
                ok = False
        else:
            x = find_negative_point(q)
            if x is None or evaluate(q, x) >= 0:
                ok = False
        sampled += 1
    print(f"  nonnegativity-vs-PSD samples verified: {sampled}")
    verdictline(7, "canonical round-trip and nonnegativity properties",
                ok and round_trips >= 95 and sampled == 100)


def test_criterion_8_two_point_instance_end_to_end():
    f, g, h, _ = corpus.load("hqpd_s5a")
    d = solve_dual_2d(f, g, h)
    dual_ok = d.status == "finite" and abs(d.value - 1.0) <= 1e-6
    print(f"  dual value {d.value!r} (target 1 +- 1e-6)")
    o = grid_min(f, g, h, GridSpec.cube(2, resolution=801, eps=1e-3))
    oracle_ok = o.feasible_count > 0 and abs(o.min_value - 1.0) <= 5e-3
    print(f"  oracle estimate {o.min_value!r} over {o.feasible_count} near-feasible points")
    verdictline(8, "two-point feasible set solved by the dual", dual_ok and oracle_ok)


def test_criterion_9_deterministic_reports():
    ok = True
    for cmd in (
        ["solve", str(corpus.corpus_path("qp1qc_embed")), "--format", "json", "--seed", "0"],
        ["classify", str(corpus.corpus_path("ex22")), "--format", "json", "--seed", "0"],
    ):
        full = [sys.executable, "-m", "nonalter.cli"] + cmd
        r1 = subprocess.run(full, capture_output=True)
        r2 = subprocess.run(full, capture_output=True)
        same = r1.stdout == r2.stdout and r1.returncode == r2.returncode
        print(f"  [{'ok' if same else 'FAIL'}] byte-identical: {' '.join(cmd[:2])}")
        ok = ok and same
        json.loads(r1.stdout)  # reports must be valid JSON
    verdictline(9, "identical seeds give byte-identical reports", ok)
