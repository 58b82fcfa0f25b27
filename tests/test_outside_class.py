"""Outside the certified class, weak duality certifies the dual's optimizer.

The replay set: for n = 2, 3, 5, 10, constraint pairs drawn from
``default_rng(1000 + n)`` and kept when classification puts them outside
the class, each with a convex objective from the same stream (30, 8, 10 and
10 of them), plus the five outside-class corpus instances.  Every certified
report is checked here in plain numpy, from the data and the report alone.
"""

import numpy as np
import pytest

from nonalter import corpus
from nonalter.classify import ArrangementClass, classify_problem
from nonalter.duality import DualPoint, DualSolveResult, solve_dual_2d
from nonalter.instances import random_quadform
from nonalter.quad_core import QuadForm
from nonalter.solve import recover_solution, solve_nonalter

TOL = 1e-8
OUTSIDE_CORPUS = ("ex22", "ex23", "cdt_s2", "hqpd_s5a", "hqpd_s5b")


def _replay_set():
    out = []
    for n, count in ((2, 30), (3, 8), (5, 10), (10, 10)):
        rng = np.random.default_rng(1000 + n)
        kept = []
        while len(kept) < count:
            g, h = random_quadform(rng, n), random_quadform(rng, n)
            if classify_problem(g, h, 1e-8).overall_class is ArrangementClass.OUTSIDE_NON_ALTER:
                f = random_quadform(rng, n, convex=True)
                kept.append((f"n{n}_{len(kept)}", f, g, h))
        out += kept
    return out + [(name, *corpus.load(name)[:3]) for name in OUTSIDE_CORPUS]


REPLAY = _replay_set()


@pytest.fixture(scope="module")
def reports():
    return {name: (f, g, h, solve_nonalter(f, g, h)) for name, f, g, h in REPLAY}


def _value(q: QuadForm, x: np.ndarray) -> float:
    return float(x @ q.A @ x + 2.0 * q.a @ x + q.a0)


def _lift(q: QuadForm) -> np.ndarray:
    return np.block([[np.array([[q.a0]]), q.a[None, :]], [q.a[:, None], q.A]])


def _independently_optimal(f, g, h, rep) -> bool:
    """x is feasible, f(x) = nu*, and the slack at the reported (gamma, lam)
    is PSD with gamma = nu*: weak duality then makes x a global minimizer."""
    x, nu, best = rep.x_star, rep.nu_star, rep.dual.best
    feasible = all(_value(q, x) <= TOL * (1.0 + np.abs(_lift(q)).max()) for q in (g, h))
    Z = _lift(f) + best.lambda1 * _lift(g) + best.lambda2 * _lift(h)
    Z[0, 0] -= best.gamma
    w = np.linalg.eigvalsh(Z)
    return (feasible and abs(_value(f, x) - nu) <= TOL * (1.0 + abs(nu))
            and min(best.lambda1, best.lambda2) >= 0.0 and best.gamma == nu
            and w[0] >= -1e-8 * (1.0 + np.abs(w).max()))


def test_replay_set_is_outside_the_class(reports):
    assert len(reports) == 63
    assert all(rep.classification.overall_class is ArrangementClass.OUTSIDE_NON_ALTER
               for *_, rep in reports.values())


def test_most_of_the_replay_is_certified(reports):
    certified = [name for name, (*_, rep) in reports.items() if rep.certified]
    assert len(certified) >= 58
    for name in certified:
        f, g, h, rep = reports[name]
        assert rep.status == "solved" and rep.attained and rep.side is None, name
        assert rep.oracle_estimate is None, name
        assert _independently_optimal(f, g, h, rep), name


def test_uncertified_reports_keep_the_fallback(reports):
    for name, (f, g, h, rep) in reports.items():
        if rep.certified:
            continue
        assert rep.status == ("estimate_only" if f.n <= 3 else "undetermined"), name
        if rep.status == "estimate_only":
            assert rep.dual.value <= rep.nu_star + TOL * (1.0 + abs(rep.nu_star)), name


def test_ex22_is_never_certified(reports):
    rep = reports["ex22"][3]
    assert rep.status == "estimate_only" and not rep.certified


@pytest.mark.parametrize("name", [name for name, *_ in REPLAY])
def test_swapping_constraints(reports, name):
    f, g, h, rep = reports[name]
    swapped = solve_nonalter(f, h, g)
    assert swapped.status == rep.status and swapped.certified == rep.certified
    if rep.nu_star is not None:
        assert swapped.nu_star == pytest.approx(rep.nu_star, rel=1e-9, abs=1e-12)


class TestKktRefinement:
    def _near_misses(self):
        # Both multipliers positive, and the dual's own point misses the
        # constraints by more than tol.
        for name, f, g, h in REPLAY:
            dual = solve_dual_2d(f, g, h)
            if dual.x is None or min(dual.best.lambda1, dual.best.lambda2) <= 0.0:
                continue
            if any(abs(_value(q, dual.x)) > TOL * (1.0 + q.data_scale()) for q in (g, h)):
                yield name, f, g, h, dual

    def test_refinement_closes_the_near_misses(self):
        found = 0
        for name, f, g, h, dual in self._near_misses():
            x, side, notes, refined = recover_solution(f, g, h, dual)
            assert x is not None and side is None, name
            assert "refinement" in notes[0], name
            # The returned dual certifies the refined point: its value is
            # psi at the refined multipliers and f there.
            assert refined.x is x and refined.best.gamma == refined.value
            assert (refined.best.lambda1, refined.best.lambda2) != (
                dual.best.lambda1, dual.best.lambda2)
            assert refined.value == pytest.approx(dual.value, rel=1e-12, abs=1e-12)
            assert max(abs(_value(g, x)), abs(_value(h, x))) <= 1e-12, name
            found += 1
        assert found == 5

    @pytest.mark.parametrize("A, a, a0", [
        (np.eye(2), [-2.0, -1.0], 5.0),  # KKT multipliers (1, -2)
        (-np.eye(2), [0.5, 1.0], 0.0),  # KKT multipliers (1/2, 2), Q = -I/2
    ])
    def test_refined_kkt_point_must_be_dual_feasible(self, A, a, a0):
        # On the unit disk with y >= 0, Newton's steps from near (1, 0) reach
        # the KKT point (1, 0) with both constraints active.  Its multipliers
        # prove nothing by weak duality: one is negative, or psi there is
        # -inf.  So the point is rejected and the input dual comes back.
        f = QuadForm(A, a, a0)
        g = QuadForm(np.eye(2), [0.0, 0.0], -1.0)
        h = QuadForm(np.zeros((2, 2)), [0.0, -0.5], 0.0)
        dual = DualSolveResult("finite", 0.0, DualPoint(1.0, 1.0, 0.0, 0.0), x=np.array([1.0, 1e-3]))
        x, _, notes, same = recover_solution(f, g, h, dual)
        assert x is None and notes[-1].endswith("unattained") and same is dual
