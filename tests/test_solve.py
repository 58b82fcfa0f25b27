from dataclasses import replace

import numpy as np
import pytest

from conftest import poly1, poly2, poly3
from nonalter import corpus, solve
from nonalter.classify import ArrangementClass
from nonalter.duality import DualPoint, DualSolveResult, sdp_certificate, solve_dual_2d
from nonalter.oracle import GridSpec, grid_min, s1_empirical
from nonalter.qp1qc import solve_qp1qc
from nonalter.quad_core import QuadForm, evaluate, null_basis, restrict_affine
from nonalter.solve import (
    SIDE_G_NEG_H_POS,
    SIDE_G_POS_H_NEG,
    NoSublevelPoint,
    recover_solution,
    side_of_sublevel,
    solve_nonalter,
)


class TestSolveExamples:
    def test_elliptic_shell(self):
        f, g, h, _ = corpus.load("ex25a")
        rep = solve_nonalter(f, g, h)
        assert rep.status == "solved" and rep.certified
        assert rep.nu_star == pytest.approx(2.0, abs=1e-7)
        assert rep.attained
        assert abs(rep.x_star[0]) == pytest.approx(np.sqrt(2.0), abs=1e-6)
        assert rep.x_star[1] == pytest.approx(0.0, abs=1e-6)

    def test_single_constraint_embedding(self):
        f, g, h, _ = corpus.load("qp1qc_embed")
        rep = solve_nonalter(f, g, h)
        assert rep.classification.overall_class is ArrangementClass.REDUCES_TO_QP1QC
        assert rep.nu_star == pytest.approx(1.0, abs=1e-8)
        assert rep.x_star[0] == pytest.approx(1.0, abs=1e-7)

    def test_parallel_affine_pair(self):
        f = poly1(axx=1)
        g = poly1(bx=1, c=-1)
        h = poly1(bx=-2, c=0.5)
        rep = solve_nonalter(f, g, h)
        assert rep.classification.overall_class is ArrangementClass.AFFINE_PAIR_REDUCTION
        assert rep.status == "solved" and rep.certified and rep.attained
        assert rep.reduction.kind == "product_constraint"
        assert rep.nu_star == pytest.approx(0.0625, abs=1e-9)
        assert rep.x_star[0] == pytest.approx(0.25, abs=1e-7)

    def test_infeasible_constant(self):
        rep = solve_nonalter(poly1(axx=1), QuadForm.constant(1, 1.0), poly1(bx=1))
        assert rep.status == "infeasible"

    def test_interval_band(self):
        f, g, h, _ = corpus.load("gtrs")
        rep = solve_nonalter(f, g, h)
        assert rep.status == "solved"
        assert rep.nu_star == pytest.approx(1.0, abs=1e-7)
        assert np.allclose(rep.x_star, [1.0, 0.0], atol=1e-6)

    def test_outside_class_certified_by_weak_duality(self, monkeypatch):
        # Outside the class the dual's minimizer (1, 0) is feasible and
        # reaches the dual value, so weak duality certifies it without the
        # grid; the side is an in-class theorem and stays unset.
        monkeypatch.setattr(solve, "grid_min", None)
        f, g, h, _ = corpus.load("cdt_s2")
        rep = solve_nonalter(f, g, h)
        assert rep.classification.overall_class is ArrangementClass.OUTSIDE_NON_ALTER
        assert rep.status == "solved" and rep.certified and rep.attained
        assert rep.nu_star == pytest.approx(1.0, abs=1e-9)
        assert rep.dual.value == rep.nu_star
        assert rep.side is None and rep.oracle_estimate is None
        assert "weak duality" in rep.pathway[-1]

    def test_outside_class_with_a_gap_is_estimate_only(self, monkeypatch):
        # ex22 has a duality gap: no feasible point reaches the dual value
        # 49, so the grid estimate remains, bounded below by the dual.
        grid_calls = []
        monkeypatch.setattr(solve, "grid_min", lambda *a: grid_calls.append(a) or grid_min(*a))
        f, g, h, _ = corpus.load("ex22")
        rep = solve_nonalter(f, g, h)
        assert rep.status == "estimate_only" and not rep.certified
        assert rep.x_star is None and grid_calls
        assert rep.dual.value == pytest.approx(49.0, rel=1e-9)
        assert rep.nu_star == pytest.approx(63.845, abs=1e-9)
        assert rep.dual.value <= rep.nu_star
        assert rep.pathway[-1].startswith("weak duality found no feasible point")

    def test_outside_class_without_a_finite_dual(self):
        # f is strongly concave: psi is -inf everywhere, so the fallback
        # note names no dual value.
        from nonalter.instances import random_quadform

        rng = np.random.default_rng(5)
        f = random_quadform(rng, 2) - QuadForm(5.0 * np.eye(2), np.zeros(2), 0.0)
        rep = solve_nonalter(f, random_quadform(rng, 2), random_quadform(rng, 2))
        assert rep.classification.overall_class is ArrangementClass.OUTSIDE_NON_ALTER
        assert rep.dual.status == "dual_infeasible_everywhere"
        assert rep.status == "estimate_only" and not rep.certified
        assert rep.pathway[-1] == "no certified method outside the class: the dual is not finite"

    def test_annulus_with_a_planar_kernel(self):
        # f = x1^2 over 1/2 <= |y - c| <= 1, y = (x2, x3): the value 0 is
        # attained on the annulus.  The Lagrangian minimizer at (0, 0) is the
        # origin, and no kernel eigenvector line through it meets the annulus.
        c = np.array([0.0, 2.0, 2.0])
        P = np.diag([0.0, 1.0, 1.0])
        f = QuadForm(np.diag([1.0, 0.0, 0.0]), np.zeros(3), 0.0)
        g = QuadForm(P, -c, c @ c - 1.0)
        h = QuadForm(-P, c, 0.25 - c @ c)
        rep = solve_nonalter(f, g, h)
        assert rep.classification.overall_class is ArrangementClass.NON_ALTER
        assert rep.status == "solved" and rep.certified and rep.attained
        assert rep.nu_star == 0.0
        assert abs(rep.residuals[0]) <= 1e-12
        assert max(rep.residuals[1:]) <= 1e-8


class TestObjectiveScaling:
    @pytest.mark.parametrize("name, nu_scaled", [
        ("ex24", 236335.989122), ("ex25a", 2e4), ("gtrs", 1e4),
    ])
    def test_value_scales_with_objective(self, name, nu_scaled):
        # Large multipliers must stay reachable: with f scaled by 1e4 the
        # optimal lam is 1e4 times larger.
        f, g, h, _ = corpus.load(name)
        base = solve_nonalter(f, g, h)
        rep = solve_nonalter(1e4 * f, g, h)
        assert rep.status == "solved" and rep.certified and rep.attained
        assert rep.nu_star == pytest.approx(1e4 * base.nu_star, rel=1e-9)
        assert rep.nu_star == pytest.approx(nu_scaled, rel=1e-9)
        assert sdp_certificate(1e4 * f, g, h, rep.dual.best).feasible


class TestSideOfSublevel:
    def test_outside_ball(self):
        f = poly1(axx=1, bx=-6, c=9)  # (x-3)^2
        g = poly1(axx=1, c=-1)
        h = QuadForm.constant(1, -1.0)
        assert side_of_sublevel(f, 4.0, g, h) == SIDE_G_POS_H_NEG

    def test_empty_sublevel(self):
        f = poly2(axx=1, ayy=1)
        with pytest.raises(NoSublevelPoint):
            side_of_sublevel(f, -1.0, poly2(axx=1), poly2(ayy=1))

    def test_escape_ray_reuses_the_unconstrained_solve(self, eig_calls):
        # f = -x^2 is unbounded below: the probe walks d, 2d along the
        # negative-curvature direction to |x| = 2, where f = -4 < gamma - 1.
        f = poly1(axx=-1)
        assert side_of_sublevel(f, -0.5, poly1(axx=1, c=-1), poly1(axx=-1, c=1)) == SIDE_G_POS_H_NEG
        assert eig_calls[0] == 1

    def test_constant_across_gamma(self):
        f = poly1(axx=1, bx=-6, c=9)
        g = poly1(axx=1, c=-1)
        h = QuadForm.constant(1, -1.0)
        assert side_of_sublevel(f, 3.0, g, h) == side_of_sublevel(f, 4.0, g, h)


def _origin_dual(nu):
    """A finite dual at multipliers (0, 0) with value nu and no point."""
    return DualSolveResult(status="finite", value=nu, best=DualPoint(0.0, 0.0, nu, 0.0))


class TestRecoverSolution:
    def test_branch_a_manifold(self):
        # f = x^2: minimizer manifold is the y-axis; g, h select y = 0.
        f = poly2(axx=1)
        g = poly2(ayy=1, c=-1)
        h = poly2(by=-1)
        x, side, notes, _ = recover_solution(f, g, h, _origin_dual(0.0))
        assert x is not None and side is None
        assert np.allclose(x, [0.0, 0.0], atol=1e-8)

    def test_branch_b_mirror_side(self):
        f = poly1(axx=1, bx=-6, c=9)
        g = poly1(axx=1, c=-1)
        h = QuadForm.constant(1, -1.0)
        dual = solve_dual_2d(f, g, h)
        assert dual.value == pytest.approx(4.0, abs=1e-9)
        x, side, _, _ = recover_solution(f, g, h, dual)
        assert side == SIDE_G_POS_H_NEG
        assert x[0] == pytest.approx(1.0, abs=1e-7)
        assert evaluate(g, x) == pytest.approx(0.0, abs=1e-8)
        assert evaluate(h, x) <= 0

    def test_side_g_neg_h_pos(self):
        f, g, h, _ = corpus.load("ex25a")
        x, side, _, _ = recover_solution(f, g, h, solve_dual_2d(f, g, h))
        assert side == SIDE_G_NEG_H_POS
        assert evaluate(h, x) == pytest.approx(0.0, abs=1e-8) and evaluate(g, x) <= 1e-8

    def test_positive_multiplier_needs_its_constraint_active(self):
        # x = 0 has the dual's value and meets both constraints, but g(0) = -1
        # although the multiplier of g is positive.
        f = poly1(axx=1, bx=-6, c=9)
        g = poly1(axx=1, c=-1)
        h = QuadForm.constant(1, -1.0)
        dual = DualSolveResult("finite", 9.0, DualPoint(2.0, 0.0, 9.0, 0.0), x=np.zeros(1))
        x, side, notes, _ = recover_solution(f, g, h, dual)
        assert x is None and side == SIDE_G_POS_H_NEG and notes[-1].endswith("unattained")
        x, side, _, _ = recover_solution(f, g, h, replace(dual, best=DualPoint(0.0, 0.0, 9.0, 0.0)))
        assert np.array_equal(x, np.zeros(1)) and side is None

    def test_branch_a_unique_minimizer(self):
        f = poly2(axx=1, ayy=1)
        g = poly2(bx=1, by=1, c=-1)
        h = QuadForm.constant(2, -1.0)
        x, _, _, _ = recover_solution(f, g, h, _origin_dual(0.0))
        assert np.allclose(x, 0.0, atol=1e-10)

    def test_manifold_gates_in_constraint_units(self):
        # Minimizers of f are (0, y); g = y^2 + 0.5 is positive on all of
        # them.  With f's value 1e8 a gate in f's units would pass g = 0.5.
        f = poly2(axx=1, c=1e8)
        g = poly2(ayy=1, c=0.5)
        h = QuadForm.constant(2, -1.0)
        x, side, notes, _ = recover_solution(f, g, h, _origin_dual(1e8))
        assert x is None and side is None and notes[-1].endswith("unattained")

    def test_branch_a_decomposes_f_once(self, eig_calls):
        # The minimizer manifold comes from the kernel of the unconstrained
        # solve: one eigendecomposition of f.A, plus those of the subproblem.
        f, g, h = poly2(axx=1), poly2(ayy=1, c=-1), poly2(by=-1)
        Z = null_basis(f.A)
        eig_calls[0] = 0
        solve_qp1qc(restrict_affine(g, np.zeros(2), Z), restrict_affine(h, np.zeros(2), Z))
        sub = eig_calls[0]
        eig_calls[0] = 0
        x, _, _, _ = recover_solution(f, g, h, _origin_dual(0.0))
        assert x is not None and eig_calls[0] == 1 + sub
        eig_calls[0] = 0
        recover_solution(poly2(axx=1, ayy=1), poly2(bx=1, by=1, c=-1), QuadForm.constant(2, -1.0),
                         _origin_dual(0.0))
        assert eig_calls[0] == 1

    def test_recovery_from_the_dual_solves_nothing(self, eig_calls, monkeypatch):
        # The dual's point is checked, not recomputed: no single-constraint
        # solve and no eigendecomposition.
        calls = []
        for name in ("ex24", "ex25a", "gtrs"):
            for scale in (1.0, 1e4):
                f, g, h, _ = corpus.load(name)
                f = scale * f
                dual = solve_dual_2d(f, g, h)
                with monkeypatch.context() as m:
                    m.setattr(solve, "solve_qp1qc", lambda *a: calls.append(a))
                    eig_calls[0] = 0
                    x, side, _, _ = recover_solution(f, g, h, dual)
                assert x is not None and side is not None
                assert calls == [] and eig_calls[0] == 0


class TestStrongDualityOnCorpus:
    @pytest.mark.parametrize("name", ["ex24", "ex25a", "gtrs"])
    def test_value_matches_oracle(self, name):
        f, g, h, _ = corpus.load(name)
        rep = solve_nonalter(f, g, h)
        assert rep.classification.overall_class is ArrangementClass.NON_ALTER
        o = grid_min(f, g, h, GridSpec.cube(2, resolution=801, eps=0.0))
        assert o.feasible_count > 0
        grad = 2 * (f.A @ o.argmin + f.a)
        lip = np.linalg.norm(grad) + 4 * np.abs(f.A).max() * max(o.spacing)
        assert rep.nu_star <= o.min_value + 1e-9
        assert o.min_value - rep.nu_star <= 3 * lip * max(o.spacing) + 1e-3


class TestSProcedureEquivalence:
    @pytest.mark.parametrize("name", ["ex24", "ex25a", "gtrs"])
    def test_gamma_sweep(self, name):
        f, g, h, _ = corpus.load(name)
        rep = solve_nonalter(f, g, h)
        nu = rep.nu_star
        best = rep.dual.best
        spec = GridSpec.cube(2, resolution=401)
        deltas = [0.05, 0.2, 0.5, 1.0, 2.0]
        for d in deltas:
            gamma = nu - d * (1 + abs(nu)) / 2
            # Multipliers witnessing the implication at every lower gamma.
            cert = sdp_certificate(f, g, h, DualPoint(best.lambda1, best.lambda2, gamma, 0.0))
            assert cert.feasible
            assert s1_empirical(f, gamma, g, h, spec)
        for d in deltas:
            gamma = nu + d * (1 + abs(nu)) / 2
            # Above the optimum the oracle exhibits a feasible point below gamma.
            assert not s1_empirical(f, gamma, g, h, spec, tol=1e-9)


class TestDichotomy:
    @pytest.mark.parametrize("name", ["ex24", "ex25a", "gtrs"])
    def test_one_side_constant_in_gamma(self, name):
        from nonalter.oracle import grid_points
        from nonalter.quad_core import evaluate_many, unconstrained_min

        f, g, h, _ = corpus.load(name)
        rep = solve_nonalter(f, g, h)
        nu = rep.nu_star
        lo = unconstrained_min(f).value
        spec = GridSpec.cube(2, resolution=401)
        pts = grid_points(spec)
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
            assert neg_pos or pos_neg
            sides.append(neg_pos)
        assert len(sides) >= 3
        assert all(s == sides[0] for s in sides)


class TestRecoverySoundness:
    def test_residual_invariants(self, rng):
        from nonalter.instances import random_nonalter_instance

        checked = 0
        for _ in range(25):
            f, g, h = random_nonalter_instance(rng)
            rep = solve_nonalter(f, g, h)
            if rep.status != "solved" or rep.x_star is None:
                continue
            tol = 1e-8
            fr, gr, hr = rep.residuals
            assert gr <= tol * (1 + g.data_scale())
            assert hr <= tol * (1 + h.data_scale())
            assert abs(fr) <= 1e-7 * (1 + abs(rep.nu_star))
            checked += 1
        assert checked >= 10


def _feasible_at(q, x, tol=1e-8):
    return evaluate(q, x) <= tol * (1.0 + q.data_scale())


class TestEveryPath:
    """One instance per branch of ``solve_nonalter``, each value checked
    against a closed form or the grid oracle."""

    def _solved(self, f, g, h, cls, nu, x=None):
        rep = solve_nonalter(f, g, h)
        assert rep.classification.overall_class is cls
        assert rep.status == "solved" and rep.certified and rep.attained
        assert rep.nu_star == pytest.approx(nu, abs=1e-9)
        assert evaluate(f, rep.x_star) == pytest.approx(nu, abs=1e-9)
        assert _feasible_at(g, rep.x_star) and _feasible_at(h, rep.x_star)
        if x is not None:
            assert np.allclose(rep.x_star, x, atol=1e-7)
        if f.n <= 2:
            o = grid_min(f, g, h, GridSpec.cube(f.n, resolution=401, eps=1e-9))
            assert o.min_value == pytest.approx(nu, abs=1e-9)
        return rep

    def test_assumption4_one_flat(self):
        # g = x1^2 pins x1 = 0; on that line f = 1 + (x2 - 1)^2 under x2 <= 0.
        rep = self._solved(poly2(axx=1, ayy=1, bx=-2, by=-2, c=2), poly2(axx=1), poly2(by=1),
                           ArrangementClass.REDUCES_TO_QP1QC, 2.0, [0.0, 0.0])
        assert rep.classification.reduction_hint == {"kind": "subspace", "flat": ("g",)}

    def test_assumption4_two_flats_meet_in_a_point(self):
        # (x1 - 1)^2 <= 0 and (x2 + 2)^2 <= 0: the point (1, -2), where
        # f = x1^2 + x1 x2 + x2^2 = 3.
        rep = self._solved(poly2(axx=1, axy=1, ayy=1), poly2(axx=1, bx=-2, c=1),
                           poly2(ayy=1, by=4, c=4), ArrangementClass.REDUCES_TO_QP1QC,
                           3.0, [1.0, -2.0])
        assert rep.pathway[-1] == "subspace is a single point"

    def test_assumption4_two_flats_meet_in_a_line(self):
        # (x1 + x2)^2 <= 0 and (x2 - 2)^2 <= 0: the line (-2, 2, t), where
        # f = |x|^2 - 2 x3 = 8 + t^2 - 2t is least at t = 1.
        g = QuadForm(np.outer([1.0, 1.0, 0.0], [1.0, 1.0, 0.0]), np.zeros(3), 0.0)
        self._solved(poly3([1, 1, 1], lin=(0, 0, -2)), g, poly3([0, 1, 0], lin=(0, -4, 0), c=4),
                     ArrangementClass.REDUCES_TO_QP1QC, 7.0, [-2.0, 2.0, 1.0])

    def test_assumption5_degenerate(self):
        # 1 - x^2 <= 0 and x - 1 <= 0: {x <= -1} and the point x = 1.
        rep = self._solved(poly1(axx=1, bx=-1.8, c=0.81), poly1(axx=-1, c=1), poly1(bx=1, c=-1),
                           ArrangementClass.ASSUMPTION5_DEGENERATE, 0.01, [1.0])
        assert rep.reduction.kind == "halfspace_union_hyperplane"

    def test_assumption5_degenerate_plane_branch(self):
        # The same pattern in the plane: the hyperplane branch is the line
        # x1 = 1, where f = 0.01 + (x2 - 1)^2.
        self._solved(poly2(axx=1, bx=-1.8, ayy=1, by=-2, c=1.81), poly2(axx=-1, c=1),
                     poly2(bx=1, c=-1), ArrangementClass.ASSUMPTION5_DEGENERATE,
                     0.01, [1.0, 1.0])

    def test_assumption5_unbounded_branch(self):
        # f = -x^2 falls without bound on the halfspace x <= -1.
        rep = solve_nonalter(poly1(axx=-1), poly1(axx=-1, c=1), poly1(bx=1, c=-1))
        assert rep.classification.overall_class is ArrangementClass.ASSUMPTION5_DEGENERATE
        assert rep.status == "unbounded" and rep.certified and rep.nu_star is None
        assert rep.pathway[-1] == "one branch unbounded below"

    def test_assumption5_halfspace_only(self):
        # 1 - x^2 <= 0 and x + 1 <= 0: the halfspace x <= -1 alone.
        rep = self._solved(poly1(axx=1, bx=-1.8, c=0.81), poly1(axx=-1, c=1), poly1(bx=1, c=1),
                           ArrangementClass.REDUCES_TO_QP1QC, 3.61, [-1.0])
        assert rep.classification.reduction_hint == {"kind": "single_constraint", "which": "h"}

    def test_constant_objective(self):
        # Every point of the annulus 1 <= |x|^2 <= 4 is optimal for f = 3.
        rep = self._solved(QuadForm.constant(2, 3.0), poly2(axx=1, ayy=1, c=-4),
                           poly2(axx=-1, ayy=-1, c=1), ArrangementClass.NON_ALTER, 3.0)
        assert rep.pathway[-1] == "constant objective"

    def test_undetermined(self):
        rep = solve_nonalter(poly2(bx=1), poly2(axx=1, ayy=1), poly2(bx=1))
        assert rep.classification.overall_class is ArrangementClass.UNDETERMINED
        assert rep.status == "undetermined" and not rep.certified
        assert rep.nu_star is None and rep.x_star is None

    def test_in_class_dual_infeasible(self):
        # f = -|x|^2 on an interval band l <= q0 <= u around an indefinite q0:
        # the band is unbounded, so f is too.  g + h = l - u is constant, and
        # far out along q0's positive eigenvector a step along its negative
        # one reaches the level g = (l - u)/2, where h = g < 0.
        from nonalter.instances import interval_instance

        g, h = interval_instance(np.random.default_rng(0), 2)
        f = QuadForm(-np.eye(2), np.zeros(2), 0.0)
        rep = solve_nonalter(f, g, h)
        assert rep.classification.overall_class is ArrangementClass.NON_ALTER
        assert rep.status == "dual_infeasible" and not rep.certified
        assert rep.nu_star is None and rep.x_star is None
        assert rep.dual.status == "dual_infeasible_everywhere"
        # The evidence is the dual's certificate, not a grid point: Y is PSD
        # with trace 1, f.A is negative on it and g.A = -h.A vanishes on it.
        assert rep.oracle_estimate is None
        cert = rep.dual.certificate
        Y = (cert.vectors * cert.weights) @ cert.vectors.T
        assert np.linalg.eigvalsh(Y)[0] >= -1e-12 and np.trace(Y) == pytest.approx(1.0, abs=1e-12)
        assert np.sum(Y * f.A) == pytest.approx(cert.value, abs=1e-12) and cert.value < -cert.margin
        assert all(abs(np.sum(Y * q.A)) <= 1e-11 * np.abs(q.A).max() for q in (g, h))
        assert 0 < rep.dual.phase_one <= 8
        level = 0.5 * (g + h).a0
        d, U = np.linalg.eigh(g.A)
        for R in (1e2, 1e4):
            p = R * U[:, 1]
            b = 2.0 * U[:, 0] @ (g.A @ p + g.a)
            s = (-b - np.sqrt(b * b - 4 * d[0] * (evaluate(g, p) - level))) / (2 * d[0])
            x = p + s * U[:, 0]
            assert _feasible_at(g, x, 1e-6) and _feasible_at(h, x, 1e-6)
            assert evaluate(f, x) <= -R * R


def _in_frame(Q, s, A, a, a0):
    """The quadratic y -> y'Ay + 2a'y + a0 read at y = Q'(x - s)."""
    B = Q @ A @ Q.T
    return QuadForm(B, Q @ a - B @ s, float(s @ B @ s - 2 * a @ Q.T @ s + a0))


class TestAssumption5Orientation:
    def test_rotated_copies(self):
        # In the frame y = Q'(x - s): g = k(1 - y1^2), h = m(sigma*y1 + c0),
        # f = (y1 - 0.9)^2 + y2^2.  With c0 = -1 the feasible set is a
        # halfspace plus the line y1 = sigma; with c0 = 1 the halfspace
        # sigma*y1 <= -1 alone.  The minimum is 3.61 at y1 = -1 when that
        # halfspace is y1 <= -1, and 0.01 at y1 = 1 otherwise.
        rng = np.random.default_rng(3)
        zero = np.zeros((2, 2))
        for i in range(40):
            sigma, c0 = (1.0, -1.0, 1.0, -1.0)[i % 2], (-1.0, 1.0)[(i // 2) % 2]
            angle = rng.uniform(0.0, 2.0 * np.pi)
            Q = np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
            s = rng.normal(size=2)
            k, m = rng.uniform(0.5, 2.0, size=2)
            g = _in_frame(Q, s, np.diag([-k, 0.0]), np.zeros(2), k)
            h = _in_frame(Q, s, zero, np.array([m * sigma / 2.0, 0.0]), m * c0)
            f = _in_frame(Q, s, np.eye(2), np.array([-0.9, 0.0]), 0.81)
            y1 = -1.0 if (sigma, c0) == (1.0, 1.0) else 1.0
            nu, x = (y1 - 0.9) ** 2, Q @ [y1, 0.0] + s
            for rep in (solve_nonalter(f, g, h), solve_nonalter(f, h, g)):
                assert rep.status == "solved" and rep.certified
                assert rep.nu_star == pytest.approx(nu, abs=1e-8)
                assert np.allclose(rep.x_star, x, atol=1e-6)
