import numpy as np
import pytest

from conftest import poly1, poly2
from nonalter import corpus
from nonalter.classify import ArrangementClass
from nonalter.duality import DualPoint, sdp_certificate
from nonalter.oracle import GridSpec, grid_min, s1_empirical
from nonalter.quad_core import QuadForm, evaluate
from nonalter.solve import (
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

    def test_outside_class_is_estimate_only(self):
        f, g, h, _ = corpus.load("cdt_s2")
        rep = solve_nonalter(f, g, h)
        assert rep.status == "estimate_only" and not rep.certified
        assert rep.nu_star == pytest.approx(1.0, abs=1e-2)
        # The dual is still reported as a (possibly loose) lower bound.
        assert rep.dual is not None
        assert rep.dual.value <= rep.nu_star + 1e-6


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

    def test_constant_across_gamma(self):
        f = poly1(axx=1, bx=-6, c=9)
        g = poly1(axx=1, c=-1)
        h = QuadForm.constant(1, -1.0)
        assert side_of_sublevel(f, 3.0, g, h) == side_of_sublevel(f, 4.0, g, h)


class TestRecoverSolution:
    def test_branch_a_manifold(self):
        # f = x^2: minimizer manifold is the y-axis; g, h select y = 0.
        f = poly2(axx=1)
        g = poly2(ayy=1, c=-1)
        h = poly2(by=-1)
        x, side, notes = recover_solution(f, g, h, 0.0)
        assert x is not None
        assert np.allclose(x, [0.0, 0.0], atol=1e-8)

    def test_branch_b_mirror_side(self):
        f = poly1(axx=1, bx=-6, c=9)
        g = poly1(axx=1, c=-1)
        h = QuadForm.constant(1, -1.0)
        x, side, _ = recover_solution(f, g, h, 4.0)
        assert side == SIDE_G_POS_H_NEG
        assert x[0] == pytest.approx(1.0, abs=1e-7)
        assert evaluate(g, x) == pytest.approx(0.0, abs=1e-8)
        assert evaluate(h, x) <= 0

    def test_branch_a_unique_minimizer(self):
        f = poly2(axx=1, ayy=1)
        g = poly2(bx=1, by=1, c=-1)
        h = QuadForm.constant(2, -1.0)
        x, _, _ = recover_solution(f, g, h, 0.0)
        assert np.allclose(x, 0.0, atol=1e-10)


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
        from nonalter.classify import SearchSpec
        from nonalter.instances import random_nonalter_instance

        light = SearchSpec(n_samples=2500, grid_per_axis=21)
        checked = 0
        for _ in range(25):
            f, g, h = random_nonalter_instance(rng)
            rep = solve_nonalter(f, g, h, spec=light)
            if rep.status != "solved" or rep.x_star is None:
                continue
            tol = 1e-8
            fr, gr, hr = rep.residuals
            assert gr <= tol * (1 + g.data_scale())
            assert hr <= tol * (1 + h.data_scale())
            assert abs(fr) <= 1e-7 * (1 + abs(rep.nu_star))
            checked += 1
        assert checked >= 10
