import numpy as np
import pytest

from conftest import poly2
from nonalter import corpus
from nonalter.duality import (
    DualPoint,
    _probe,
    lagrangian_dual_value,
    sdp_certificate,
    slack_matrix,
    solve_dual_2d,
)
from nonalter.instances import random_quadform, random_triple
from nonalter.oracle import GridSpec, grid_min
from nonalter.quad_core import PsdVerdict, QuadForm, psd_status


def two_point_instance():
    f, g, h, _ = corpus.load("hqpd_s5a")
    return f, g, h


class TestClosedForm:
    def test_two_point_instance_at_known_multipliers(self):
        f, g, h = two_point_instance()
        # Q vanishes and the constant block gives lam2 - lam1.
        assert lagrangian_dual_value(f, g, h, 1.0, 2.0) == pytest.approx(1.0)

    def test_origin_multipliers(self):
        f = poly2(axx=1, ayy=1)
        z = QuadForm.zero(2)
        assert lagrangian_dual_value(f, z, z, 0.0, 0.0) == pytest.approx(0.0)

    def test_affine_objective_escapes(self):
        f = poly2(bx=1)
        z = QuadForm.zero(2)
        assert lagrangian_dual_value(f, z, z, 0.0, 0.0) == -np.inf

    def test_negative_multiplier_rejected(self):
        f = poly2(axx=1)
        z = QuadForm.zero(2)
        with pytest.raises(ValueError):
            lagrangian_dual_value(f, z, z, -1.0, 0.0)


class TestSolveDual2d:
    def test_two_point_instance(self):
        f, g, h = two_point_instance()
        res = solve_dual_2d(f, g, h)
        assert res.status == "finite"
        assert res.value == pytest.approx(1.0, abs=1e-6)
        # The maximum sits on the ray lam2 = 1 + lam1, lam1 >= 1.
        assert res.best.lambda1 >= 1.0 - 1e-6
        assert res.best.lambda2 == pytest.approx(1.0 + res.best.lambda1, abs=1e-4)

    def test_interior_minimum(self):
        f = poly2(axx=1, ayy=1)
        g = poly2(axx=1, ayy=1, c=-1)
        h = QuadForm.constant(2, -1.0)
        res = solve_dual_2d(f, g, h)
        assert res.status == "finite"
        assert res.value == pytest.approx(0.0, abs=1e-8)

    def test_boundary_identity(self):
        f = poly2(axx=-1, ayy=-1)
        g = poly2(axx=1, ayy=1, c=-1)
        h = QuadForm.constant(2, -1.0)
        res = solve_dual_2d(f, g, h)
        assert res.status == "finite"
        assert res.value == pytest.approx(-1.0, abs=1e-8)
        assert res.best.lambda1 == pytest.approx(1.0, abs=1e-4)

    def test_infeasible_everywhere(self):
        # min x over the whole plane: no multiplier combination helps.
        f = poly2(bx=1)
        g = QuadForm.constant(2, -1.0)
        h = QuadForm.constant(2, -1.0)
        res = solve_dual_2d(f, g, h)
        assert res.status == "dual_infeasible_everywhere"

    def test_domain_without_interior(self):
        # psi is finite only on the line lam1 = 1, where Q vanishes: no
        # barrier start exists and the best probe is the answer.
        f = poly2(bx=1)
        g = poly2(bx=-1, c=-1)
        h = QuadForm.constant(2, -1.0)
        res = solve_dual_2d(f, g, h)
        assert res.status == "finite"
        assert res.value == pytest.approx(-1.0, abs=1e-8)
        assert res.best.lambda1 == pytest.approx(1.0, abs=1e-8)

    def test_trace_collection(self):
        f, g, h = two_point_instance()
        res = solve_dual_2d(f, g, h, collect_trace=True)
        assert res.trace and all(set(e) == {"lambda1", "lambda2", "value"} for e in res.trace)
        # One entry per Newton iterate, and the result is the best of them.
        assert len(res.trace) < 1000
        assert max(e["value"] for e in res.trace) == pytest.approx(res.value, rel=1e-12)

    def test_unbounded_dual_is_not_finite(self):
        # g > 0 everywhere: the primal is infeasible and psi grows without bound.
        f = poly2(axx=1, ayy=1, bx=2)
        g = poly2(axx=1, ayy=1, c=1)
        h = poly2(axx=-1, ayy=-1, c=-1)
        res = solve_dual_2d(f, g, h)
        assert res.status == "numerical_failure"

    def test_reported_value_matches_best_point(self, rng):
        for _ in range(15):
            f = random_quadform(rng, 2, convex=rng.uniform() < 0.5)
            g = random_quadform(rng, 2)
            h = random_quadform(rng, 2)
            res = solve_dual_2d(f, g, h)
            if res.status != "finite":
                continue
            replay = lagrangian_dual_value(f, g, h, res.best.lambda1, res.best.lambda2)
            assert replay == pytest.approx(res.value, rel=1e-8, abs=1e-10)


# Dual optimum of each corpus instance, as the grid/simplex/golden maximizer
# reported it, except ex22 and ex25b.  There that maximizer returned
# 49.00000018 and 4.00000004: it evaluated psi where Q had an eigenvalue of
# about -1e-12, inside the closed form's PSD margin, so its value exceeded
# the supremum.  The suprema, 49 and 4, follow by hand from the diagonal data.
CORPUS_DUAL_VALUES = {
    "ex22": 49.0,
    "ex23": 1.000000000005,
    "ex24": 23.633598912221238,
    "ex25a": 2.000000000003,
    "ex25b": 4.0,
    "cdt_s2": 1.0,
    "hqpd_s5a": 1.0,
    "hqpd_s5b": 0.0,
    "qp1qc_embed": 1.0,
    "gtrs": 1.0,
}


class TestCorpusRegression:
    @pytest.mark.parametrize("name", corpus.NAMES)
    def test_value(self, name):
        f, g, h, _ = corpus.load(name)
        res = solve_dual_2d(f, g, h)
        expected = CORPUS_DUAL_VALUES[name]
        # hqpd_s5a: the optimal multipliers form an unbounded ray.
        rtol = 1e-6 if name == "hqpd_s5a" else 1e-9
        assert res.status == "finite"
        assert abs(res.value - expected) <= rtol * (1.0 + abs(expected))
        assert res.evaluations <= 4500

    @pytest.mark.parametrize("name", corpus.NAMES)
    def test_certificate_replay_and_swap(self, name):
        f, g, h, _ = corpus.load(name)
        res = solve_dual_2d(f, g, h)
        b = res.best
        assert sdp_certificate(f, g, h, b).feasible
        assert b.gamma == res.value
        replay = lagrangian_dual_value(f, g, h, b.lambda1, b.lambda2)
        assert abs(replay - res.value) <= 1e-9 * (1.0 + abs(res.value))
        swapped = solve_dual_2d(f, h, g)
        assert abs(swapped.value - res.value) <= 1e-9 * (1.0 + abs(res.value))
        # The swapped multipliers are optimal for the original order.
        mirrored = lagrangian_dual_value(f, g, h, swapped.best.lambda2, swapped.best.lambda1)
        assert abs(mirrored - res.value) <= 1e-9 * (1.0 + abs(res.value))


class TestProbe:
    def test_stacked_closed_form_matches_scalar(self, rng):
        # The scalar closed form is the reference; the stacked one sums the
        # same terms in another order.
        finite = 0
        for trial in range(20):
            f, g, h = random_triple(rng)
            if trial % 2:
                f = random_quadform(rng, 2, convex=True)
            lam1, lam2 = rng.uniform(0, 3, size=(2, 40))
            lam1[:10] = 0.0
            psi, strict = _probe(f, g, h, lam1, lam2)
            for k in range(lam1.size):
                ref = lagrangian_dual_value(f, g, h, lam1[k], lam2[k])
                if ref == -np.inf:
                    assert psi[k] == -np.inf and not strict[k]
                else:
                    assert psi[k] == pytest.approx(ref, rel=1e-12, abs=1e-12)
                    finite += 1
        assert finite >= 100


class TestSdpCertificate:
    def test_vanishing_slack(self):
        f, g, h = two_point_instance()
        rep = sdp_certificate(f, g, h, DualPoint(1.0, 2.0, 1.0, 0.0))
        assert rep.slack_min_eig >= -1e-9
        assert rep.feasible
        assert rep.slack_norm == pytest.approx(0.0, abs=1e-12)

    def test_lower_gamma_adds_margin(self, rng):
        for _ in range(10):
            f = random_quadform(rng, 2, convex=True)
            g = random_quadform(rng, 2)
            h = random_quadform(rng, 2)
            res = solve_dual_2d(f, g, h)
            if res.status != "finite":
                continue
            b = res.best
            below = sdp_certificate(f, g, h, DualPoint(b.lambda1, b.lambda2, b.gamma - 1.0, 0.0))
            assert below.feasible and below.slack_min_eig >= -1e-9
            above = sdp_certificate(f, g, h, DualPoint(b.lambda1, b.lambda2, b.gamma + 1.0, 0.0))
            assert not above.feasible

    def test_monotone_slack_in_gamma(self, rng):
        for _ in range(30):
            f, g, h = random_triple(rng)
            lam1, lam2 = rng.uniform(0, 3, size=2)
            gamma = float(rng.uniform(-5, 5))
            Z = slack_matrix(f, g, h, gamma, lam1, lam2)
            if psd_status(Z).verdict is PsdVerdict.INDEFINITE:
                continue
            lower = slack_matrix(f, g, h, gamma - rng.uniform(0.1, 3.0), lam1, lam2)
            assert psd_status(lower).verdict is not PsdVerdict.INDEFINITE


class TestDualReadingsAgree:
    def test_bisection_on_gamma_matches_closed_form(self, rng):
        checked = 0
        for trial in range(600):
            if checked >= 200:
                break
            f, g, h = random_triple(rng)
            if trial % 2:
                f = random_quadform(rng, 2, convex=True)
            lam1, lam2 = rng.uniform(0, 4, size=2) if trial % 3 else rng.uniform(0, 0.5, size=2)
            value = lagrangian_dual_value(f, g, h, lam1, lam2)
            if value == -np.inf:
                # No moderate gamma makes the slack PSD.  (Very negative
                # gamma inflates ||Z|| and washes out the relative margin,
                # so probe at a value tied to the data scale.)
                scale = 1 + f.data_scale() + g.data_scale() + h.data_scale()
                Z = slack_matrix(f, g, h, -1e3 * scale, lam1, lam2)
                st = psd_status(Z)
                if abs(st.min_eig) > 1e-5 * scale:
                    assert st.verdict is PsdVerdict.INDEFINITE
                continue
            scale = 1 + f.data_scale() + g.data_scale() + h.data_scale()
            if abs(value) > 50 * scale:
                # Q is nearly singular: the gamma-crossing of the slack is
                # degenerate and neither reading resolves it sharply.
                continue
            lo, hi = value - 10.0, value + 10.0
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                Z = slack_matrix(f, g, h, mid, lam1, lam2)
                # Same tight margin as the closed form, so both readings
                # resolve the PSD boundary identically.
                if psd_status(Z, tol=1e-12).verdict is PsdVerdict.INDEFINITE:
                    hi = mid
                else:
                    lo = mid
            assert lo == pytest.approx(value, abs=1e-7 * (1 + abs(value)) + 1e-7)
            checked += 1
        assert checked >= 100


class TestConcavity:
    def test_midpoint_concavity(self, rng):
        tested = 0
        while tested < 100:
            f, g, h = random_triple(rng)
            la = rng.uniform(0, 4, size=2)
            lb = rng.uniform(0, 4, size=2)
            va = lagrangian_dual_value(f, g, h, *la)
            vb = lagrangian_dual_value(f, g, h, *lb)
            if va == -np.inf or vb == -np.inf:
                continue
            mid = 0.5 * (la + lb)
            vm = lagrangian_dual_value(f, g, h, *mid)
            assert vm >= 0.5 * (va + vb) - 1e-8 * (1 + abs(va) + abs(vb))
            tested += 1


class TestWeakDuality:
    def test_dual_below_oracle_on_random_instances(self, rng):
        spec = GridSpec.cube(2, resolution=201, eps=0.0)
        checked = 0
        for _ in range(90):
            f, g, h = random_triple(rng)
            res = solve_dual_2d(f, g, h)
            if res.status != "finite":
                continue
            o = grid_min(f, g, h, spec)
            if o.feasible_count == 0:
                continue
            assert res.value <= o.min_value + 1e-6
            checked += 1
        assert checked >= 25
