import math

import numpy as np
import pytest

from conftest import poly1, poly2, trust_region_pair
from nonalter import corpus, qp1qc, quad_core
from nonalter.duality import lagrangian_dual_value
from nonalter.instances import random_nonalter_instance, random_quadform, random_triple
from nonalter.oracle import GridSpec, grid_min, probe_unbounded
from nonalter.qp1qc import solve_qp1qc, solve_on_affine_subspace
from nonalter.quad_core import (
    INF_PSD_RTOL,
    EigenDecomp,
    QuadForm,
    Workspace,
    _min_clearly_below,
    eig_of,
    evaluate,
    pencil_interval,
    unconstrained_min,
)


class TestHandCases:
    def test_boundary_minimum(self):
        f = poly1(axx=1, bx=-4, c=4)  # (x-2)^2
        g = poly1(axx=1, c=-1)
        r = solve_qp1qc(f, g)
        assert r.status == "attained"
        assert r.value == pytest.approx(1.0, abs=1e-8)
        assert r.x[0] == pytest.approx(1.0, abs=1e-8)
        assert r.lam == pytest.approx(1.0, abs=1e-6)

    def test_interior_minimum(self):
        f = poly2(axx=1, ayy=1)
        g = poly2(axx=1, ayy=1, c=-1)
        r = solve_qp1qc(f, g)
        assert r.status == "attained"
        assert r.value == pytest.approx(0.0, abs=1e-10)
        assert np.allclose(r.x, 0.0, atol=1e-8)
        assert r.lam == pytest.approx(0.0, abs=1e-8)

    def test_hard_case_kernel_step(self):
        f = poly2(ayy=-1)  # -y^2
        g = poly2(axx=1, ayy=1, c=-1)
        r = solve_qp1qc(f, g)
        assert r.status == "attained"
        assert r.value == pytest.approx(-1.0, abs=1e-8)
        assert abs(r.x[0]) == pytest.approx(0.0, abs=1e-6)
        assert abs(r.x[1]) == pytest.approx(1.0, abs=1e-6)
        assert r.lam == pytest.approx(1.0, abs=1e-14)
        assert r.kkt.stationarity <= 1e-14

    @pytest.mark.parametrize("c", [(2.0, 2.0), (2.0, 0.0)])
    def test_hard_case_with_a_planar_kernel(self, c):
        # min |w - c|^2 s.t. |w - c| >= 1/2: at lam* = 1, Q = 0 and x(lam*) = 0.
        # Off the axes no kernel eigenvector line through 0 meets the circle;
        # the line toward a point where g changes sign does.
        c = np.array(c)
        f = QuadForm(np.eye(2), -c, c @ c)
        g = QuadForm(-np.eye(2), c, 0.25 - c @ c)
        r = solve_qp1qc(f, g)
        assert r.status == "attained"
        assert r.value == pytest.approx(0.25, rel=1e-12)
        assert evaluate(g, r.x) == pytest.approx(0.0, abs=1e-12)
        assert evaluate(f, r.x) == pytest.approx(0.25, rel=1e-12)

    def test_infeasible(self):
        r = solve_qp1qc(poly1(axx=1), poly1(axx=1, c=1))
        assert r.status == "infeasible"

    def test_constant_constraint_dropped(self):
        r = solve_qp1qc(poly1(axx=1, bx=-4, c=4), QuadForm.constant(1, -2.0))
        assert r.status == "attained" and r.value == pytest.approx(0.0, abs=1e-12)

    def test_unbounded(self):
        r = solve_qp1qc(poly2(axx=-1, ayy=-1), poly2(axx=1, ayy=1, c=-1e6))
        assert r.status in ("attained", "unbounded_below")
        # minimum over a huge disk is attained on its boundary, so check the
        # genuinely unbounded variant too
        r = solve_qp1qc(poly2(bx=1), poly2(axx=1, c=-1))  # min x on |x|<=1 strip: attained
        assert r.status == "attained" and r.value == pytest.approx(-1.0, abs=1e-8)
        r = solve_qp1qc(poly2(by=1), poly2(axx=1, c=-1))  # y is free
        assert r.status == "unbounded_below"

    def test_unattained_infimum(self):
        # min x^2 subject to 1 - xy <= 0: x -> 0 along xy = 1, so the
        # infimum 0 has no minimizer.
        r = solve_qp1qc(poly2(axx=1), poly2(axy=-1, c=1))
        assert r.status == "unattained"
        assert r.value == 0.0 and r.lam == 0.0 and r.x is None

    def test_equality_like_constraint(self):
        # g = (x-1)^2 has minimum exactly 0: the feasible set is the line x=1.
        f = poly2(axx=1, ayy=1)
        g = poly2(axx=1, bx=-2, c=1)
        r = solve_qp1qc(f, g)
        assert r.status == "attained"
        assert r.value == pytest.approx(1.0, abs=1e-9)
        assert r.x[0] == pytest.approx(1.0, abs=1e-8)


class TestAffineSubspace:
    def test_circle_on_line(self):
        f = poly2(axx=1, ayy=1)
        r = solve_on_affine_subspace(f, [1.0, 0.0], [[0.0], [1.0]])
        assert r.status == "attained"
        assert r.value == pytest.approx(1.0)
        assert np.allclose(r.x, [1.0, 0.0], atol=1e-10)

    def test_saddle_on_line(self):
        f = poly2(axy=1)  # x*y
        r = solve_on_affine_subspace(f, [0.0, 1.0], [[1.0], [0.0]])  # y = 1
        assert r.status == "unbounded_below"

    def test_shifted_parabola(self):
        f = poly2(axx=1, bx=-6, c=9)  # (x-3)^2
        r = solve_on_affine_subspace(f, [1.0, 0.0], [[0.0], [1.0]])
        assert r.status == "attained" and r.value == pytest.approx(4.0)


class TestKktInvariants:
    def test_residuals_on_random_instances(self, rng):
        checked = 0
        for _ in range(120):
            f = random_quadform(rng, 2, convex=rng.uniform() < 0.6)
            g = random_quadform(rng, 2)
            r = solve_qp1qc(f, g)
            if r.status != "attained":
                continue
            checked += 1
            scale = 1.0 + abs(r.value)
            assert evaluate(g, r.x) <= 1e-7 * (1 + g.data_scale())
            assert abs(evaluate(f, r.x) - r.value) <= 1e-7 * scale
            assert r.lam >= 0
            assert abs(r.lam * evaluate(g, r.x)) <= 1e-6 * scale * (1 + r.lam)
            Q = f.A + r.lam * g.A
            v = f.a + r.lam * g.a
            stat_scale = 1 + np.abs(Q).max() + np.abs(v).max() + np.linalg.norm(r.x)
            assert np.linalg.norm(Q @ r.x + v) <= 1e-6 * stat_scale
        assert checked >= 60

    def test_dual_value_matches_primal(self, rng):
        # No duality gap in the single-constraint regime with a Slater point.
        for _ in range(40):
            f = random_quadform(rng, 2, convex=rng.uniform() < 0.6)
            g = random_quadform(rng, 2)
            r = solve_qp1qc(f, g)
            if r.status != "attained":
                continue
            psi = lagrangian_dual_value(f, g, QuadForm.zero(2), r.lam, 0.0)
            assert psi == pytest.approx(r.value, rel=1e-6, abs=1e-6)


class TestOracleAgreement:
    def test_random_batch(self, rng):
        spec = GridSpec.cube(2, resolution=401, eps=0.0)
        checked = 0
        for _ in range(80):
            f = random_quadform(rng, 2, convex=rng.uniform() < 0.5)
            g = random_quadform(rng, 2)
            r = solve_qp1qc(f, g)
            o = grid_min(f, g, QuadForm.constant(2, -1.0), spec)
            if r.status == "attained":
                if o.feasible_count == 0 or np.abs(r.x).max() > 9.5:
                    continue
                grad = 2 * (f.A @ o.argmin + f.a)
                lip = np.linalg.norm(grad) + 4 * np.abs(f.A).max() * max(spec.spacing)
                bound = 2 * lip * max(spec.spacing) + 1e-6
                assert o.min_value >= r.value - 1e-6
                assert o.min_value - r.value <= bound
                checked += 1
            elif r.status == "unbounded_below":
                w = probe_unbounded(f, g, QuadForm.constant(2, -1.0), spec)
                assert w is not None and evaluate(f, w) < -1e6
                checked += 1
        assert checked >= 40


class TestWork:
    @pytest.mark.parametrize("n", [2, 10, 50])
    @pytest.mark.parametrize("hard", [False, True])
    def test_eigendecomposition_budget(self, rng, eig_calls, n, hard):
        for _ in range(3):
            f, g, lam_hard = trust_region_pair(rng, n, hard)
            eig_calls[0] = 0
            r = solve_qp1qc(f, g)
            assert eig_calls[0] <= 3 * math.ceil(math.log2(2 * n + 3)) + 77
            assert r.status == "attained"
            assert evaluate(g, r.x) <= 1e-8 * (1 + g.data_scale())
            if hard:
                assert r.lam == pytest.approx(lam_hard, rel=1e-12)

    @pytest.mark.parametrize("n", [2, 10, 50])
    def test_exact_evaluations(self, rng, monkeypatch, n):
        # The Newton iterates come from the predictor on the root solve's
        # congruence; the exact closed form evaluates the lower end and the
        # correction, and nothing inside before it.
        calls = [0]
        dual_at = qp1qc._dual_at

        def counted(*args):
            calls[0] += 1
            return dual_at(*args)

        monkeypatch.setattr(qp1qc, "_dual_at", counted)
        for _ in range(10):
            f, g, _ = trust_region_pair(rng, n, False)
            calls[0] = 0
            assert solve_qp1qc(f, g).status == "attained"
            assert calls[0] <= 2

    @pytest.mark.parametrize("n", [2, 10, 50])
    @pytest.mark.parametrize("hard", [False, True])
    def test_definite_constraint_is_not_decomposed_again(self, rng, monkeypatch, eig_calls, n, hard):
        # With g.A definite the predictor reads T = L^-T U from the root
        # solve: no W'BW is decomposed.  What is left is the root solve, the
        # check of the lower end, the exact correction and, where f.A is
        # definite, f's own decomposition.
        def exact_congruence(*args):
            raise AssertionError("W'BW decomposed although g.A is definite")

        monkeypatch.setattr(qp1qc, "_exact_congruence", exact_congruence)
        for _ in range(3):
            f, g, lam_hard = trust_region_pair(rng, n, hard)
            eig_calls[0] = 0
            r = solve_qp1qc(f, g)
            assert r.status == "attained"
            assert eig_calls[0] <= 5
            if hard:
                assert r.lam == pytest.approx(lam_hard, rel=1e-12)

    def test_newton_does_not_cycle(self, monkeypatch):
        # Pairs 14 and 33 of this stream once sent Newton back and forth
        # between two multipliers 3e-14 apart, whose psi' have opposite
        # signs, for all 60 steps (62 evaluations of the dual).
        calls = [0]
        dual_at = qp1qc._dual_at

        def counted(*args):
            calls[0] += 1
            return dual_at(*args)

        monkeypatch.setattr(qp1qc, "_dual_at", counted)
        rng = np.random.default_rng(7)
        for _ in range(40):
            f, g, _ = trust_region_pair(rng, 50, False)
            calls[0] = 0
            assert solve_qp1qc(f, g).status == "attained"
            assert calls[0] <= 20

    def test_one_sided_slope_at_singular_end(self, eig_calls):
        # min -x^2 - 4x + y^2 s.t. (x+2)^2 <= 3: psi(lam) = 4 - 3*lam on its
        # domain lam >= 1, so lam* = 1 although g at the min-norm stationary
        # point of lam = 1 (the origin) is positive; the slope from inside is -3.
        f = poly2(axx=-1, ayy=1, bx=-4)
        g = poly2(axx=1, bx=4, c=1)
        r = solve_qp1qc(f, g)
        assert eig_calls[0] <= 2 * (f.n + 1) + 10
        assert r.status == "attained"
        assert r.lam == pytest.approx(1.0, abs=1e-14)
        assert r.value == pytest.approx(1.0, abs=1e-12)
        assert abs(evaluate(g, r.x)) <= 1e-12

    def test_collapsed_feasible_set_decomposes_g_once(self, eig_calls):
        # {(x-1)^2 <= 0} is the line x = 1: one eigendecomposition of g.A
        # gives its point and direction, one more minimizes f along it.
        f = poly2(axx=1, ayy=1, by=-2)
        r = solve_qp1qc(f, poly2(axx=1, bx=-2, c=1))
        assert eig_calls[0] == 2
        assert r.status == "attained" and np.allclose(r.x, [1.0, 1.0])
        eig_calls[0] = 0
        r = solve_qp1qc(f, poly2(axx=1, ayy=1))  # {x^2 + y^2 <= 0} = {0}
        assert eig_calls[0] == 1
        assert r.status == "attained" and np.allclose(r.x, 0.0)

    def test_dual_at_zero_reads_the_objectives_decomposition(self, rng, workspace, eig_calls):
        # At lam = 0 the matrix of the dual is f.A, whose decomposition the
        # request already holds.
        f, g, _ = trust_region_pair(rng, 5, False)
        f = f + 10.0 * QuadForm(np.eye(5), np.zeros(5), 0.0)  # f.A definite: no kernel step
        ed = eig_of(f)
        eig_calls[0] = 0
        d = qp1qc._dual_at(f, g, 0.0)
        assert eig_calls[0] == 0 and d.eig is ed
        ref = qp1qc._dual_at(f, g, 1e-300)  # the same matrices, decomposed afresh
        assert eig_calls[0] == 1
        assert d.value == pytest.approx(ref.value, rel=1e-14) and np.allclose(d.x, ref.x, rtol=1e-13)

    def test_multiplier_pinned_by_common_kernel(self):
        # f = -x, g = x + y^2 share the kernel direction x of their Hessians;
        # psi is finite only where -1 + lam = 0.
        r = solve_qp1qc(poly2(bx=-1), poly2(ayy=1, bx=1))
        assert r.status == "attained"
        assert r.lam == pytest.approx(1.0, abs=1e-12)
        assert r.value == pytest.approx(0.0, abs=1e-12)
        assert solve_qp1qc(poly2(bx=1), poly2(ayy=1, bx=1)).status == "unbounded_below"


def _all_exact_maximize_dual(f, g):
    """The dual maximizer with every Newton iterate from the exact closed
    form: the reference for the predicted iterates of qp1qc._maximize_dual."""
    iv = pencil_interval(f, g, INF_PSD_RTOL)
    if iv is None or iv[1] < 0.0:
        return None, None
    a, b = max(iv[0], 0.0), iv[1]
    d = qp1qc._dual_at(f, g, a)
    if d is not None and d.slope <= 0.0:
        return a, d
    if b < np.inf:
        d_hi = qp1qc._dual_at(f, g, b)
        if d_hi is not None and d_hi.slope > 0.0:
            return b, d_hi
    unit = f.data_scale() / g.data_scale()
    lam = a
    if d is None:
        lam = 0.5 * (a + b) if b < np.inf else a + max(a, unit)
        d = qp1qc._dual_at(f, g, lam)
    lam, d = qp1qc._concave_search(lambda t: qp1qc._dual_at(f, g, t), lam, d, a, b, unit)
    if d is None:
        K = EigenDecomp.of(f.A + lam * g.A).kernel(qp1qc._NEAR_KERNEL_RTOL)
        kb = K.T @ g.a
        if not kb.any():
            return None, None
        lam = -float((K.T @ f.a) @ kb) / float(kb @ kb)
        return (lam, qp1qc._dual_at(f, g, lam)) if lam >= 0.0 else (None, None)
    return lam, d


def _replay_pairs():
    """(f, g) pairs: trust-region pairs n = 1...50, easy and (from n = 2)
    hard, then the single-constraint solves of classifications, min +-q over
    {p <= 0} for both orders of the constraints, on the corpus and on seeded
    triples and class instances at n = 2, 3 and 6."""
    rng = np.random.default_rng(8201)
    for n in range(1, 51):
        for hard in (False, True) if n > 1 else (False,):
            yield trust_region_pair(rng, n, hard)[:2]
    constraints = [corpus.load(name)[1:3] for name in corpus.NAMES]
    for n in (2, 3, 6):
        for _ in range(10):
            constraints.append(random_triple(rng, n)[1:])
            constraints.append(random_nonalter_instance(rng, n)[1:])
    for g, h in constraints:
        for p, q in ((g, h), (h, g)):
            yield q, p
            yield -q, p


class TestPredictedIterates:
    """The predicted Newton iterates end where the all-exact loop ends."""

    def test_matches_the_all_exact_loop(self, monkeypatch):
        cases = 0
        for f, g in _replay_pairs():
            got = solve_qp1qc(f, g)
            with monkeypatch.context() as mp:
                mp.setattr(qp1qc, "_maximize_dual", _all_exact_maximize_dual)
                want = solve_qp1qc(f, g)
            assert got.status == want.status
            for a, b in ((got.lam, want.lam), (got.value, want.value)):
                assert (a is None) == (b is None)
                if a is not None:
                    assert a == pytest.approx(b, rel=1e-12, abs=1e-300)
            cases += got.lam is not None and got.lam > 0.0
        assert cases >= 150


def _ball(rng, n, r2, far=1.0):
    """(x - c)'P(x - c) <= r2 with P positive definite, c of norm about far*sqrt(n)."""
    M = rng.normal(size=(n, n))
    P = M @ M.T / n + 0.2 * np.eye(n)
    c = far * rng.normal(size=n)
    return QuadForm(P, -P @ c, float(c @ P @ c) - r2)


class TestSlaterFromFactor:
    """The Slater regime read from g's Cholesky factor takes the branch, and
    gives the reply, that g's eigen-based minimum gives."""

    @staticmethod
    def _same_as_the_eigen_test(monkeypatch, f, g):
        got = solve_qp1qc(f, g)
        with monkeypatch.context() as mp:
            mp.setattr(qp1qc, "_min_clearly_below", lambda g, cut: False)
            want = solve_qp1qc(QuadForm(f.A, f.a, f.a0), QuadForm(g.A, g.a, g.a0))
        assert (got.status, got.note, got.lam, got.value) == (want.status, want.note, want.lam, want.value)
        return got

    def test_near_collapse_balls(self, rng, monkeypatch):
        for n in (1, 2, 5, 20):
            gscale = 1.0 + _ball(np.random.default_rng(n), n, 0.0).data_scale()
            for r2 in (0.0, 0.5e-8 * gscale, -0.5e-8 * gscale, 1.0):
                f, g = random_quadform(rng, n), _ball(np.random.default_rng(n), n, r2)
                r = self._same_as_the_eigen_test(monkeypatch, f, g)
                assert r.status == "attained"
                assert (r.note == "feasible set is a single point") == (r2 != 1.0)

    def test_one_point_and_infeasible(self, rng, monkeypatch):
        f = random_quadform(rng, 2)
        r = self._same_as_the_eigen_test(monkeypatch, f, poly2(axx=1, ayy=1))
        assert r.note == "feasible set is a single point"
        r = self._same_as_the_eigen_test(monkeypatch, f, poly2(axx=1, ayy=1, c=1))
        assert r.status == "infeasible"
        r = self._same_as_the_eigen_test(monkeypatch, f, _ball(rng, 2, -1.0))
        assert r.status == "infeasible"

    def test_far_minimizer(self, rng, monkeypatch):
        # Far from the origin the minimum -1 is within the cutoff, which
        # grows with |c|^2: the eigen-based minimum decides, as before.
        for far, decides in ((1e2, True), (1e6, False)):
            for n in (2, 10):
                g = _ball(rng, n, 1.0, far)
                assert _min_clearly_below(g, 1e-8 * (1 + g.data_scale())) == decides
                self._same_as_the_eigen_test(monkeypatch, random_quadform(rng, n), g)

    def test_eigenvalues_below_the_cutoff(self, rng, monkeypatch):
        # g.A = 1e-12 I has a Cholesky factor, but unconstrained_min counts
        # its eigenvalues as zero: the factor must not decide.
        n = 3
        for a0 in (-1.0, -1e-8, 1e-9):
            g = QuadForm(1e-12 * np.eye(n), 1e-13 * rng.normal(size=n), a0)
            assert Workspace().factor(g) is not None and not _min_clearly_below(g, 1e-8 * (1 + g.data_scale()))
            self._same_as_the_eigen_test(monkeypatch, random_quadform(rng, n), g)

    def test_minimum_within_rounding_is_not_clear(self):
        # g = 1.5|x|^2 - r2 has its minimum -r2 at x = 0; a few ulps below
        # -cut is within the rounding the margin covers, twice -cut is not.
        cut = 1e-8 * 2.5
        for r2, clear in ((cut * (1.0 + 4.0 * np.finfo(float).eps), False), (2.0 * cut, True)):
            g = QuadForm(1.5 * np.eye(2), np.zeros(2), -r2)
            assert _min_clearly_below(g, cut) == clear

    def test_known_decomposition_decides(self, rng, monkeypatch):
        # Once the request has decomposed g.A (for g or -g), g's minimum
        # costs no decomposition and decides the regime; the factor's test
        # does not run.
        def no_inverse(M):
            raise AssertionError("the factor's test ran")

        for known in (lambda g: unconstrained_min(g), lambda g: eig_of(-g)):
            f, g, _ = trust_region_pair(rng, 5, False)
            with Workspace(), monkeypatch.context() as mp:
                known(g)
                mp.setattr(quad_core, "_inv", no_inverse)
                assert solve_qp1qc(f, g).status == "attained"

    @pytest.mark.parametrize("n", [2, 10, 50])
    def test_constraint_never_decomposed(self, rng, n, work_counts):
        # An easy trust-region solve reads g.A through its Cholesky factor
        # alone: neither its eigendecomposition nor its minimum is computed.
        for _ in range(5):
            f, g, _ = trust_region_pair(rng, n, False)
            work_counts["minima"] = 0
            with Workspace() as ws:
                assert solve_qp1qc(f, g).status == "attained"
                assert not ws.decomposed(g) and work_counts["minima"] == 0
                assert ws.factor(g) is not None


class TestLowerEnd:
    """The dual at a positive lower end of its domain reads the interval's
    decomposition there."""

    def test_lower_end_decomposed_once(self, rng, monkeypatch):
        # The interval check at a positive lower end a decomposes
        # f.A + a*g.A, and the dual at a reads that decomposition.
        seen = []
        eigh = quad_core._eigh
        monkeypatch.setattr(quad_core, "_eigh", lambda M: seen.append(M.copy()) or eigh(M))
        checked = 0
        for _ in range(20):
            f, g, _ = trust_region_pair(rng, 8, False)
            f = f - 3.0 * QuadForm(np.eye(8), np.zeros(8), 0.0)  # f.A indefinite: a > 0
            lo = pencil_interval(f, g, INF_PSD_RTOL)[0]
            f, g = QuadForm(f.A, f.a, f.a0), QuadForm(g.A, g.a, g.a0)  # nothing cached
            seen.clear()
            solve_qp1qc(f, g)
            at_lo = [M for M in seen if np.array_equal(M, f.A + lo * g.A)]
            assert len(at_lo) == (1 if lo > 0.0 else 0)
            checked += lo > 0.0
        assert checked >= 15
