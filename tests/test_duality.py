import numpy as np
import pytest

from conftest import poly2
from grid_probe import grid_finite_point, probe
from nonalter import corpus, duality, qp1qc
from nonalter.duality import (
    DualPoint,
    lagrangian_dual_value,
    sdp_certificate,
    slack_matrix,
    solve_dual_2d,
)
from nonalter.instances import (
    interval_instance,
    random_nonalter_instance,
    random_quadform,
    random_triple,
)
from nonalter.oracle import GridSpec, grid_min
from nonalter.qp1qc import solve_qp1qc
from nonalter.quad_core import PsdVerdict, QuadForm, evaluate, lift, psd_status


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

    def test_objective_scaled_far(self):
        # The optimal lam1 exceeds 1e9 in data units; in lift-normalized
        # units the problem is the unscaled one.
        f, g, h = two_point_instance()
        res = solve_dual_2d(QuadForm(1e9 * f.A, 1e9 * f.a, 1e9 * f.a0), g, h)
        assert res.status == "finite"
        assert res.value == pytest.approx(1e9, rel=1e-6)

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
        # psi is finite only on the line lam1 = 1, where Q vanishes: the
        # domain has no interior, and the optimum lies on its edge.
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
        # One entry per search point, and the result is the best of them.
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
        assert res.evaluations <= 3 and res.phase_one == 0

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


def _scaled(q, s):
    return QuadForm(s * q.A, s * q.a, s * q.a0)


def _dichotomy_cases():
    """In-class corpus pairs with f scaled by 1, 1e2 and 1e4, then seeded
    in-class instances at n = 2, 5 and 10."""
    for name in ("ex24", "ex25a", "gtrs"):
        f, g, h, _ = corpus.load(name)
        for k in (0, 2, 4):
            yield _scaled(f, 10.0 ** k), g, h
    for n in (2, 5, 10):
        rng = np.random.default_rng(200 + n)
        for _ in range(6):
            yield random_nonalter_instance(rng, n)


class TestDichotomy:
    def test_dual_is_the_better_single_constraint_dual(self):
        # In the class the optimum sits on the blocking constraint, so the
        # two-multiplier dual equals the larger single-constraint value, and
        # it is -inf everywhere only when both relaxations are unbounded.
        infeasible = 0
        for f, g, h in _dichotomy_cases():
            res = solve_dual_2d(f, g, h)
            single = [solve_qp1qc(f, g), solve_qp1qc(f, h)]
            if res.status == "dual_infeasible_everywhere":
                assert all(r.status == "unbounded_below" for r in single)
                infeasible += 1
                continue
            assert res.status == "finite"
            best = max(r.value for r in single if r.value is not None)
            assert abs(res.value - best) <= 1e-9 * (1.0 + abs(best))
        assert infeasible >= 2

    def test_in_class_optimum_has_a_zero_multiplier(self):
        # The axis solves settle every in-class instance exactly on an axis.
        for f, g, h in _dichotomy_cases():
            res = solve_dual_2d(f, g, h)
            if res.status == "finite":
                assert min(res.best.lambda1, res.best.lambda2) == 0.0
                assert res.evaluations <= 2


    def test_lagrangian_minimizer_is_optimal(self):
        # On an axis the dual hands back its single-constraint optimizer,
        # which in the class is feasible for both constraints and optimal.
        for f, g, h in _dichotomy_cases():
            res = solve_dual_2d(f, g, h)
            if res.status == "finite":
                assert abs(evaluate(f, res.x) - res.value) <= 1e-9 * (1.0 + abs(res.value))
                for q in (g, h):
                    assert evaluate(q, res.x) <= 1e-8 * (1.0 + q.data_scale())


class TestNestedSearch:
    def test_swap_is_bit_identical(self, rng):
        triples = [corpus.load(name)[:3] for name in corpus.NAMES]
        triples += [(random_quadform(rng, 2, convex=True), random_quadform(rng, 2),
                     random_quadform(rng, 2)) for _ in range(20)]
        for f, g, h in triples:
            res, swapped = solve_dual_2d(f, g, h), solve_dual_2d(f, h, g)
            assert res.status == swapped.status
            if res.status == "finite":
                assert res.value == swapped.value
                assert (res.best.lambda1, res.best.lambda2) == (swapped.best.lambda2,
                                                                 swapped.best.lambda1)

    def test_two_multiplier_hard_case(self):
        # ex22's optimum (1, 4) makes Q singular with v orthogonal to its
        # kernel: the certified Newton step reaches it from the first axis.
        f, g, h, _ = corpus.load("ex22")
        res = solve_dual_2d(f, g, h)
        assert res.value == pytest.approx(49.0, rel=1e-14)
        assert (res.best.lambda1, res.best.lambda2) == pytest.approx((1.0, 4.0), rel=1e-12)
        # Its certificate is a convex combination of Lagrangian minimizers:
        # no single point comes back.
        assert res.x is None
        assert res.evaluations <= 3

    def test_disjoint_constraints_rise_without_bound(self):
        # |x| <= 1 and |x| >= 2 have no common point: psi grows along a ray
        # off both axes, and the search says so after a few solves.
        f = poly2(axx=1, ayy=1)
        g = poly2(axx=1, c=-1)
        h = poly2(axx=-1, c=4)
        res = solve_dual_2d(f, g, h)
        assert res.status == "numerical_failure"
        assert res.evaluations <= 12

    def test_search_alone_reaches_the_polished_optimum(self, monkeypatch):
        # Without the two-multiplier Newton step, the outer search on the
        # single-constraint dual's own loop finds the same off-axis optima.
        rng = np.random.default_rng(5)
        triples = [(random_quadform(rng, 2, convex=True), random_quadform(rng, 2),
                    random_quadform(rng, 2)) for _ in range(30)]
        polished = [solve_dual_2d(*t) for t in triples]
        calls = []
        search = qp1qc._concave_search
        monkeypatch.setattr(duality, "_concave_search", lambda *a: calls.append(a) or search(*a))
        monkeypatch.setattr(duality, "_polish", lambda *a: None)
        off_axis = 0
        for t, ref in zip(triples, polished):
            res = solve_dual_2d(*t)
            assert res.status == ref.status
            if ref.status == "finite":
                assert abs(res.value - ref.value) <= 1e-12 * (1.0 + abs(ref.value))
                off_axis += min(ref.best.lambda1, ref.best.lambda2) > 0.0
        assert off_axis >= 3 and len(calls) >= off_axis


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
            psi = probe(f, g, h, lam1, lam2)
            for k in range(lam1.size):
                ref = lagrangian_dual_value(f, g, h, lam1[k], lam2[k])
                if ref == -np.inf:
                    assert psi[k] == -np.inf
                else:
                    assert psi[k] == pytest.approx(ref, rel=1e-12, abs=1e-12)
                    finite += 1
        assert finite >= 100


def _family():
    """The in-class family: 20 instances each at n = 2, 3, 5, 10 and 25."""
    for n in (2, 3, 5, 10, 25):
        rng = np.random.default_rng(300 + n)
        for _ in range(20):
            yield random_nonalter_instance(rng, n)


def _bands():
    """Interval bands l <= q0 <= u at n = 2 under a concave f: psi is -inf
    everywhere, since g.A = -h.A and f.A = -c*I."""
    for s in range(20):
        rng = np.random.default_rng([1, s])
        g, h = interval_instance(rng, 2)
        f = QuadForm(-float(rng.uniform(0.5, 2.0)) * np.eye(2), rng.normal(size=2), float(rng.normal()))
        yield f, g, h


def _inside_only():
    """f.A + l1*g.A + l2*h.A = diag(-1 + 2*l1 - l2, -1 - l1 + 2*l2): -inf on
    both axes, positive definite where l1 = l2 > 1."""
    return (QuadForm(-np.eye(2), np.zeros(2), 0.0), QuadForm(np.diag([2.0, -1.0]), np.zeros(2), -1.0),
            QuadForm(np.diag([-1.0, 2.0]), np.zeros(2), -1.0))


def _certificate_holds(f, g, h, cert):
    """Y = V diag(w) V' is PSD with trace 1, <Y, f.A> lies below the margin,
    and <Y, g.A>, <Y, h.A> are not positive beyond rounding in each
    constraint's own scale."""
    w, V = np.asarray(cert.weights), np.asarray(cert.vectors)
    Y = (V * w) @ V.T
    fy = float(np.sum(Y * f.A))
    return bool(
        (w >= 0.0).all() and abs(np.trace(Y) - 1.0) <= 1e-12
        and np.linalg.eigvalsh(Y)[0] >= -1e-12
        and abs(fy - cert.value) <= 1e-12 * (1.0 + abs(fy)) and 0.0 < cert.margin < -fy
        and all(np.sum(Y * q.A) <= 1e-12 * (1.0 + f.n) * np.abs(lift(q)).max() for q in (g, h)))


@pytest.fixture
def phase_one_calls(monkeypatch):
    """Every phase I that solve_dual_2d runs: its matrices and outcome."""
    calls, run = [], duality._phase_one

    def record(A, B, C):
        out = run(A, B, C)
        calls.append((A, B, C, out))
        return out

    monkeypatch.setattr(duality, "_phase_one", record)
    return calls


def _scaled_copies(f, g, h, rng):
    """The triple under a swap of g and h, each of f, g, h times 10**3 and
    10**-3, and a random rotation of x, with the factor on the dual's value."""
    yield (f, h, g), 1.0
    for s in (1e3, 1e-3):
        yield (_scaled(f, s), g, h), s
        yield (f, _scaled(g, s), h), 1.0
        yield (f, g, _scaled(h, s)), 1.0
    R, _ = np.linalg.qr(rng.normal(size=(f.n, f.n)))
    yield tuple(QuadForm(R.T @ q.A @ R, R.T @ q.a, q.a0) for q in (f, g, h)), 1.0


class TestPhaseOne:
    def test_verdict_matches_the_grid(self, phase_one_calls):
        # Wherever the grid finds a finite psi, phase I finds a start and the
        # dual is at least that value; every certificate passes the plain
        # check, every start is positive definite, and no solve spends more
        # than 50 decompositions or 100 single-constraint solves.  On the
        # family, every dual that is -inf everywhere carries a certificate.
        family = list(_family())
        cases = [*family, *_dichotomy_cases(), *_bands(), _inside_only()]
        certified, started, statuses = 0, 0, []
        for f, g, h in cases:
            phase_one_calls.clear()
            res = solve_dual_2d(f, g, h)
            statuses.append(res.status)
            assert res.phase_one <= 50 and res.evaluations <= 100
            if not phase_one_calls:
                assert res.phase_one == 0 and res.certificate is None
                continue
            A, B, C, out = phase_one_calls[0]
            assert res.phase_one == out.decompositions
            grid = grid_finite_point(f, g, h)
            if out.start is not None:
                assert np.linalg.eigvalsh(A + out.start[0] * B + out.start[1] * C)[0] > 0.0
                started += 1
            if res.status == "dual_infeasible_everywhere":
                assert grid is None and _certificate_holds(f, g, h, res.certificate)
                certified += 1
            if grid is not None:
                assert res.status == "finite"
                assert res.value >= grid[2] - 1e-9 * (1.0 + abs(grid[2]))
        assert statuses[:len(family)].count("dual_infeasible_everywhere") == 16
        assert statuses[:len(family)].count("finite") == 84
        # 16 of the family, 3 of the dichotomy cases and all 20 bands.
        assert certified == 39 and started == 1

    def test_symmetries(self):
        # The verdict, and the certificate's validity, hold under a swap of
        # g and h, positive scaling of each function and a rotation of x.
        rng = np.random.default_rng(7)
        cases = [t for t in _family() if solve_dual_2d(*t).phase_one] + [*_bands(), _inside_only()]
        for f, g, h in cases:
            ref = solve_dual_2d(f, g, h)
            for copy, factor in _scaled_copies(f, g, h, rng):
                res = solve_dual_2d(*copy)
                assert res.status == ref.status
                assert (res.certificate is None) == (ref.certificate is None)
                if res.certificate is not None:
                    assert _certificate_holds(*copy, res.certificate)
                else:
                    assert res.value == pytest.approx(factor * ref.value, rel=1e-9)

    def test_zero_maximum(self, phase_one_calls):
        # f.A + l1*g.A + l2*h.A = diag(-1 + l1, -1 + l2, 2 - l1 - l2) is PSD
        # at l1 = l2 = 1 alone, where it vanishes: the largest smallest
        # eigenvalue is 0, so there is neither a positive definite point nor
        # a certificate.  psi is finite there when v vanishes too, with the
        # value of the constants, and -inf everywhere otherwise.
        g = QuadForm(np.diag([1.0, 0.0, -1.0]), np.zeros(3), 0.25)
        h = QuadForm(np.diag([0.0, 1.0, -1.0]), np.zeros(3), -2.0)
        f = QuadForm(np.diag([-1.0, -1.0, 2.0]), np.zeros(3), 0.5)
        res = solve_dual_2d(f, g, h)
        assert res.status == "finite" and res.certificate is None
        assert res.value == pytest.approx(-1.25, abs=1e-9)
        assert (res.best.lambda1, res.best.lambda2) == pytest.approx((1.0, 1.0), abs=1e-9)
        out = phase_one_calls[0][3]
        assert out.start is None and out.certificate is None
        res = solve_dual_2d(QuadForm(f.A, np.array([0.0, 0.0, 1.0]), f.a0), g, h)
        assert res.status == "dual_infeasible_everywhere" and res.certificate is None
        assert 0 < res.phase_one <= 50

    def test_band_certificates_are_orthogonal(self):
        # On a band g.A = -h.A, so <Y, g.A> <= 0 and <Y, h.A> <= 0 force both
        # to 0: the certificate sits on the boundary of both constraints.
        for f, g, h in _bands():
            cert = solve_dual_2d(f, g, h).certificate
            Y = (cert.vectors * cert.weights) @ cert.vectors.T
            for q in (g, h):
                assert abs(np.sum(Y * q.A)) <= 1e-12 * 3.0 * np.abs(lift(q)).max()

    def test_multiple_bottom_eigenvalue(self, phase_one_calls):
        # f.A = -I + eps*diag(0, 1) and g.A = -h.A = diag(1, -1), rotated:
        # the bottom eigenvalue is nearly double at the first point and
        # double at the maximum, -1 + eps/2.  The n = 3 family at
        # default_rng(303) closes too.
        R, _ = np.linalg.qr(np.random.default_rng(11).normal(size=(2, 2)))
        for eps in (0.0, 1e-10, 1e-6, 1e-2):
            f = QuadForm(R @ np.diag([-1.0, -1.0 + eps]) @ R.T, np.zeros(2), 0.0)
            g = QuadForm(R @ np.diag([1.0, -1.0]) @ R.T, np.zeros(2), -1.0)
            res = solve_dual_2d(f, g, -g + QuadForm.constant(2, -3.0))
            assert res.certificate is not None and res.phase_one <= 8
            assert res.certificate.value == pytest.approx(-1.0 + eps / 2.0, abs=1e-9)
        rng = np.random.default_rng(303)
        closed = 0
        for _ in range(20):
            f, g, h = random_nonalter_instance(rng, 3)
            res = solve_dual_2d(f, g, h)
            if res.phase_one:
                assert res.certificate is not None and res.phase_one <= 8
                assert _certificate_holds(f, g, h, res.certificate)
                closed += 1
        assert closed == 3


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
