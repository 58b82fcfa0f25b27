import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nonalter
import nonalter.quad_core as quad_core
from conftest import poly1, poly2, trust_region_pair
from nonalter import corpus
from nonalter.quad_core import (
    INF_PSD_RTOL,
    PSD_RTOL,
    RANK_RTOL,
    DimensionError,
    _definite_factor,
    _pencil_interval,
    _solve_pencil,
    EigenDecomp,
    PsdVerdict,
    QuadForm,
    Workspace,
    current_workspace,
    eig_of,
    evaluate,
    evaluate_many,
    find_negative_point,
    lift,
    line_roots,
    from_lift,
    nonneg_everywhere,
    null_basis,
    pencil_interval,
    psd_interval,
    psd_status,
    pseudo_inverse,
    quad_inf,
    restrict_affine,
    sym_eigen,
    unconstrained_min,
)


class TestEvaluate:
    def test_circle_boundary(self):
        q = poly2(axx=1, ayy=1, c=-1)
        assert evaluate(q, [1.0, 0.0]) == pytest.approx(0.0, abs=1e-15)

    def test_hyperbola_vertex(self):
        q = poly2(axx=-1, ayy=1, c=9)
        assert evaluate(q, [3.0, 0.0]) == pytest.approx(0.0, abs=1e-15)

    def test_affine(self):
        q = poly2(bx=-1, c=1)  # 1 - x
        assert evaluate(q, [1.0, 5.0]) == pytest.approx(0.0, abs=1e-15)

    def test_dimension_mismatch(self):
        q = poly2(axx=1)
        with pytest.raises(DimensionError):
            evaluate(q, [1.0, 2.0, 3.0])

    def test_callable_and_linear_factor_convention(self):
        # a = -2 encodes the linear part -4x, so q is (x-2)^2.
        q = QuadForm([[1.0]], [-2.0], 4.0)
        assert q([2.0]) == pytest.approx(0.0)
        assert q([0.0]) == pytest.approx(4.0)


class TestLift:
    def test_unit_circle(self):
        q = poly2(axx=1, ayy=1, c=-1)
        expected = np.array([[-1, 0, 0], [0, 1, 0], [0, 0, 1]], dtype=float)
        assert np.allclose(lift(q), expected)

    def test_zero(self):
        assert not lift(QuadForm.zero(2)).any()

    def test_linear_convention(self):
        q = poly1(bx=2.0)  # 2x, so a = 1
        assert np.allclose(lift(q), [[0, 1], [1, 0]])

    def test_from_lift_round_trip(self):
        q = poly2(axx=2, axy=1, ayy=-3, bx=0.5, by=-1, c=4)
        r = from_lift(lift(q))
        assert np.allclose(r.A, q.A) and np.allclose(r.a, q.a) and r.a0 == q.a0


class TestSymEigen:
    def test_diag(self):
        ed = sym_eigen(np.diag([2.0, 1.0]))
        assert np.allclose(ed.values, [1.0, 2.0])

    def test_off_diag(self):
        ed = sym_eigen([[0.0, 1.0], [1.0, 0.0]])
        assert np.allclose(ed.values, [-1.0, 1.0])

    def test_identity(self):
        ed = sym_eigen(np.eye(3))
        assert np.allclose(ed.values, 1.0)
        assert np.allclose(ed.vectors.T @ ed.vectors, np.eye(3), atol=1e-9)

    def test_reconstruction(self, rng):
        for _ in range(20):
            M = rng.normal(size=(5, 5))
            M = (M + M.T) / 2
            ed = sym_eigen(M)
            rec = (ed.vectors * ed.values) @ ed.vectors.T
            assert np.linalg.norm(rec - M) <= 1e-9 * (1 + np.linalg.norm(M))
            assert np.linalg.norm(ed.vectors.T @ ed.vectors - np.eye(5)) <= 1e-9


class TestPsdStatus:
    @pytest.mark.parametrize(
        "M, verdict",
        [
            (np.eye(2), PsdVerdict.POSITIVE_DEFINITE),
            (np.diag([1.0, 0.0]), PsdVerdict.PSD_SINGULAR),
            (np.diag([1.0, -1.0]), PsdVerdict.INDEFINITE),
        ],
    )
    def test_examples(self, M, verdict):
        assert psd_status(M).verdict is verdict


class TestNonnegEverywhere:
    def test_perfect_square(self):
        q = poly2(axx=1, axy=2, ayy=1)  # (x+y)^2
        assert nonneg_everywhere(q)

    def test_shifted_square(self):
        assert nonneg_everywhere(poly1(axx=1, bx=-2, c=1))  # (x-1)^2

    def test_indefinite(self):
        assert not nonneg_everywhere(poly1(axx=1, c=-1))

    def test_negative_witness(self, rng):
        for _ in range(50):
            q = QuadForm(rng.normal(size=(3, 3)), rng.normal(size=3), rng.normal())
            if nonneg_everywhere(q):
                pts = rng.uniform(-10, 10, size=(10_000, 3))
                vals = evaluate_many(q, pts)
                norms = 1.0 + (pts**2).sum(axis=1)
                assert (vals >= -1e-6 * norms).all()
            else:
                x = find_negative_point(q)
                assert x is not None and evaluate(q, x) < 0


class TestPseudoInverseAndNull:
    def test_diag(self):
        M = np.diag([2.0, 0.0])
        assert np.allclose(pseudo_inverse(M), np.diag([0.5, 0.0]))
        Z = null_basis(M)
        assert Z.shape == (2, 1) and abs(abs(Z[1, 0]) - 1) < 1e-12

    def test_identity(self):
        assert np.allclose(pseudo_inverse(np.eye(3)), np.eye(3))
        assert null_basis(np.eye(3)).shape == (3, 0)

    def test_zero(self):
        M = np.zeros((2, 2))
        assert not pseudo_inverse(M).any()
        Z = null_basis(M)
        assert Z.shape == (2, 2) and np.allclose(Z.T @ Z, np.eye(2))

    def test_penrose_identity(self, rng):
        for _ in range(30):
            M = rng.normal(size=(4, 4))
            M = (M + M.T) / 2
            if rng.uniform() < 0.5:  # force rank deficiency
                ed = sym_eigen(M)
                vals = np.array(ed.values)
                vals[:2] = 0.0
                M = (ed.vectors * vals) @ ed.vectors.T
            P = pseudo_inverse(M)
            assert np.linalg.norm(M @ P @ M - M) <= 1e-8 * (1 + np.linalg.norm(M))
            assert np.linalg.norm(P @ M @ P - P) <= 1e-8 * (1 + np.linalg.norm(P))


class TestRestrictAffine:
    def test_drop_coordinate(self):
        q = poly2(axx=1, ayy=1)
        r = restrict_affine(q, [0.0, 0.0], [[0.0], [1.0]])
        assert r.n == 1 and r.A[0, 0] == pytest.approx(1.0) and r.a0 == 0.0

    def test_hyperbola_on_line(self):
        # g = -x^2 + y^2 + 9 on the line x = 1 becomes y^2 + 8.
        q = poly2(axx=-1, ayy=1, c=9)
        r = restrict_affine(q, [1.0, 0.0], [[0.0], [1.0]])
        assert r.A[0, 0] == pytest.approx(1.0)
        assert r.a[0] == pytest.approx(0.0, abs=1e-15)
        assert r.a0 == pytest.approx(8.0)

    def test_affine_stays_affine(self, rng):
        q = poly2(bx=3, by=-2, c=1)
        x0 = rng.normal(size=2)
        N = rng.normal(size=(2, 2))
        r = restrict_affine(q, x0, N)
        assert not r.A.any()

    def test_rank_deficient_map_rejected(self):
        q = poly2(axx=1, ayy=1)
        with pytest.raises(ValueError):
            restrict_affine(q, [0.0, 0.0], [[1.0, 2.0], [1.0, 2.0]])

    def test_composition(self, rng):
        for _ in range(20):
            q = QuadForm(rng.normal(size=(3, 3)), rng.normal(size=3), rng.normal())
            x0 = rng.normal(size=3)
            N = rng.normal(size=(3, 2))
            r = restrict_affine(q, x0, N)
            y = rng.normal(size=2)
            assert r(y) == pytest.approx(q(x0 + N @ y), rel=1e-12, abs=1e-12)


class TestLiftConsistency:
    def test_seeded_random(self, rng):
        for _ in range(200):
            n = int(rng.integers(1, 5))
            q = QuadForm(rng.normal(size=(n, n)), rng.normal(size=n), rng.normal())
            x = rng.uniform(-5, 5, size=n)
            z = np.concatenate([[1.0], x])
            lhs = float(z @ lift(q) @ z)
            rhs = evaluate(q, x)
            assert abs(lhs - rhs) <= 1e-10 * (1 + abs(rhs))

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.floats(-5, 5), min_size=6, max_size=6),
        st.lists(st.floats(-5, 5), min_size=2, max_size=2),
    )
    def test_property(self, coeffs, x):
        q = poly2(*coeffs)
        z = np.concatenate([[1.0], x])
        assert float(z @ lift(q) @ z) == pytest.approx(evaluate(q, np.array(x)), abs=1e-9)


class TestUnconstrainedMin:
    def test_convex(self):
        um = unconstrained_min(poly1(axx=1, bx=-4, c=4))  # (x-2)^2
        assert um.status == "attained"
        assert um.value == pytest.approx(0.0, abs=1e-12)
        assert um.x[0] == pytest.approx(2.0)

    def test_negative_curvature(self):
        um = unconstrained_min(poly2(axx=-1, ayy=1))
        assert um.status == "unbounded_below" and um.kind == "negative_curvature"

    def test_affine_escape(self):
        um = unconstrained_min(poly2(axx=1, by=1))  # x^2 + y
        assert um.status == "unbounded_below" and um.kind == "affine"

    def test_singular_attained(self):
        um = unconstrained_min(poly2(axx=1, bx=-2, c=1))  # (x-1)^2 in R^2
        assert um.status == "attained" and um.value == pytest.approx(0.0, abs=1e-12)


class TestValidation:
    def test_symmetrization(self):
        q = QuadForm([[0.0, 1.0], [0.0, 0.0]], [0.0, 0.0], 0.0)
        assert np.allclose(q.A, [[0.0, 0.5], [0.5, 0.0]])

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            QuadForm([[np.inf]], [0.0], 0.0)

    def test_no_variables_rejected(self):
        # A 0 x 0 matrix once made a quadratic of no variables, on which
        # unconstrained_min, classify_problem and solve_qp1qc raised IndexError.
        with pytest.raises(DimensionError):
            QuadForm(np.zeros((0, 0)), np.zeros(0), -1.0)
        with pytest.raises(DimensionError):
            psd_status(np.zeros((0, 0)))
        with pytest.raises(DimensionError):
            from_lift([[1.0]])

    def test_immutable(self):
        q = poly2(axx=1)
        with pytest.raises(ValueError):
            q.A[0, 0] = 5.0


def _pencil_test_points(P, Q):
    """The roots and test points of a direct root solve of P + lam*Q; None
    when no shift leaves the pencil well conditioned."""
    solve = _solve_pencil(P, Q)
    return None if solve is None else solve.test_points()


def _pair_test_points(p, q, lifted):
    """The roots and test points of p + lam*q, their quadratic parts or
    lifts, from the root solve the pair shares."""
    solve, sign, swap, *_ = current_workspace().pencil(p, q, lifted)
    return None if solve is None else solve.test_points(sign, swap)


def _scan_verdicts(P, Q, lams, tol=1e-9):
    """psd_status verdicts along a dense multiplier grid, from stacked eigenvalues."""
    vals = np.linalg.eigvalsh(P + lams[:, None, None] * Q)
    return vals[:, 0] >= -tol * (1.0 + np.abs(vals).max(axis=1))


class TestPsdInterval:
    def test_matches_dense_scan(self, rng):
        feasible = 0
        for trial in range(60):
            m = int(rng.integers(2, 6))
            Q = rng.normal(size=(m, m))
            Q = Q + Q.T
            if trial % 3:
                # P + mu*Q = S is semidefinite, so the interval holds mu.
                L = rng.normal(size=(m, m - trial % 2))
                mu = float(rng.normal())
                P = L @ L.T - mu * Q
            else:
                P = rng.normal(size=(m, m))
                P = P + P.T
            iv = psd_interval(P, Q)
            ends = [] if iv is None else [e for e in iv if np.isfinite(e)]
            reach = 10.0 * (1.0 + max([abs(e) for e in ends], default=0.0))
            lams = np.linspace(-reach, reach, 4001)
            ok = _scan_verdicts(P, Q, lams)
            if iv is None:
                assert not ok.any()
                continue
            feasible += 1
            lo, hi = iv
            gap = 1e-6 * (1.0 + max([abs(e) for e in ends], default=0.0))
            assert ok[(lams > lo + gap) & (lams < hi - gap)].all()
            assert not ok[(lams < lo - gap) | (lams > hi + gap)].any()
            for e in ends:
                assert psd_status(P + e * Q).verdict is not PsdVerdict.INDEFINITE
        assert feasible >= 30

    def test_single_point(self):
        # ex24: h = -g - 40, so -h + lam*g = (1 + lam)*g + 40 is PSD only at lam = -1.
        f, g, h, _ = corpus.load("ex24")
        lo, hi = psd_interval(lift(-h), lift(g))
        assert lo == pytest.approx(-1.0, abs=1e-12)
        assert hi == pytest.approx(-1.0, abs=1e-12)

    def test_common_kernel(self):
        P, Q = np.diag([0.0, -1.0, 0.0]), np.diag([1.0, 1.0, 0.0])
        lo, hi = psd_interval(P, Q)
        assert lo == pytest.approx(1.0, abs=1e-14) and hi == np.inf

    def test_empty(self):
        assert psd_interval(np.diag([-1.0, -1.0]), np.diag([1.0, -1.0])) is None
        # The lifts of two affine functions form a singular pencil.
        assert psd_interval(lift(poly2(bx=1)), lift(poly2(by=1))) is None

    def test_zero_direction(self):
        assert psd_interval(np.diag([1.0, 2.0]), np.zeros((2, 2))) == (-np.inf, np.inf)
        assert psd_interval(np.diag([1.0, -2.0]), np.zeros((2, 2))) is None

    def test_unbounded_ends(self):
        lo, hi = psd_interval(np.diag([0.0, -1.0]), np.eye(2))
        assert lo == pytest.approx(1.0, abs=1e-14) and hi == np.inf
        lo, hi = psd_interval(np.diag([0.0, -1.0]), -np.eye(2))
        assert lo == -np.inf and hi == pytest.approx(-1.0, abs=1e-14)
        lo, hi = psd_interval(np.diag([0.0, 1.0]), np.diag([1.0, -1.0]))
        assert lo == pytest.approx(0.0, abs=1e-14) and hi == pytest.approx(1.0, abs=1e-14)


def _psd_interval_scan(P, Q, tol=PSD_RTOL, found=None):
    """psd_interval from the verdicts at every test point, read from one
    stacked eigenvalue call: the reference for its bisection.  ``found``
    holds the roots and test points, by default those of a direct solve."""
    P, Q = np.asarray(P, dtype=float), np.asarray(Q, dtype=float)
    found = _pencil_test_points(P, Q) if found is None else found
    if found is None:
        return None
    roots, pts = found
    ed = EigenDecomp.values_of(P + pts[:, None, None] * Q)
    ok = ~(ed.values[:, 0] < -ed.cut(tol))
    # Segment j runs from edge j to edge j + 1; root j is edge j + 1.
    edges = np.concatenate([[-np.inf], roots, [np.inf]])
    seg_ok, root_ok = ok[0::2], ok[1::2]
    admitted = np.concatenate([edges[:-1][seg_ok], edges[1:][seg_ok], roots[root_ok]])
    if not admitted.size:
        return None
    return float(admitted.min()), float(admitted.max())


def _sym(rng, m):
    M = rng.normal(size=(m, m))
    return M + M.T


def _rotated(rng, *diags):
    """U diag(d) U' for each d, with one random orthogonal U."""
    U, _ = np.linalg.qr(rng.normal(size=(len(diags[0]),) * 2))
    return [(U * np.asarray(d, dtype=float)) @ U.T for d in diags]


#: Values of ``quad_core._SCAN_MAX`` that send every pencil through the
#: bisection and through the stacked scan, whatever its size.
_PATHS = {"bisection": 0, "scan": 10**6}


class TestPsdIntervalBisection:
    """psd_interval returns exactly what the verdicts at all its test points
    give, through the bisection and through the stacked scan alike."""

    @staticmethod
    def _check(P, Q, tol=PSD_RTOL):
        want = _psd_interval_scan(P, Q, tol)
        with pytest.MonkeyPatch.context() as mp:
            for path, scan_max in _PATHS.items():
                mp.setattr(quad_core, "_SCAN_MAX", scan_max)
                assert psd_interval(P, Q, tol) == want, path
        assert psd_interval(P, Q, tol) == want  # at the crossover in force
        return want

    def test_random_pencils(self):
        rng = np.random.default_rng(8101)
        found = 0
        for m in range(2, 52):
            for kind in range(3):
                Q = _sym(rng, m)
                if kind == 0:
                    P = _sym(rng, m)
                else:
                    # P + mu*Q = L L' is semidefinite, singular when kind == 2.
                    L = rng.normal(size=(m, m - kind + 1))
                    P = L @ L.T - float(rng.normal()) * Q
                found += self._check(P, Q) is not None
        assert found >= 100

    @pytest.mark.parametrize("n", [10, 50])
    @pytest.mark.parametrize("hard", [False, True])
    def test_trust_region_pairs(self, n, hard):
        rng = np.random.default_rng(8102 + n)
        for _ in range(4):
            f, g, _ = trust_region_pair(rng, n, hard)
            assert self._check(f.A, g.A, INF_PSD_RTOL)[1] == np.inf  # g.A is definite
            self._check(lift(f), lift(g))
            self._check(lift(-g), lift(f))

    def test_long_passing_blocks(self):
        # Roots packed within the cutoff of each other all pass: blocks of
        # up to 2k + 1 passing test points among roots that fail elsewhere.
        rng = np.random.default_rng(8103)
        longest = 0
        for m in (6, 12, 25, 51):
            for _ in range(4):
                k = int(rng.integers(2, m))
                d = np.concatenate([1e-13 * rng.uniform(size=k), rng.uniform(1.0, 5.0, size=m - k)])
                e = rng.choice([-1.0, 1.0], size=m) * rng.uniform(0.5, 2.0, size=m)
                P, Q = _rotated(rng, d, e)
                _, pts = _pencil_test_points(P, Q)
                ok = [psd_status(P + t * Q).verdict is not PsdVerdict.INDEFINITE for t in pts]
                longest = max(longest, sum(ok))
                self._check(P, Q)
        assert longest >= 20

    def test_multiple_bottom_eigenvalue(self, eig_calls, monkeypatch):
        # The bottom eigenvalue -1 is double at the middle test point 0, with
        # slopes +1 and -1: the smallest one peaks there, so nothing passes,
        # and on the bisection path the first probe and its slopes show it.
        # The scan reads every test point from its one stacked call.
        rng = np.random.default_rng(8104)
        P, Q = _rotated(rng, [-1.0, -1.0, 10.0, 10.0], [1.0, -1.0, 1.0, -1.0])
        for path, calls in (("bisection", 2), ("scan", 1)):
            monkeypatch.setattr(quad_core, "_SCAN_MAX", _PATHS[path])
            eig_calls[0] = 0
            assert psd_interval(P, Q) is None
            assert eig_calls[0] == calls, path
        monkeypatch.undo()
        assert _psd_interval_scan(P, Q) is None
        # Two copies of one pencil: every eigenvalue, every root and every
        # slope comes twice.
        for m in (2, 5, 20):
            for _ in range(4):
                d, e = rng.normal(size=m), rng.normal(size=m)
                if rng.uniform() < 0.5:
                    d = rng.uniform(size=m) - float(rng.normal()) * e  # PSD somewhere
                P, Q = _rotated(rng, np.tile(d, 2), np.tile(e, 2))
                self._check(P, Q)

    def test_common_kernel(self):
        rng = np.random.default_rng(8105)
        for m in (3, 8, 30):
            for r in (1, m // 2):
                W, _ = np.linalg.qr(rng.normal(size=(m, m - r)))
                Pr, Qr = _sym(rng, m - r), _sym(rng, m - r)
                if r == 1:
                    L = rng.normal(size=(m - r, m - r))
                    Pr = L @ L.T - Qr
                self._check(W @ Pr @ W.T, W @ Qr @ W.T)

    def test_double_root(self):
        # det [[0, t], [t, 1]] = -t^2: a double root at 0, the only PSD point.
        P, Q = np.array([[0.0, 0.0], [0.0, 1.0]]), np.array([[0.0, 1.0], [1.0, 0.0]])
        lo, hi = self._check(P, Q)
        assert lo == pytest.approx(0.0, abs=1e-7) and hi == pytest.approx(0.0, abs=1e-7)
        rng = np.random.default_rng(8106)
        for m in (3, 10):
            d, e = rng.uniform(1.0, 2.0, size=m), rng.normal(size=m)
            d[1], e[1] = d[0], e[0]
            self._check(*_rotated(rng, d, e))

    def test_close_failures(self):
        # The cutoff grows with the spectral radius, so a test point that
        # fails by less than the cutoff of others may lie between passing
        # ones.  Here the smallest eigenvalue is -1e-8 on [-2, 10]; the
        # cutoff admits it at the roots -2 and 10, not at the midpoint 4.
        P, Q = np.diag([-1e-8, 2.0, 10.0]), np.diag([0.0, 1.0, -1.0])
        assert self._check(P, Q) == (-2.0, 10.0)
        # Lines of slope 1e-10 to 3e-9 add roots near the cutoff.
        rng = np.random.default_rng(8107)
        split = 0
        for _ in range(200):
            k = int(rng.integers(1, 5))
            r = rng.uniform(-3.0, 12.0, size=k)
            d = 10.0 ** rng.uniform(-10.0, -8.5, size=k) * rng.choice([-1.0, 1.0], size=k)
            P = np.diag(np.concatenate([[-rng.uniform(3e-9, 2e-8), 2.0, 10.0], -d * r]))
            Q = np.diag(np.concatenate([[0.0, 1.0, -1.0], d]))
            self._check(P, Q)
            ok = np.flatnonzero([psd_status(P + t * Q).verdict is not PsdVerdict.INDEFINITE
                                 for t in _pencil_test_points(P, Q)[1]])
            split += ok.size > 0 and ok.size < ok[-1] - ok[0] + 1
        assert split >= 20


def _pencil_families():
    """(P, Q) pairs: the random pencils of TestPsdIntervalBisection, then a
    singular Q, a singular P, a common kernel, Q = 0, P = 0 and both zero."""
    rng = np.random.default_rng(8101)
    for m in range(2, 52):
        for kind in range(3):
            Q = _sym(rng, m)
            if kind == 0:
                P = _sym(rng, m)
            else:
                L = rng.normal(size=(m, m - kind + 1))
                P = L @ L.T - float(rng.normal()) * Q
            yield P, Q
    rng = np.random.default_rng(8108)
    for m in (2, 3, 7, 20):
        L = rng.normal(size=(m, m - 1))
        yield _sym(rng, m), L @ L.T
        yield L @ L.T, _sym(rng, m)
        W, _ = np.linalg.qr(rng.normal(size=(m, m - 1)))
        yield W @ _sym(rng, m - 1) @ W.T, W @ (L[: m - 1] @ L[: m - 1].T) @ W.T
        for S in (_sym(rng, m), L @ L.T):
            yield S, np.zeros((m, m))
            yield np.zeros((m, m)), S
    yield np.zeros((3, 3)), np.zeros((3, 3))


def _same_roots(got, want, unit, rtol=1e-9):
    """Every root of each within rtol of the other's, relative to |root| + unit."""
    for a, b in ((got, want), (want, got)):
        for r in a:
            assert np.abs(b - r).min(initial=np.inf) <= rtol * (abs(r) + unit), (r, b)


class TestSharedPencilSolve:
    """One root solve of a pair of quadratics serves (+-P, Q) and (+-Q, +-P)."""

    @staticmethod
    def _orientations(p, q):
        return ((p, q), (-p, q), (q, p), (-q, p), (q, -p), (-q, -p))

    def test_orientations_match_direct_solves(self, workspace, work_counts):
        kinds = {"interval": 0, "none": 0, "swapped_root_at_0": 0}
        for P, Q in _pencil_families():
            m = len(P)
            p, q = QuadForm(P, np.zeros(m), 0.0), QuadForm(Q, np.zeros(m), 0.0)
            work_counts["solves"] = 0
            for a, b in self._orientations(p, q):
                iv = pencil_interval(a, b)
                found = _pair_test_points(a, b, False)
                direct = _solve_pencil(a.A, b.A)
                if found is None:
                    assert iv is None and direct is None
                    kinds["none"] += 1
                    continue
                assert iv == _psd_interval_scan(a.A, b.A, found=found)
                kinds["interval" if iv is not None else "none"] += 1
                want = direct.test_points()[0]
                unit = (np.abs(a.A).max() / np.abs(b.A).max() if b.A.any() else 0.0) or 1.0
                _same_roots(found[0], want, unit)
                kinds["swapped_root_at_0"] += b is not q and bool((found[0] == 0.0).any())
            assert work_counts["solves"] == 1
        assert min(kinds.values()) > 0, kinds

    def test_lifted_pencils_of_the_corpus(self, workspace, work_counts):
        for name in corpus.NAMES:
            _, g, h, _ = corpus.load(name)
            work_counts["solves"] = 0
            for a, b in self._orientations(g, h):
                found = _pair_test_points(a, b, True)
                direct = _solve_pencil(lift(a), lift(b))
                assert (found is None) == (direct is None)
                if found is not None:
                    iv = pencil_interval(a, b, PSD_RTOL, lifted=True)
                    assert iv == _psd_interval_scan(lift(a), lift(b), found=found)
                    # Double roots (ex25b's at 4) are accurate to about sqrt(eps).
                    _same_roots(found[0], direct.test_points()[0], 1.0, 1e-7)
            # The quadratic parts are a second pencil of the same pair.
            pencil_interval(h, g)
            pencil_interval(-g, h)
            assert work_counts["solves"] == 2

    def test_one_entry_per_pair_and_request(self, workspace, work_counts):
        # One root solve per pair and request, whichever sign and order of
        # g and h asks first, and a transient quadratic's solve stays until
        # the request ends.
        _, g, h, _ = corpus.load("ex24")
        for first in (lambda: (g, h), lambda: (-h, g), lambda: (h, -g)):
            with Workspace():
                work_counts["solves"] = 0
                for a, b in (first(), (g, h), (-g, h), (-h, g), (h, -g), (-g, -h)):
                    pencil_interval(a, b)
                assert work_counts["solves"] == 1
        work_counts["solves"] = 0
        tmp = g + 2.0 * h
        pencil_interval(tmp, g)
        pencil_interval(g, -tmp)
        assert work_counts["solves"] == 1
        with Workspace():  # a second request shares nothing
            pencil_interval(g, tmp)
            assert work_counts["solves"] == 2
        pencil_interval(-tmp, -g)
        assert work_counts["solves"] == 2


class TestDefinitePencil:
    """A positive definite Q gives the roots of P + lam*Q from its Cholesky factor."""

    @staticmethod
    def _shift_path(monkeypatch, P, Q):
        # The general solve, with the Cholesky factor unavailable.
        def no_factor(M):
            return None  # what the kernel returns where LAPACK fails

        with monkeypatch.context() as mp:
            mp.setattr(quad_core, "_cholesky", no_factor)
            return _solve_pencil(P, Q)

    def test_roots_match_the_shift_path(self, monkeypatch):
        rng = np.random.default_rng(8109)
        for m in range(2, 52):
            M = rng.normal(size=(m, m))
            P, Q = _sym(rng, m), M @ M.T / m + 0.1 * np.eye(m)
            got, want = _solve_pencil(P, Q), self._shift_path(monkeypatch, P, Q)
            assert got.mu == 0.0
            unit = np.abs(P).max() / np.abs(Q).max()
            for sign in (1, -1):
                for swap in (False, True):
                    _same_roots(got.test_points(sign, swap)[0], want.test_points(sign, swap)[0],
                                1.0 / unit if swap else unit)
            assert psd_interval(P, Q) == _psd_interval_scan(P, Q)

    def test_congruence_diagonalizes_the_pencil(self, monkeypatch):
        # T = L^-T U from the root solve's one decomposition: T'QT = I and
        # T'PT = diag(sigma), so T'(P + lam*Q)T = diag(sigma + lam); the
        # roots -sigma are the shift path's.
        rng = np.random.default_rng(8112)
        for m in range(2, 52):
            M = rng.normal(size=(m, m))
            P, Q = _sym(rng, m), M @ M.T / m + 0.1 * np.eye(m)
            solve = _solve_pencil(P, Q)
            T, sigma = solve.congruence()
            assert not sigma.flags.writeable and not solve.eig.vectors.flags.writeable
            for got, want, scale in ((T.T @ Q @ T, np.eye(m), 1.0),
                                     (T.T @ P @ T, np.diag(sigma), np.abs(sigma).max())):
                assert np.abs(got - want).max() <= 1e-9 * scale
            want = self._shift_path(monkeypatch, P, Q)
            _same_roots(-sigma, want.test_points()[0], np.abs(P).max() / np.abs(Q).max())

    def test_nearly_singular_factor_takes_the_shift_path(self, monkeypatch):
        # Pivots 1e-12 apart, and a rank-deficient Q whose factor rounding
        # lets through, pass Cholesky but not the rcond bar of the shifts.
        rng = np.random.default_rng(8110)
        factored = [0, 0]
        for m in (2, 3, 5, 8, 20, 40) * 4:
            L = rng.normal(size=(m, m - 1))
            D = np.diag(np.r_[rng.uniform(1.0, 2.0, size=m - 1), 1e-12])
            for k, Q in enumerate((D, L @ L.T)):
                P = _sym(rng, m)
                try:
                    np.linalg.cholesky(Q)
                    factored[k] += 1
                except np.linalg.LinAlgError:
                    pass
                got, want = _solve_pencil(P, Q), self._shift_path(monkeypatch, P, Q)
                assert (got is None) == (want is None)
                if got is not None:
                    assert np.array_equal(got.theta, want.theta) and got.mu == want.mu
        assert factored[0] == 24 and factored[1] > 0, factored

    def test_no_svd_when_q_is_definite(self, monkeypatch):
        calls = []
        for module, name in ((np.linalg, "svd"), (quad_core, "_eigvals")):
            orig = getattr(module, name)
            monkeypatch.setattr(module, name,
                                lambda *a, _o=orig, _n=name, **k: calls.append(_n) or _o(*a, **k))
        rng = np.random.default_rng(8111)
        for m in (1, 3, 50):
            M = rng.normal(size=(m, m))
            assert _solve_pencil(_sym(rng, m), M @ M.T + np.eye(m)) is not None
        assert calls == []
        _solve_pencil(_sym(rng, 3), _sym(rng, 3) - 10.0 * np.eye(3))  # indefinite or negative Q
        assert "svd" in calls


class TestDefiniteInterval:
    """A definite Q gives the interval of an orientation of the pencil from
    its root solve, confirmed at the ends; else the bisection reads it."""

    @staticmethod
    def _orientations(p, q):
        # With the number of ends that confirm a read interval, two
        # decompositions each: +-P +- lam*Q and Q + lam*(+-P) have a known
        # definite member.
        return (((p, q), 1), ((-p, q), 1), ((p, -q), 1), ((-p, -q), 1),
                ((q, p), 2), ((q, -p), 2), ((-q, p), None), ((-q, -p), None))

    def _check(self, P, Q, eig_calls, tol=PSD_RTOL):
        """Every orientation's interval is the scan's; returns the number of
        orientations with a known definite member that read the verdicts of
        the test points.  Up to _SCAN_MAX wide, an end's two decompositions
        are one stacked call."""
        m = len(P)
        p, q = QuadForm(P, np.zeros(m), 0.0), QuadForm(Q, np.zeros(m), 0.0)
        calls_per_end = 1 if m <= quad_core._SCAN_MAX else 2
        bisected = 0
        with Workspace():
            for (a, b), ends in self._orientations(p, q):
                found = _pair_test_points(a, b, False)
                eig_calls[0] = 0
                iv = pencil_interval(a, b, tol)
                bisected += ends is not None and eig_calls[0] > ends * calls_per_end
                assert iv == _psd_interval_scan(a.A, b.A, tol, found=found)
        return bisected

    def test_matches_the_scan_in_every_orientation(self, eig_calls):
        rng = np.random.default_rng(8112)
        for m in range(2, 52):
            M = rng.normal(size=(m, m))
            Q = M @ M.T / m + 0.1 * np.eye(m)
            L = rng.normal(size=(m, m - 1))
            tol = PSD_RTOL if m % 2 else INF_PSD_RTOL
            for P in (_sym(rng, m), L @ L.T - float(rng.normal()) * Q):
                assert self._check(P, Q, eig_calls, tol) == 0

    def test_close_top_roots_take_the_bisection(self, eig_calls):
        # The top two roots of P + lam*Q lie within about twice the cutoff
        # of each other: the test point between them fails, but not
        # clearly, so the read is not confirmed.
        rng = np.random.default_rng(8113)
        bisected = 0
        for m in (2, 3, 5, 10, 20, 51):
            for _ in range(6):
                r = np.sort(rng.uniform(-3.0, 3.0, size=m))
                e = rng.uniform(0.5, 2.0, size=m)
                r[-2] = r[-1] - rng.uniform(0.1, 4.0) * PSD_RTOL * (1.0 + 6.0 * np.abs(r).max()) / e[-1]
                bisected += self._check(*_rotated(rng, -r * e, e), eig_calls)
        assert bisected >= 50

    def test_factor_just_above_the_bar(self, eig_calls):
        # A smallest pivot one to three times RANK_RTOL of the largest puts
        # roots past the far cutoff of the test points: reads that do not
        # hold at their checks fall through to the bisection.
        rng = np.random.default_rng(8114)
        bisected = 0
        for m in (2, 3, 5, 10, 20, 51):
            for _ in range(6):
                e = rng.uniform(1.0, 2.0, size=m)
                e[0] = RANK_RTOL * e.max() * rng.uniform(1.05, 3.0)
                Q = np.diag(e)
                assert _definite_factor(Q) is not None and _solve_pencil(_sym(rng, m), Q).definite
                bisected += self._check(_sym(rng, m), Q, eig_calls)
        assert bisected >= 20

    def test_lower_end_decomposition(self, rng, workspace, monkeypatch):
        # Above _SCAN_MAX the read decomposes P + lam*Q at a positive end
        # with vectors, bit for bit the decomposition of that matrix, and a
        # negative end from eigenvalues alone; up to it, every finite end
        # comes from a stacked call with vectors.
        for n in (6, 12) * 10:
            small = n <= quad_core._SCAN_MAX
            f, g, _ = trust_region_pair(rng, n, False)
            iv, lower, upper = _pencil_interval(f, g, INF_PSD_RTOL)
            assert iv[1] == np.inf and upper is None
            if iv[0] > 0.0 or small:
                _assert_decomposes(lower, f.A + iv[0] * g.A)
            else:
                assert lower is None
            # g.A + lam*f.A is definite at 0: its lower end is negative.
            iv, lower, upper = _pencil_interval(g, f, INF_PSD_RTOL)
            assert iv[0] < 0.0 < iv[1]
            _assert_decomposes(upper, g.A + iv[1] * f.A)
            if small:
                _assert_decomposes(lower, g.A + iv[0] * f.A)
            else:
                assert lower is None
        monkeypatch.setattr(quad_core, "_SCAN_MAX", _PATHS["bisection"])
        # -g is not definite: the bisection keeps no decomposition.
        assert _pencil_interval(-f, -g, INF_PSD_RTOL)[1:] == (None, None)

    def test_scan_keeps_both_ends(self):
        # The scan hands on its decompositions at both finite ends, passing
        # or not, bit for bit those of P + lo*Q and P + hi*Q.
        rng = np.random.default_rng(8115)
        for m in (2, 3, 6, 7):
            assert m <= quad_core._SCAN_MAX
            for _ in range(20):
                e = rng.normal(size=m)
                e[:2] = -abs(e[0]), abs(e[1])  # Q is indefinite: no definite read
                P, (Q,) = _sym(rng, m), _rotated(rng, e)
                P = P @ P.T / m - float(rng.normal()) * Q  # semidefinite at some lam
                p, q = QuadForm(P, np.zeros(m), 0.0), QuadForm(Q, np.zeros(m), 0.0)
                iv, lower, upper = _pencil_interval(p, q, PSD_RTOL)
                for end, ed in zip(iv, (lower, upper)):
                    if np.isfinite(end):
                        _assert_decomposes(ed, p.A + end * q.A)
                    else:
                        assert ed is None


def _direct_read(p, q, tol, lifted=False):
    """_pencil_interval of (p, q) read afresh from the pair's root solve:
    no stored read is looked up, and none is stored."""
    ws = current_workspace()
    solve, sign, swap, q_sign, _ = ws.pencil(p, q, lifted)
    return quad_core._interval(ws.matrix(p, lifted), ws.matrix(q, lifted), tol, solve, sign, swap, q_sign)


def _stored(p, q, tol, lifted=False):
    """Whether the pair holds a stacked read of (p, q) at tol."""
    _, sign, swap, q_sign, reads = current_workspace().pencil(p, q, lifted)
    return (sign, swap, q_sign, tol) in reads


def _mirror_pairs(rng, n):
    """Fresh (p, q) on R^n: q.A indefinite, with p.A arbitrary and with
    p.A + mu*q.A semidefinite at some mu; q.A definite, with lift(q)
    definite too; p and q with a common kernel in A and in the lift."""
    def quad(A, scale=1.0, a0=None):
        return QuadForm(A, scale * rng.normal(size=n), float(rng.normal()) if a0 is None else a0)

    yield quad(_sym(rng, n)), quad(_sym(rng, n))
    Q, L = _sym(rng, n), rng.normal(size=(n, n))
    yield quad(L @ L.T / n - float(rng.normal()) * Q), quad(Q)
    M = rng.normal(size=(n, n))
    yield quad(_sym(rng, n)), quad(M @ M.T / n + 0.1 * np.eye(n), 0.1, 1.0 + n)
    W, _ = np.linalg.qr(rng.normal(size=(n, n)))
    W = W[:, : n - 1]
    yield (QuadForm(W @ _sym(rng, n - 1) @ W.T, W @ rng.normal(size=n - 1), float(rng.normal())),
           QuadForm(W @ _sym(rng, n - 1) @ W.T, W @ rng.normal(size=n - 1), float(rng.normal())))


def _assert_same_read(got, want, mirrored=False):
    """The same interval and, bit for bit, the same end decompositions; a
    mirrored read hands on the eigenvalues alone."""
    assert got[0] == want[0]
    for ed, ref in zip(got[1:], want[1:]):
        assert (ed is None) == (ref is None)
        if ed is not None:
            assert np.array_equal(ed.values, ref.values)
            if mirrored:
                assert ed.vectors is None and not ed.values.flags.writeable
            else:
                assert np.array_equal(ed.vectors, ref.vectors)


class TestMirroredRead:
    """A stacked read of P + lam*Q also reads -P + lam*Q, bit for bit what a
    read of -P + lam*Q from the pair's root solve gives, with no
    decomposition; the definite read and the bisection store nothing.

    On degenerate pencils, with equal eigenvalues or entries that cancel
    to zero, LAPACK's decomposition of -M is not always M's negated: its
    vectors can differ and, on matrices that are zero to rounding, its
    eigenvalues at rounding level.  So the mirror hands on no vectors."""

    @staticmethod
    def _read_in_sign_pairs(p, q, tol, lifted, eig_calls):
        # Each orientation, then its mirror, in one request; the number of
        # mirrors served.
        served = 0
        with Workspace() as ws:
            for a, b in ((p, q), (p, -q), (q, p), (q, -p)):
                _assert_same_read(_pencil_interval(a, b, tol, lifted), _direct_read(a, b, tol, lifted))
                stored = _stored(-a, b, tol, lifted)
                eig_calls[0] = 0
                mirrored = _pencil_interval(-a, b, tol, lifted)
                if stored:
                    assert eig_calls[0] == 0
                    served += 1
                _assert_same_read(mirrored, _direct_read(-a, b, tol, lifted), stored)
            assert len(ws._pair_solves) == 1  # one entry for the pair
        return served

    def test_mirror_is_the_direct_read(self, eig_calls):
        rng = np.random.default_rng(8120)
        served = found = 0
        for n in range(1, 8):
            for _ in range(3):
                for p, q in _mirror_pairs(rng, n):
                    for tol in (INF_PSD_RTOL, PSD_RTOL):
                        for lifted in (False, True):
                            p, q = QuadForm(p.A, p.a, p.a0), QuadForm(q.A, q.a, q.a0)
                            served += self._read_in_sign_pairs(p, q, tol, lifted, eig_calls)
                            found += pencil_interval(p, q, tol, lifted) is not None
        assert served >= 500 and found >= 100, (served, found)

    def test_after_a_definite_read(self, workspace, eig_calls):
        # q.A is definite: P + lam*Q takes the definite read, which stores
        # nothing, so -P + lam*Q is read on its own.
        rng = np.random.default_rng(8121)
        definite = 0
        for n in range(1, 8):
            for tol in (INF_PSD_RTOL, PSD_RTOL):
                M = rng.normal(size=(n, n))
                p = QuadForm(_sym(rng, n), rng.normal(size=n), 0.0)
                q = QuadForm(M @ M.T / n + 0.1 * np.eye(n), rng.normal(size=n), 0.0)
                want = _direct_read(p, q, tol)  # the pair's root solve, no read stored
                eig_calls[0] = 0
                read = _pencil_interval(p, q, tol)
                _assert_same_read(read, want)
                if eig_calls[0] > 1:
                    continue  # a check did not hold: the scan read it
                definite += 1
                assert not _stored(-p, q, tol)
                eig_calls[0] = 0
                mirrored = _pencil_interval(-p, q, tol)
                assert eig_calls[0] >= 1
                _assert_same_read(mirrored, _direct_read(-p, q, tol))
        assert definite >= 10

    def test_degenerate_pencils(self, workspace):
        # Small integer diagonals and a two-dimensional common kernel: the
        # interval is still the direct read's, and the eigenvalues are equal
        # up to rounding of the spectral scale.
        rng = np.random.default_rng(8123)
        served = 0
        for n in range(2, 8):
            for _ in range(6):
                ints = lambda *shape: rng.integers(-3, 4, size=shape).astype(float)
                W = np.linalg.qr(rng.normal(size=(n, n)))[0][:, : n - 2]
                pairs = [(QuadForm(np.diag(ints(n)), ints(n), float(ints(1)[0])),
                          QuadForm(np.diag(ints(n)), ints(n), float(ints(1)[0]))),
                         (QuadForm(W @ _sym(rng, n - 2) @ W.T, W @ rng.normal(size=n - 2), 1.0),
                          QuadForm(W @ _sym(rng, n - 2) @ W.T, W @ rng.normal(size=n - 2), -1.0))]
                for p, q in pairs:
                    for tol, lifted in ((INF_PSD_RTOL, False), (PSD_RTOL, True)):
                        p, q = QuadForm(p.A, p.a, p.a0), QuadForm(q.A, q.a, q.a0)
                        for a, b in ((p, q), (q, -p)):
                            _pencil_interval(a, b, tol, lifted)
                            if not _stored(-a, b, tol, lifted):
                                continue
                            served += 1
                            got, want = _pencil_interval(-a, b, tol, lifted), _direct_read(-a, b, tol, lifted)
                            assert got[0] == want[0]
                            for ed, ref in zip(got[1:], want[1:]):
                                assert (ed is None) == (ref is None)
                                if ed is not None:
                                    scale = 1.0 + np.abs(ref.values).max()
                                    assert np.abs(ed.values - ref.values).max() <= 1e-15 * scale
        assert served >= 100, served

    def test_bisection_stores_nothing(self, eig_calls, monkeypatch):
        monkeypatch.setattr(quad_core, "_SCAN_MAX", _PATHS["bisection"])
        rng = np.random.default_rng(8122)
        for n in range(1, 8):
            for p, q in _mirror_pairs(rng, n):
                for lifted in (False, True):
                    p, q = QuadForm(p.A, p.a, p.a0), QuadForm(q.A, q.a, q.a0)
                    assert self._read_in_sign_pairs(p, q, PSD_RTOL, lifted, eig_calls) == 0


def _assert_decomposes(ed, M):
    """``ed`` is bit for bit the decomposition of M with vectors."""
    ref = EigenDecomp.of(M)
    assert np.array_equal(ed.values, ref.values)
    assert np.array_equal(ed.vectors, ref.vectors)


def _reference_roots(q, x, d, cut):
    """np.roots of the restriction q(x + t*d), trimmed at the same cutoff."""
    c2 = float(d @ q.A @ d)
    c1 = 2.0 * float((q.A @ x + q.a) @ d)
    c0 = evaluate(q, x)
    coeffs = [c2, c1, c0] if abs(c2) > cut else [c1, c0] if abs(c1) > cut else [c0]
    r = np.roots(coeffs) if len(coeffs) > 1 else np.empty(0)
    return np.sort(r[np.abs(r.imag) <= 1e-12 * (1.0 + np.abs(r))].real)


class TestLineRoots:
    @pytest.mark.parametrize("rtol", [1e-13, RANK_RTOL])
    def test_matches_np_roots(self, rng, rtol):
        A = rng.normal(size=(3, 3))
        A = A + A.T
        A[0, :] = A[:, 0] = 0.0
        q = QuadForm(A, rng.normal(size=3), float(rng.normal()))
        cut = rtol * (1.0 + q.data_scale())
        X = rng.normal(size=(40, 3))
        D = rng.normal(size=(40, 3))
        D[0] = 0.0  # constant restriction: no root
        D[1] = D[2] = [1.0, 0.0, 0.0]  # linear restriction: A e1 = 0
        X[2] = [0.0, 0.0, 0.0]
        tiny = QuadForm(np.diag([0.5 * cut, 1.0, 1.0]), [1.0, 0.0, 0.0], -3.0)
        small = QuadForm(np.diag([4.0 * cut, 1.0, 1.0]), [1.0, 0.0, 0.0], -3.0)
        e1 = np.array([[1.0, 0.0, 0.0]])
        for form, X_, D_ in ((q, X, D), (tiny, np.zeros((1, 3)), e1), (small, np.zeros((1, 3)), e1)):
            got = line_roots(form, X_, D_, rtol)
            assert got.shape == (len(X_), 2)
            form_cut = rtol * (1.0 + form.data_scale())
            for x, d, row in zip(X_, D_, got):
                want = _reference_roots(form, x, d, form_cut)
                assert np.isnan(row[want.size:]).all()
                np.testing.assert_allclose(row[: want.size], want, rtol=1e-7)
                for t in row[: want.size]:
                    # Exact up to rounding and a dropped leading coefficient.
                    assert abs(evaluate(form, x + t * d)) <= (1e-12 * (1.0 + abs(t)) ** 2
                                                              + form_cut * t * t)
        assert np.isnan(line_roots(q, X[:1], D[:1], rtol)).all()
        assert np.count_nonzero(~np.isnan(line_roots(q, X[1:3], D[1:3], rtol))) == 2
        assert np.count_nonzero(~np.isnan(line_roots(tiny, np.zeros((1, 3)), e1, rtol))) == 1
        assert np.count_nonzero(~np.isnan(line_roots(small, np.zeros((1, 3)), e1, rtol))) == 2

    def test_no_real_root(self):
        q = QuadForm(np.eye(2), [0.5, 0.0], 1.0)
        X = np.array([[0.0, 0.0], [3.0, -1.0]])
        assert np.isnan(line_roots(q, X, np.array([[1.0, 0.0], [0.6, 0.8]]), 1e-13)).all()

    def test_symmetric_pair_and_double_root(self):
        q = poly1(axx=1.0, c=-2.0)  # x^2 - 2
        lo, hi = line_roots(q, np.zeros((1, 1)), np.ones((1, 1)), 1e-13)[0]
        assert hi == -lo == np.sqrt(2.0)
        square = poly1(axx=1.0)
        assert line_roots(square, np.zeros((1, 1)), np.ones((1, 1)), 1e-13).tolist() == [[0.0, 0.0]]

    def test_empty(self):
        assert line_roots(poly2(axx=1.0), np.zeros((0, 2)), np.zeros((0, 2)), 1e-13).shape == (0, 2)


def _corpus_pencils():
    """Every corpus (f, g, h) on a multiplier grid: Q, v, s stacked."""
    lam = np.array([0.0, 0.25, 0.5, 1.0, 2.0, 4.0])
    l1, l2 = (m.ravel() for m in np.meshgrid(lam, lam, indexing="ij"))
    for name in corpus.NAMES:
        f, g, h, _ = corpus.load(name)
        yield (f.A + l1[:, None, None] * g.A + l2[:, None, None] * h.A,
               f.a + l1[:, None] * g.a + l2[:, None] * h.a,
               f.a0 + l1 * g.a0 + l2 * h.a0)


class TestSpectralPrimitive:
    def test_cut_zero_inverse_kernel(self):
        ed = EigenDecomp.of(np.diag([-3.0, 0.0, 1e-13, 2.0]))
        assert ed.cut(1e-12) == 1e-12 * (1.0 + 3.0)
        assert ed.zero(1e-12).tolist() == [False, True, True, False]
        assert np.array_equal(ed.inverse(1e-12), [-1.0 / 3.0, 0.0, 0.0, 0.5])
        K = ed.kernel(1e-12)
        assert K.shape == (4, 2) and np.allclose(np.abs(K[1:3]), np.eye(2))
        stacked = EigenDecomp.of(np.stack([np.diag([1.0, -5.0]), np.zeros((2, 2))]))
        assert np.array_equal(stacked.cut(0.1), [0.1 * 6.0, 0.1])
        assert stacked.zero(0.1).tolist() == [[False, False], [True, True]]

    def test_sym_eigen_validates_and_freezes(self):
        ed = sym_eigen([[2.0, 1.0], [1.0, 2.0]])
        assert not ed.values.flags.writeable and not ed.vectors.flags.writeable
        with pytest.raises(ValueError):
            sym_eigen([[np.nan]])

    def test_workspace_holds_the_decompositions(self, workspace):
        # Each decomposition is that of the canonical member of q and -q,
        # the one whose first nonzero coefficient in (A, a, a0) order is
        # positive, negated for the other.
        signs = set()
        for name in corpus.NAMES:
            for q in corpus.load(name)[:3]:
                coef = np.concatenate([q.A.ravel(), q.a, [q.a0]])
                sign = 1 if coef[np.flatnonzero(coef)[0]] > 0.0 else -1
                signs.add(sign)
                for p, s in ((q, sign), (-q, -sign)):
                    c = p.A if s > 0 else -p.A
                    for ed, ref in ((eig_of(p), EigenDecomp.of(c)), (eig_of(p, lifted=True), sym_eigen(s * lift(p)))):
                        ref = ref if s > 0 else ref.negated()
                        assert ed.values.tobytes() == ref.values.tobytes()
                        assert ed.vectors.tobytes() == ref.vectors.tobytes()
                for p, lifted in ((q, False), (q, True), (-q, False), (-q, True)):
                    ed = eig_of(p, lifted)
                    assert not ed.values.flags.writeable and not ed.vectors.flags.writeable
                    assert eig_of(p, lifted) is ed
                assert -q is -q and -(-q) is q
                # The lift and the data scale are built once, read-only.
                assert lift(q) is lift(q) and not lift(q).flags.writeable
                assert q.data_scale() == max(np.abs(lift(q)).max(), 1e-300)
        assert signs == {1, -1}

    def test_negation_shares_the_decompositions(self, workspace, eig_calls):
        # One of q and -q decomposes and the other negates, whichever of the
        # two asks first.
        for first in (lambda q: q, lambda q: -q):
            f, g, h, _ = corpus.load("ex24")
            p = first(g)
            eig_calls[0] = 0
            ed, lifted = eig_of(p), eig_of(p, lifted=True)
            assert eig_calls[0] == 2
            assert np.array_equal(eig_of(-p).values, -ed.values[::-1])
            assert np.array_equal(eig_of(-p, lifted=True).vectors, lifted.vectors[:, ::-1])
            unconstrained_min(-p)
            nonneg_everywhere(-p)
            find_negative_point(-p)
            assert eig_calls[0] == 2

    def test_negation_decomposes_alike_in_either_order(self):
        # For q = x'x - 1, whose spectrum is degenerate, LAPACK's vectors of
        # -A differ from A's reversed; -q's decomposition is q's negated
        # whether q or -q asks first.
        q = QuadForm(np.eye(2), np.zeros(2), -1.0)
        reads = []
        for first in (lambda q: q, lambda q: -q):
            with Workspace():
                eig_of(first(q)), eig_of(first(q), lifted=True)
                reads.append([eig_of(-q, lifted) for lifted in (False, True)])
        ref = [sym_eigen(q.A).negated(), sym_eigen(lift(q)).negated()]
        for ed, other, want in zip(*reads, ref):
            for arrays in ((ed.values, other.values, want.values), (ed.vectors, other.vectors, want.vectors)):
                assert arrays[0].tobytes() == arrays[1].tobytes() == arrays[2].tobytes()
        # Outside a request nothing is kept: each read is afresh.
        assert eig_of(q) is not eig_of(q) and -q is not -q

    def test_unconstrained_min_once_and_read_only(self, workspace):
        for name in corpus.NAMES:
            for q in corpus.load(name)[:3]:
                for p in (q, -q):
                    um = unconstrained_min(p)
                    assert unconstrained_min(p) is um
                    for arr in (um.x, um.direction, um.kernel):
                        assert arr is None or not arr.flags.writeable

    def test_stacked_closed_form_matches_single(self):
        kinds = {"finite": 0, "curvature": 0, "range": 0}
        for Q, v, s in _corpus_pencils():
            stacked = quad_inf(Q, v, s)
            for k in range(len(Q)):
                one = quad_inf(Q[k], v[k], s[k])
                assert np.array_equal(one.zero, stacked.zero[k])
                if one.value == -np.inf:
                    assert stacked.value[k] == -np.inf
                    curv = one.eig.values[0] < -one.eig.cut(INF_PSD_RTOL)
                    kinds["curvature" if curv else "range"] += 1
                    continue
                kinds["finite"] += 1
                assert stacked.value[k] == pytest.approx(one.value, rel=1e-12, abs=1e-12)
                assert np.allclose(stacked.x[k], one.x, rtol=1e-12, atol=1e-12)
                # The minimizer attains the value and is stationary.
                assert one.x @ Q[k] @ one.x + 2 * v[k] @ one.x + s[k] == pytest.approx(
                    one.value, rel=1e-9, abs=1e-9)
                assert np.linalg.norm(Q[k] @ one.x + v[k]) <= 1e-9 * (1 + np.linalg.norm(v[k]))
        # ex24 at lam1 - lam2 = 1 is singular with v off the range; above it
        # the pencil has negative curvature.
        assert min(kinds.values()) >= 5, kinds

    def test_unconstrained_min_kernel_at_the_same_cut(self, rng):
        quads = [q for name in corpus.NAMES for q in corpus.load(name)[:3]]
        for _ in range(20):
            M = rng.normal(size=(4, int(rng.integers(1, 4))))
            quads.append(QuadForm(M @ M.T, M @ rng.normal(size=M.shape[1]), 1.0))
        for q in quads:
            um = unconstrained_min(q)
            ed = EigenDecomp.of(q.A)
            K = um.kernel
            assert K.shape == (q.n, int(ed.zero(RANK_RTOL).sum()))
            assert np.allclose(K.T @ K, np.eye(K.shape[1]), atol=1e-12)
            assert np.linalg.norm(q.A @ K, ord=2) <= ed.cut(RANK_RTOL) + 1e-12
            if um.status == "attained":
                # x + span(kernel) are minimizers.
                for z in K.T:
                    assert evaluate(q, um.x + z) == pytest.approx(um.value, abs=1e-8)

    def test_eigen_calls_only_in_quad_core(self):
        # Every symmetric eigendecomposition and pseudo-inverse goes through
        # EigenDecomp, and every other routed LAPACK routine through its
        # quad_core kernel, where a test's patch reaches it; instances.py
        # draws the seeded families and stays as is.
        pattern = re.compile(r"\b(eigh|eigvalsh|pinv)\b|\blinalg\.(cholesky|solve|inv|eigvals)\b")
        src = Path(nonalter.__file__).parent
        offenders = [
            f"{path.name}:{i}"
            for path in sorted(src.glob("*.py"))
            if path.name not in ("quad_core.py", "instances.py")
            for i, line in enumerate(path.read_text().splitlines(), 1)
            if pattern.search(line)
        ]
        assert offenders == []
