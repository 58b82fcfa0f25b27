"""The LAPACK kernels of ``quad_core`` against numpy.linalg, bit for bit;
their per-request counts; and the pencil's root bookkeeping in Python
floats against the array arithmetic it replaced."""

import importlib
import inspect
import re
import warnings
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

import nonalter.quad_core as quad_core
from nonalter import classify, corpus, problem_io, qp1qc, solve
from nonalter.quad_core import (
    EigenDecomp,
    QuadForm,
    Workspace,
    _cholesky,
    _eigh,
    _eigvals,
    _eigvalsh,
    _inv,
    _norm,
    _solve,
    _solve_pencil,
    lift,
    null_basis,
    psd_interval,
    psd_status,
    pseudo_inverse,
    sym_eigen,
)

ROOT = Path(__file__).resolve().parent.parent
SIZES = (1, 2, 3, 4, 5, 7, 10, 16, 25, 50)


def _bits(x):
    """x down to comparable parts: arrays as (dtype, shape, bytes), so -0.0
    differs from 0.0 and a nan from a nan of another payload."""
    if isinstance(x, (np.ndarray, np.generic)):
        x = np.asarray(x)
        return type(x).__name__, x.dtype.str, x.shape, x.tobytes()
    if isinstance(x, float):
        return "float", x.hex()
    if isinstance(x, EigenDecomp):
        return "EigenDecomp", _bits(x.values), _bits(x.vectors)
    if isinstance(x, (tuple, list)):
        return type(x).__name__, tuple(map(_bits, x))
    if hasattr(x, "__dataclass_fields__"):
        return type(x).__name__, tuple(_bits(getattr(x, k)) for k in x.__dataclass_fields__)
    return x


def _outcome(fn, *args):
    try:
        return "value", _bits(fn(*args))
    except Exception as exc:  # the same exception, type and message, counts as the same
        return "raised", type(exc).__name__, str(exc)


def _cholesky_or_none(M):
    try:
        return np.linalg.cholesky(M)
    except np.linalg.LinAlgError:
        return None


@contextmanager
def _through_numpy():
    """Every kernel replaced by the numpy.linalg call it stands for: the
    library as it computed before the kernels."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(quad_core, "_eigh", np.linalg.eigh)
        mp.setattr(quad_core, "_eigvalsh", np.linalg.eigvalsh)
        mp.setattr(quad_core, "_cholesky", _cholesky_or_none)
        mp.setattr(quad_core, "_solve", lambda A, B, singular=False: np.linalg.solve(A, B))
        mp.setattr(quad_core, "_inv", np.linalg.inv)
        mp.setattr(quad_core, "_eigvals", np.linalg.eigvals)
        mp.setattr(quad_core, "_norm", np.linalg.norm)
        yield


def _sym(rng, n):
    M = rng.normal(size=(n, n))
    return (M + M.T) / 2.0


def _matrices(rng):
    """Symmetric, positive definite, indefinite and rank-deficient matrices
    of every size in SIZES, and stacks of three of them up to n = 10."""
    for n in SIZES:
        M = rng.normal(size=(n, n))
        U, _ = np.linalg.qr(rng.normal(size=(n, n)))
        L = rng.normal(size=(n, n - 1))
        mats = [_sym(rng, n), M @ M.T / n + 0.1 * np.eye(n),
                U @ np.diag(rng.choice([-1.0, 1.0], size=n) * rng.uniform(0.5, 2.0, size=n)) @ U.T,
                L @ L.T]
        yield from mats
        if n <= 10:
            yield np.stack(mats[:3])
            yield np.stack([mats[1]] * 2 + [mats[3]])


class TestKernelsMatchNumpy:
    def test_symmetric_routines(self):
        rng = np.random.default_rng(3001)
        failed = 0
        for M in _matrices(rng):
            for A in (M, np.swapaxes(M, -1, -2)):  # C and Fortran order
                assert _bits(_eigh(A)) == _bits(tuple(np.linalg.eigh(A)))
                assert _bits(_eigvalsh(A)) == _bits(np.linalg.eigvalsh(A))
                want = _cholesky_or_none(A)
                failed += want is None
                assert _bits(_cholesky(A)) == _bits(want)
        assert failed > 0

    def test_solve_and_inverse(self):
        rng = np.random.default_rng(3002)
        for M in _matrices(rng):
            A = M + rng.normal(size=M.shape)  # not symmetric
            n = A.shape[-1]
            rhs = [rng.normal(size=A.shape[:-1] + (3,))]
            if A.ndim == 2:
                rhs.append(rng.normal(size=n))
            for B in rhs:
                assert _bits(_solve(A, B)) == _bits(np.linalg.solve(A, B))
                assert _bits(_solve(A, B, singular=True)) == _bits(np.linalg.solve(A, B))
            At = np.swapaxes(A, -1, -2)  # Fortran order, and a strided right-hand side
            assert _bits(_solve(At, rhs[0][..., ::2])) == _bits(np.linalg.solve(At, rhs[0][..., ::2]))
            assert _bits(_inv(A)) == _bits(np.linalg.inv(A))

    def test_eigvals_real_or_complex_as_numpy(self):
        rng = np.random.default_rng(3003)
        kinds = set()
        for n in SIZES:
            rot = np.array([[0.0, -1.0], [1.0, 0.0]])
            for A in (rng.normal(size=(n, n)), _sym(rng, n), np.diag(rng.normal(size=n)),
                      np.kron(np.eye(n), rot), np.triu(rng.normal(size=(n, n)))):
                got, want = _eigvals(A), np.linalg.eigvals(A)
                assert _bits(got) == _bits(want)
                kinds.add(got.dtype.kind)
        assert kinds == {"f", "c"}

    def test_norm(self):
        rng = np.random.default_rng(3004)
        for x in (rng.normal(size=7), rng.normal(size=(5, 5)), rng.normal(size=(6, 4)).T,
                  np.zeros(0), np.array([1e200, 1e200]), np.array([np.nan, 1.0])):
            with np.errstate(over="ignore"):  # 1e200 squared: both warn alike
                got, want = _norm(x), np.linalg.norm(x)
            assert type(got) is float and _bits(got) == _bits(float(want))

    def test_other_inputs_go_through_numpy(self):
        # Lists, integer and single precision arrays take numpy.linalg's own
        # path: the same dtype and the same bits as it returns.
        M = [[2, 1], [1, 3]]
        for A in (M, np.array(M), np.array(M, dtype=np.float32)):
            assert _bits(_eigh(A)) == _bits(tuple(np.linalg.eigh(A)))
            assert _bits(_eigvalsh(A)) == _bits(np.linalg.eigvalsh(A))
            assert _bits(_cholesky(A)) == _bits(np.linalg.cholesky(A))
            assert _bits(_inv(A)) == _bits(np.linalg.inv(A))
            assert _bits(_eigvals(A)) == _bits(np.linalg.eigvals(A))
            assert _bits(_solve(A, [1, 2])) == _bits(np.linalg.solve(A, [1, 2]))


class TestKernelFailures:
    def test_failing_cholesky_is_none_without_a_warning(self):
        # numpy.linalg raises, or returns a factor with a nan for a nan input.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for M in (-np.eye(3), np.diag([1.0, 0.0]), np.array([[1.0, 2.0], [2.0, 1.0]]),
                      np.array([[np.nan, 0.0], [0.0, 1.0]])):
                assert _cholesky(M) is None and _cholesky(M.tolist()) is None
                want = _cholesky_or_none(M)
                assert want is None or np.isnan(want).any()

    def test_singular_solve_raises_without_a_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for b in (np.ones(2), np.ones((2, 1))):
                with pytest.raises(np.linalg.LinAlgError, match="^Singular matrix$"):
                    _solve(np.ones((2, 2)), b, singular=True)

    def test_unexpected_failure_raises_numpys_error(self):
        # Outside the flagged sites LAPACK's report is numpy's RuntimeWarning,
        # and the kernel raises what numpy.linalg raises.
        with pytest.warns(RuntimeWarning), pytest.raises(np.linalg.LinAlgError, match="^Singular matrix$"):
            _solve(np.ones((2, 2)), np.ones(2))
        with pytest.warns(RuntimeWarning), pytest.raises(np.linalg.LinAlgError, match="^Singular matrix$"):
            _inv(np.zeros((3, 3)))

    def test_nan_from_lapack_asks_numpy_again(self, monkeypatch):
        class Failing:
            def __getattr__(self, name):
                gufunc = getattr(np.linalg._umath_linalg, name)

                def run(*args, **kwargs):
                    out = gufunc(*args, **kwargs)
                    for o in out if isinstance(out, tuple) else (out,):
                        o[...] = np.nan
                    return out
                return run

        M = np.array([[2.0, 1.0], [1.0, 3.0]])
        monkeypatch.setattr(quad_core, "_lapack", Failing())
        assert _bits(_eigh(M)) == _bits(tuple(np.linalg.eigh(M)))
        assert _bits(_eigvalsh(M)) == _bits(np.linalg.eigvalsh(M))
        assert _bits(_eigvals(M)) == _bits(np.linalg.eigvals(M))
        assert _bits(_inv(M)) == _bits(np.linalg.inv(M))
        assert _bits(_solve(M, np.ones(2))) == _bits(np.linalg.solve(M, np.ones(2)))
        assert _cholesky(M) is None

    def test_nan_input_returns_nan(self):
        M = np.array([[np.nan, 0.0], [0.0, 1.0]])
        values = EigenDecomp.of(M).values
        assert np.isnan(values[0]) and values[1] == 1.0
        assert _bits(_eigh(M)) == _bits(tuple(np.linalg.eigh(M)))
        assert _bits(_inv(M)) == _bits(np.linalg.inv(M))
        with pytest.raises(np.linalg.LinAlgError, match="infs or NaNs"):
            _eigvals(M)


class TestPublicEntryPoints:
    @staticmethod
    def _inputs():
        rng = np.random.default_rng(3005)
        big = _sym(rng, 6)
        yield [[2, 1], [1, -3]]
        yield np.array([[4, 1, 0], [1, 2, 0], [0, 0, 0]], dtype=np.int64)
        yield _sym(rng, 3).astype(np.float32)
        yield big[::2, ::2]
        yield np.asfortranarray(big)
        yield np.array([[np.nan, 0.0], [0.0, 1.0]])

    def test_same_as_through_numpy(self):
        calls = (EigenDecomp.of, EigenDecomp.values_of, sym_eigen, psd_status, pseudo_inverse,
                 null_basis, lambda M: psd_interval(M, np.eye(len(M))),
                 lambda M: psd_interval(np.eye(len(M)), M))
        for M in self._inputs():
            for fn in calls:
                with _through_numpy():
                    want = _outcome(fn, M)
                assert _outcome(fn, M) == want


def _test_points_ref(solve, sign=1, swap=False):
    """_PencilSolve.test_points in array arithmetic, as it was written before."""
    top, bottom = (solve.q_max, solve.p_max) if swap else (solve.p_max, solve.q_max)
    if not bottom:
        return np.empty(0), np.zeros(1)
    unit = top / bottom or 1.0
    theta = solve.theta
    if swap:
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            lam = theta / (solve.mu * theta - 1.0)
        lam = lam[np.abs(lam) < unit * quad_core._PENCIL_FAR]
    else:
        lam = solve.mu - 1.0 / theta[np.abs(theta) * unit * quad_core._PENCIL_FAR > 1.0]
    roots = np.array(sorted(set((sign * lam).real.tolist())))
    if not roots.size:
        return roots, np.zeros(1)
    reach = max(float(roots[-1] - roots[0]), float(np.abs(roots).max()), unit)
    pts = np.empty(2 * roots.size + 1)
    pts[1::2] = roots
    pts[2:-1:2] = 0.5 * (roots[:-1] + roots[1:])
    pts[0], pts[-1] = roots[0] - reach, roots[-1] + reach
    return roots, pts


def _definite_segment_ref(solve, pts, sign, swap, q_sign):
    """_PencilSolve.definite_segment as a test of every diagonal entry."""
    if not solve.definite or pts.size == 1:
        return None
    e0, theta = solve.diagonal(sign, swap, q_sign)
    found = np.flatnonzero((e0 + pts[::2, None] * theta > 0.0).all(axis=1))
    return int(found[0]) if found.size else None


def _pencils():
    """(P, Q): every pair of the corpus quadratics, their quadratic parts
    and lifts, both ways; random pencils with a definite, singular, zero or
    indefinite Q; and a definite Q with exact zero roots (theta = inf)."""
    for name in corpus.NAMES:
        f, g, h, _ = corpus.load(name)
        for p, q in ((f, g), (f, h), (g, h), (g, f), (h, f), (h, g)):
            yield p.A, q.A
            yield lift(p), lift(q)
    rng = np.random.default_rng(3006)
    for m in (1, 2, 3, 4, 6, 9, 20):
        M = rng.normal(size=(m, m))
        L = rng.normal(size=(m, m - 1))
        for Q in (M @ M.T / m + 0.1 * np.eye(m), L @ L.T, _sym(rng, m), np.zeros((m, m))):
            yield _sym(rng, m), Q
            yield L @ L.T, Q
    yield np.diag([0.0, 1.0, 2.0]), np.eye(3)
    yield np.diag([-0.0, -1.0, 2.0]), np.diag([1.0, 2.0, 4.0])


class TestPencilBookkeeping:
    def test_same_as_array_arithmetic(self):
        kinds = {"definite": 0, "complex": 0, "zero_theta": 0, "infinite_theta": 0}
        for P, Q in _pencils():
            solve = _solve_pencil(P, Q)
            if solve is None:
                continue
            kinds["definite"] += solve.definite
            kinds["complex"] += solve.theta.dtype.kind == "c"
            kinds["zero_theta"] += bool((solve.theta == 0).any())
            kinds["infinite_theta"] += bool(np.isinf(solve.theta).any())
            for sign in (1, -1):
                for swap in (False, True):
                    roots, pts = solve.test_points(sign, swap)
                    assert _bits((roots, pts)) == _bits(_test_points_ref(solve, sign, swap))
                    for q_sign in (1, -1):
                        assert solve.definite_segment(pts, sign, swap, q_sign) == \
                            _definite_segment_ref(solve, pts, sign, swap, q_sign)
        assert all(kinds.values()), kinds

    def test_segment_at_zero_test_points(self):
        # A test point of 0 or -0.0 reads the diagonal at lam = 0 alone.
        solve = _solve_pencil(np.diag([-1.0, 2.0]), np.eye(2))
        for pts in (np.array([-3.0, -2.0, 0.0, 1.0, 3.0]), np.array([-3.0, -2.0, -0.0, 1.0, 3.0])):
            for sign in (1, -1):
                for swap in (False, True):
                    for q_sign in (1, -1):
                        assert solve.definite_segment(pts, sign, swap, q_sign) == \
                            _definite_segment_ref(solve, pts, sign, swap, q_sign)


#: Kernel calls per routine over cycles[0] of seeds 1-3 of each benchmark
#: workload, counted before the kernels by patching numpy.linalg: requests,
#: then calls.  eigh + eigvalsh per request: 26.03, 20.80, 9.98 and 3.21.
PARENT_COUNTS = {
    "solve_inclass": (39, {"eigh": 736, "eigvalsh": 279, "cholesky": 211, "solve": 230,
                           "inv": 0, "eigvals": 62}),
    "solve_outside": (30, {"eigh": 594, "eigvalsh": 30, "cholesky": 184, "solve": 306,
                           "inv": 0, "eigvals": 54}),
    "classify_only": (57, {"eigh": 569, "eigvalsh": 0, "cholesky": 209, "solve": 160,
                           "inv": 0, "eigvals": 89}),
    "single_constraint": (24, {"eigh": 68, "eigvalsh": 9, "cholesky": 38, "solve": 66,
                               "inv": 24, "eigvals": 0}),
}


def _execute(req):
    """One benchmark request along its CLI path, at the CLI's tolerances."""
    f, g, h, meta = problem_io.parse_problem_dict(req.doc)
    if req.kind == "solve":
        payload = {"meta": meta, "report": solve.solve_nonalter(f, g, h, 1e-8)}
    elif req.kind == "classify":
        payload = {"meta": meta, "classification": classify.classify_problem(g, h, 1e-9)}
    else:
        payload = {"meta": meta, "single_constraint": qp1qc.solve_qp1qc(f, g, 1e-8)}
    return problem_io.dumps_report(payload)


class TestCounts:
    def test_counted_in_the_open_request(self):
        M = np.array([[2.0, 1.0], [1.0, 3.0]])
        EigenDecomp.of(M)  # outside a request: counted nowhere
        with Workspace() as ws:
            psd_status(M)
            _cholesky(-M)
            _solve(M, np.ones(2))
            f = QuadForm(np.eye(2), np.zeros(2), 0.0)
            g = QuadForm(np.eye(2), np.zeros(2), -1.0)
            qp1qc.solve_qp1qc(f, g)  # a nested public call joins the request
        assert ws.lapack["eigh"] >= 1 and ws.lapack["cholesky"] >= 2 and ws.lapack["solve"] >= 1
        with Workspace() as fresh:
            pass
        assert set(fresh.lapack.values()) == {0} and set(fresh.lapack) == set(quad_core._ROUTINES)

    @pytest.mark.parametrize("workload", sorted(PARENT_COUNTS))
    def test_benchmark_requests_make_the_same_calls(self, workload, monkeypatch):
        monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
        workloads = importlib.import_module("workloads")
        requests, totals = 0, dict.fromkeys(quad_core._ROUTINES, 0)
        for seed in (1, 2, 3):
            for req in workloads.build_schedule(workload, seed).cycles[0]:
                with Workspace() as ws:
                    _execute(req)
                requests += 1
                for routine, k in ws.lapack.items():
                    totals[routine] += k
        assert (requests, totals) == PARENT_COUNTS[workload]


class TestRouting:
    KERNELS = ("_eigh", "_eigvalsh", "_cholesky", "_solve", "_inv", "_eigvals")
    ROUTED = r"(eigh|eigvalsh|cholesky|solve|inv|eigvals)"

    def test_numpy_linalg_called_only_by_the_kernels(self):
        calls = re.compile(rf"np\.linalg\.{self.ROUTED}\(")
        src = Path(quad_core.__file__).read_text()
        in_kernels = sum(len(calls.findall(inspect.getsource(getattr(quad_core, k))))
                         for k in self.KERNELS)
        assert len(calls.findall(src)) == in_kernels

    def test_no_test_patches_a_routed_numpy_function(self):
        # Such a patch no longer reaches the library: patch the kernel.
        pattern = re.compile(rf"np\.linalg, \"{self.ROUTED}\"")
        offenders = [f"{path.name}:{i}" for path in sorted(Path(__file__).parent.glob("*.py"))
                     for i, line in enumerate(path.read_text().splitlines(), 1)
                     if pattern.search(line)]
        assert offenders == []
