"""The two-multiplier Lagrangian/semidefinite dual and its maximization.

For multipliers lam1, lam2 >= 0 the dual function is

    psi(lam1, lam2) = inf_x [f + lam1*g + lam2*h](x),

computed in closed form: with Q = A + lam1*B + lam2*C, v = a + lam1*b +
lam2*c and s = a0 + lam1*b0 + lam2*c0, the infimum is s - v'Q^+v when Q is
positive semidefinite and v lies in its range, and -inf otherwise.

The equivalent semidefinite reading: psi(lam) = sup{gamma : Z(gamma, lam)
PSD} with Z = M(f) - gamma*E00 + lam1*M(g) + lam2*M(h), where E00 carries a
single 1 in the homogenizing corner.  The dual is therefore a semidefinite
program in three unknowns, maximized by the barrier method (Boyd and
Vandenberghe, Convex Optimization, 2004, ch. 11): Newton's method on

    -t*gamma + lam1 + lam2 - log det Z - log lam1 - log lam2

for growing t, in units where each lift has unit largest entry.  The linear
term lam1 + lam2 keeps each centering problem bounded when the optimal
multipliers form an unbounded ray, and adds only (lam1 + lam2)/t to the
duality-gap bound.  Every iterate keeps Z positive definite, so the case of
a singular Q at the optimum (the hard case of Moré and Sorensen, 1983) needs
no separate branch.  After each centering a tangent predictor (the
path-following extrapolation, ibid. §11.3) jumps to t' = 100t or 10t when
the predicted point is strictly feasible and its Newton step at t' is full;
it is tried only where the last plain tenfold step showed a path straight
in 1/t, so a path that bends, as in the hard case, keeps the plain tenfold
steps and pays no factorization for predictions.  Each
Newton step solves its 3 x 3 system by substitution on one QR factor, which
also gives the predictor's direction.  A grid of multiplier probes, in
units set by the ratio of the quadratic parts of f and each constraint,
supplies the start and decides when psi is -inf everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .quad_core import (
    DEFAULT_TOL,
    INF_PSD_RTOL,
    PSD_RTOL,
    EigenDecomp,
    QuadForm,
    lift,
    quad_inf,
    sym_eigen,
)


@dataclass(frozen=True)
class DualPoint:
    """One feasible point of the semidefinite dual."""

    lambda1: float
    lambda2: float
    gamma: float
    slack_min_eig: float


@dataclass(frozen=True)
class SlackReport:
    slack_min_eig: float
    slack_norm: float
    feasible: bool


@dataclass(frozen=True)
class DualSolveResult:
    """Outcome of maximizing the dual over the nonnegative quadrant.

    ``status``: ``finite``, ``dual_infeasible_everywhere`` (every probed
    multiplier pair gave -inf) or ``numerical_failure`` (the barrier
    iterates stopped before the duality-gap bound fell below ``tol``).
    ``value`` is psi at the multipliers of ``best``.
    """

    status: str
    value: Optional[float] = None
    best: Optional[DualPoint] = None
    evaluations: int = 0
    trace: Optional[Tuple[dict, ...]] = None


def lagrangian_dual_value(
    f: QuadForm, g: QuadForm, h: QuadForm, lam1: float, lam2: float,
    psd_tol: float = INF_PSD_RTOL,
) -> float:
    """inf_x [f + lam1*g + lam2*h](x); -inf when the combination escapes."""
    if lam1 < 0 or lam2 < 0:
        raise ValueError("multipliers must be nonnegative")
    Q = f.A + lam1 * g.A + lam2 * h.A
    v = f.a + lam1 * g.a + lam2 * h.a
    s = f.a0 + lam1 * g.a0 + lam2 * h.a0
    return float(quad_inf(Q, v, s, psd_tol).value)


def slack_matrix(f, g, h, gamma: float, lam1: float, lam2: float) -> np.ndarray:
    """Z = M(f) - gamma*E00 + lam1*M(g) + lam2*M(h)."""
    Z = lift(f) + lam1 * lift(g) + lam2 * lift(h)
    Z = np.array(Z)
    Z[0, 0] -= gamma
    return Z


def sdp_certificate(
    f: QuadForm, g: QuadForm, h: QuadForm, point: DualPoint, tol: float = PSD_RTOL
) -> SlackReport:
    """Recompute the dual slack at a reported point; the replayable certificate."""
    Z = slack_matrix(f, g, h, point.gamma, point.lambda1, point.lambda2)
    ev = sym_eigen(Z)
    min_eig = float(ev.values[0])
    return SlackReport(
        slack_min_eig=min_eig,
        slack_norm=float(np.abs(ev.values).max(initial=0.0)),
        feasible=bool(min_eig >= -ev.cut(tol)),
    )


#: Multiplier probes, in units set by the quadratic parts (see
#: ``_probe_units``): a 64 x 64 grid of u = lam / (1 + lam) on
#: [0, 1 - 1/1024], then rays along both axes and the diagonal.
_PROBE_U = np.linspace(0.0, 1.0 - 1.0 / 1024.0, 64)
_PROBE_LAMBDAS = _PROBE_U / (1.0 - _PROBE_U)
_AXIS_LAMBDAS = np.geomspace(1e-3, 1e8, 34)
#: Barrier weight growth of a centering step, the growths the tangent
#: predictor tries (largest first), the squared Newton decrement under which
#: a Newton step is full and a predicted point is accepted, the relative
#: target of the duality-gap bound, and the Newton steps one centering may take.
_T_GROWTH = 10.0
_PREDICT_GROWTHS = (100.0, 10.0)
_FULL_STEP_DEC2 = 0.0625
_GAP_RTOL = 1e-13
_CENTERING_STEPS = 50


def _probe_blocks():
    """Probe multipliers in blocks of at most 256 pairs.

    The grid comes as 16 interleaved 16 x 16 subgrids, so the first block
    already spans the whole grid; the axis and diagonal rays come last.
    """
    lam = _PROBE_LAMBDAS
    for r1 in range(4):
        for r2 in range(4):
            yield np.repeat(lam[r1::4], 16), np.tile(lam[r2::4], 16)
    zeros = np.zeros_like(_AXIS_LAMBDAS)
    yield (np.column_stack([_AXIS_LAMBDAS, zeros, _AXIS_LAMBDAS]).ravel(),
           np.column_stack([zeros, _AXIS_LAMBDAS, _AXIS_LAMBDAS]).ravel())


def _probe_units(f: QuadForm, q: QuadForm) -> float:
    """The multiplier of q that one probe unit stands for: max|f.A| / max|q.A|.

    Positive scaling of f or q, or a translation of x, then leaves the
    probed matrices Q(lam) the same up to a positive factor.  Where either
    quadratic part vanishes it sets no scale, and the unit is 1.
    """
    a, b = float(np.abs(f.A).max()), float(np.abs(q.A).max())
    return a / b if a > 0.0 and b > 0.0 else 1.0


def _probe(f: QuadForm, g: QuadForm, h: QuadForm, lam1: np.ndarray, lam2: np.ndarray):
    """psi at a stack of multiplier pairs, and where Q(lam) is positive definite."""
    Q = f.A + lam1[:, None, None] * g.A + lam2[:, None, None] * h.A
    v = f.a + lam1[:, None] * g.a + lam2[:, None] * h.a
    s = f.a0 + lam1 * g.a0 + lam2 * h.a0
    qi = quad_inf(Q, v, s)
    return qi.value, qi.eig.values[:, 0] > qi.eig.cut(INF_PSD_RTOL)


def solve_dual_2d(
    f: QuadForm,
    g: QuadForm,
    h: QuadForm,
    tol: float = DEFAULT_TOL,
    *,
    collect_trace: bool = False,
) -> DualSolveResult:
    """Maximize gamma subject to Z(gamma, lam) PSD and lam1, lam2 >= 0.

    The best probe with Q(lam) positive definite starts the barrier method;
    its Newton steps follow the central path until the duality-gap bound
    falls below about 1e-13 of the value, or rounding stops the centering.
    After each centering a tangent predictor tries to jump ahead on the path.
    The result holds the best psi over the iterates.  ``evaluations`` counts
    probes plus the factorizations of Newton, backtracking and predicted
    steps; ``collect_trace`` records psi at every iterate.
    """
    # Probe until some block has a pair with Q(lam) positive definite: psi
    # is -inf everywhere only when every probe is.
    u1, u2 = _probe_units(f, g), _probe_units(f, h)
    probes = []
    for pair in _probe_blocks():
        pair = (pair[0] * u1, pair[1] * u2)
        probes.append(pair + _probe(f, g, h, *pair))
        if probes[-1][3].any():
            break
    lam1, lam2, psi, strict = (np.concatenate(col) for col in zip(*probes))
    evals = psi.size
    trace = [] if collect_trace else None

    def result(status, value, l1, l2):
        Z = slack_matrix(f, g, h, value, l1, l2)
        point = DualPoint(lambda1=l1, lambda2=l2, gamma=value,
                          slack_min_eig=float(EigenDecomp.values_of(Z).values[0]))
        return DualSolveResult(status=status, value=value, best=point, evaluations=evals,
                               trace=tuple(trace) if trace is not None else None)

    if not (psi > -np.inf).any():
        return DualSolveResult(status="dual_infeasible_everywhere", evaluations=evals,
                               trace=() if collect_trace else None)
    if not strict.any():
        # Q(lam) is singular wherever psi is finite: the dual has no interior
        # for a barrier to follow, so the best probe stands.
        k = int(np.argmax(psi))
        return result("finite", float(psi[k]), float(lam1[k]), float(lam2[k]))

    # Lift-normalized units: Z / sf = C - gh*E + lh1*G + lh2*H with the
    # homogenizing coordinate last, gamma = sf*gh, lam_i = lh_i * sf / s_i.
    Mf, Mg, Mh = (np.roll(lift(q), -1, axis=(0, 1)) for q in (f, g, h))
    sf, sg, sh = (float(np.abs(M).max()) or 1.0 for M in (Mf, Mg, Mh))
    C, GH = Mf / sf, np.stack([Mg / sg, Mh / sh])
    m = C.shape[0] + 2  # barrier parameter: log det Z plus two logs

    def factor(y):
        """Cholesky factor of Z(y), or None when y is not strictly feasible."""
        nonlocal evals
        evals += 1
        if not (y[1] > 0.0 and y[2] > 0.0):
            return None
        Z = C + y[1] * GH[0] + y[2] * GH[1]
        Z[-1, -1] -= y[0]
        try:
            return np.linalg.cholesky(Z)
        except np.linalg.LinAlgError:
            return None

    k = int(np.argmax(np.where(strict, psi, -np.inf)))
    psi0 = float(psi[k]) / sf
    width = 1.0 + abs(psi0)
    for bump in np.geomspace(1e-3, 1e-31, 15):
        # Zero multipliers move inside; Q stays definite for a small bump.
        y = np.array([psi0 - width,
                      max(lam1[k] * sg / sf, bump), max(lam2[k] * sh / sf, bump)])
        L = factor(y)
        if L is not None:
            break
    else:
        return result("numerical_failure", float(psi[k]), float(lam1[k]), float(lam2[k]))

    best = [y[0] + L[-1, -1] ** 2, y]

    def visit(y, L):
        # psi at an iterate: gamma plus the Schur complement of Q in Z.
        value = y[0] + L[-1, -1] ** 2
        if value > best[0]:
            best[:] = value, y
        if trace is not None:
            trace.append({"lambda1": y[1] * sf / sg, "lambda2": y[2] * sf / sh,
                          "value": sf * value})

    converged = _follow_path(factor, visit, GH, y, L, m / width, tol)
    status = "finite" if converged else "numerical_failure"
    value, y = best
    return result(status, sf * float(value), float(y[1]) * sf / sg, float(y[2]) * sf / sh)


def _follow_path(factor, visit, GH: np.ndarray, y: np.ndarray, L: np.ndarray,
                 t: float, tol: float) -> bool:
    """Follow the central path from the strictly feasible y at barrier weight t.

    ``L`` is the Cholesky factor of Z(y), ``factor(y)`` returns that of
    another point or None when it is not strictly feasible, and
    ``visit(y, L)`` sees every iterate.  Returns whether a centered point met
    the duality-gap bound ``tol``.
    """
    m = GH.shape[1] + 2  # barrier parameter: log det Z plus two logs
    newton = _newton_step(L, y, t, GH)
    converged = smooth = False
    hindsight = None
    while True:
        centered = False
        dec2_prev = np.inf
        for _ in range(_CENTERING_STEPS):
            if newton is None:
                break
            step, dec2, tangent, F = newton
            # Inside the region of quadratic convergence each full step cuts
            # dec2 at least fivefold; when it does not, rounding in the
            # nearly singular Z has taken over and the point is as centered
            # as it can get.
            stalled = dec2_prev < _FULL_STEP_DEC2 and dec2 > 0.25 * dec2_prev
            if dec2 <= 1e-10 or (stalled and dec2 <= 1e-4):
                centered = True
                break
            if stalled:
                break
            dec2_prev = dec2
            s = 1.0 if dec2 < _FULL_STEP_DEC2 else 1.0 / (1.0 + np.sqrt(dec2))
            L_new = factor(y + s * step)
            while L_new is None and s > 1e-12:
                s *= 0.5
                L_new = factor(y + s * step)
            if L_new is None:
                break
            y, L = y + s * step, L_new
            visit(y, L)
            newton = _newton_step(L, y, t, GH)
        if not centered:
            break
        if hindsight is not None:
            # Where the path is straight in s, the prediction the last plain
            # step skipped lands within the region of full Newton steps.
            smooth = float(np.sum((F @ (hindsight - y)) ** 2)) < _FULL_STEP_DEC2
        # Duality-gap bound at the center; lam1 + lam2 enters through the
        # linear term that keeps the center finite on unbounded optimal faces.
        gap = (m + y[1] + y[2]) / t
        converged = gap <= tol * (1.0 + abs(y[0]))
        if gap <= _GAP_RTOL * (1.0 + abs(y[0])):
            break
        # The central path solves grad = t*e0, so dy/dt = H^-1 e0 and, linear
        # in s = 1/t, the center at t' is about y + t*(1 - t/t')*H^-1 e0.
        # Accept the first prediction whose Newton step at t' is full.
        for growth in _PREDICT_GROWTHS if smooth else ():
            y_new = y + (t - t / growth) * tangent
            L_new = factor(y_new)
            predicted = None if L_new is None else _newton_step(L_new, y_new, growth * t, GH)
            if predicted is not None and predicted[1] < _FULL_STEP_DEC2:
                y, L, t, newton = y_new, L_new, growth * t, predicted
                hindsight = None
                visit(y, L)
                break
        else:
            # A plain centering step: the gradient drops by dt*e0, so the
            # step gains dt*H^-1 e0 and dec2 the matching terms.
            dt = (_T_GROWTH - 1.0) * t
            newton = (step + dt * tangent,
                      dec2 + 2.0 * dt * step[0] + dt * dt * tangent[0], tangent, F)
            hindsight = y + (t - t / _T_GROWTH) * tangent
            t *= _T_GROWTH

    return converged


def _newton_step(L: np.ndarray, y: np.ndarray, t: float, GH: np.ndarray):
    """Newton step of -t*gamma + lam1 + lam2 - log det Z - log lam1 - log lam2.

    ``L`` is the Cholesky factor of Z(y) and ``GH`` stacks the lam1 and lam2
    coefficients of Z.  The gradient is -tr(W_i) and the Hessian <W_i, W_j>
    with W_i = L^-1 A_i L^-T; the gamma direction is -E, so its W is -l l'.
    The Hessian is B'B, and a QR factor of B keeps the step accurate when Z
    has eigenvalues near 1/t, where the Hessian's condition number is the
    square of B's.  Returns (step, squared Newton decrement, H^-1 e0, F)
    with H = F'F, or None when B is numerically rank deficient.
    """
    k = L.shape[0]
    kk = k * k
    Linv = np.linalg.inv(L)
    l = Linv[:, -1]
    W = Linv @ GH @ Linv.T
    _, y1, y2 = y.tolist()
    trg, trh = W.trace(axis1=1, axis2=2).tolist()
    grad = np.array([l @ l - t, 1.0 - trg - 1.0 / y1, 1.0 - trh - 1.0 / y2])
    # B' row by row: vec(-l l'), vec(W_g), vec(W_h), then the two log terms.
    Bt = np.zeros((3, kk + 2))
    np.multiply.outer(-l, l, out=Bt[0, :kk].reshape(k, k))
    Bt[1:, :kk] = W.reshape(2, kk)
    Bt[1, kk] = 1.0 / y1
    Bt[2, kk + 1] = 1.0 / y2
    d = np.sqrt(np.einsum("ij,ij->i", Bt, Bt))
    Bt /= d[:, None]
    # The raw Householder output holds R' in its lower triangle.
    (r00, _, _), (r01, r11, _), (r02, r12, r22) = np.linalg.qr(Bt.T, mode="raw")[0][:, :3].tolist()
    if r00 == 0.0 or r11 == 0.0 or r22 == 0.0:
        return None

    def solve(b0, b1, b2):
        # R'R w = b: forward substitution on R', then back on R.
        z0 = b0 / r00
        z1 = (b1 - r01 * z0) / r11
        z2 = (b2 - r02 * z0 - r12 * z1) / r22
        w2 = z2 / r22
        w1 = (z1 - r12 * w2) / r11
        return np.array([(z0 - r01 * w1 - r02 * w2) / r00, w1, w2])

    step = solve(*(-grad / d).tolist()) / d
    tangent = solve(1.0 / d[0], 0.0, 0.0) / d
    F = np.array([[r00, r01, r02], [0.0, r11, r12], [0.0, 0.0, r22]]) * d
    return step, float(-grad @ step), tangent, F
