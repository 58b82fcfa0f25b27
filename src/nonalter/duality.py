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
no separate branch.  A grid of multiplier probes supplies the start and
decides when psi is -inf everywhere.
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


#: Multiplier probes: a 64 x 64 grid of u = lam / (1 + lam) on [0, 1 - 1/1024],
#: then rays along both axes and the diagonal.
_PROBE_U = np.linspace(0.0, 1.0 - 1.0 / 1024.0, 64)
_PROBE_LAMBDAS = _PROBE_U / (1.0 - _PROBE_U)
_AXIS_LAMBDAS = np.geomspace(1e-3, 1e8, 34)
#: Barrier weight growth per outer step, relative target of the duality-gap
#: bound, and the Newton steps one centering may take.
_T_GROWTH = 10.0
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
    The result holds the best psi over the iterates.  ``evaluations``
    counts probes plus the factorizations of Newton and backtracking steps;
    ``collect_trace`` records psi at every Newton iterate.
    """
    # Probe until some block has a pair with Q(lam) positive definite: psi
    # is -inf everywhere only when every probe is.
    probes = []
    for pair in _probe_blocks():
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
    C, G, H = Mf / sf, Mg / sg, Mh / sh
    m = C.shape[0] + 2  # barrier parameter: log det Z plus two logs

    def factor(y):
        """Cholesky factor of Z(y), or None when y is not strictly feasible."""
        nonlocal evals
        evals += 1
        if not (y[1] > 0.0 and y[2] > 0.0):
            return None
        Z = C + y[1] * G + y[2] * H
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

    t = m / width
    best_value, best_y = y[0] + L[-1, -1] ** 2, y
    converged = False
    while True:
        centered = False
        dec2_prev = np.inf
        for _ in range(_CENTERING_STEPS):
            newton = _newton_step(L, y, t, G, H)
            if newton is None:
                break
            step, dec2 = newton
            # Inside the region of quadratic convergence each full step cuts
            # dec2 at least fivefold; when it does not, rounding in the
            # nearly singular Z has taken over and the point is as centered
            # as it can get.
            stalled = dec2_prev < 0.0625 and dec2 > 0.25 * dec2_prev
            if dec2 <= 1e-10 or (stalled and dec2 <= 1e-4):
                centered = True
                break
            if stalled:
                break
            dec2_prev = dec2
            s = 1.0 if dec2 < 0.0625 else 1.0 / (1.0 + np.sqrt(dec2))
            L_new = factor(y + s * step)
            while L_new is None and s > 1e-12:
                s *= 0.5
                L_new = factor(y + s * step)
            if L_new is None:
                break
            y, L = y + s * step, L_new
            # psi at the iterate: gamma plus the Schur complement of Q in Z.
            value = y[0] + L[-1, -1] ** 2
            if value > best_value:
                best_value, best_y = value, y
            if trace is not None:
                trace.append({"lambda1": y[1] * sf / sg, "lambda2": y[2] * sf / sh,
                              "value": sf * value})
        if not centered:
            break
        # Duality-gap bound at the center; lam1 + lam2 enters through the
        # linear term that keeps the center finite on unbounded optimal faces.
        gap = (m + y[1] + y[2]) / t
        converged = gap <= tol * (1.0 + abs(y[0]))
        if gap <= _GAP_RTOL * (1.0 + abs(y[0])):
            break
        t *= _T_GROWTH

    status = "finite" if converged else "numerical_failure"
    return result(status, sf * float(best_value),
                  float(best_y[1]) * sf / sg, float(best_y[2]) * sf / sh)


def _newton_step(L: np.ndarray, y: np.ndarray, t: float, G: np.ndarray, H: np.ndarray):
    """Newton step of -t*gamma + lam1 + lam2 - log det Z - log lam1 - log lam2.

    ``L`` is the Cholesky factor of Z(y).  The gradient is -tr(W_i) and the
    Hessian <W_i, W_j> with W_i = L^-1 A_i L^-T; the gamma direction is -E,
    so its W is -l l'.  The Hessian is B'B, and a QR factor of B keeps the
    step accurate when Z has eigenvalues near 1/t, where the Hessian's
    condition number is the square of B's.  Returns (step, squared Newton
    decrement), or None when B is numerically rank deficient.
    """
    Linv = np.linalg.inv(L)
    l = Linv[:, -1]
    Wg = Linv @ G @ Linv.T
    Wh = Linv @ H @ Linv.T
    grad = np.array([l @ l - t, 1.0 - np.trace(Wg) - 1.0 / y[1], 1.0 - np.trace(Wh) - 1.0 / y[2]])
    B = np.vstack([np.column_stack([-np.outer(l, l).ravel(), Wg.ravel(), Wh.ravel()]),
                   [[0.0, 1.0 / y[1], 0.0], [0.0, 0.0, 1.0 / y[2]]]])
    d = np.linalg.norm(B, axis=0)
    R = np.linalg.qr(B / d, mode="r")
    try:
        step = np.linalg.solve(R, np.linalg.solve(R.T, -grad / d)) / d
    except np.linalg.LinAlgError:
        return None
    return step, float(-grad @ step)
