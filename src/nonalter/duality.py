"""The two-multiplier Lagrangian/semidefinite dual and its maximization.

For multipliers lam1, lam2 >= 0 the dual function is

    psi(lam1, lam2) = inf_x [f + lam1*g + lam2*h](x),

computed in closed form: with Q = A + lam1*B + lam2*C, v = a + lam1*b +
lam2*c and s = a0 + lam1*b0 + lam2*c0, the infimum is s - v'Q^+v when Q is
positive semidefinite and v lies in its range, and -inf otherwise.

The equivalent semidefinite reading: psi(lam) = sup{gamma : Z(gamma, lam)
PSD} with Z = M(f) - gamma*E00 + lam1*M(g) + lam2*M(h), where E00 carries a
single 1 in the homogenizing corner.

psi is maximized by the single-constraint machinery of :mod:`.qp1qc`
(Moré and Sorensen, 1983), nested: one multiplier in an outer search, the
other in exact single-constraint dual solves, hard case included (see
:func:`solve_dual_2d`).  It hands back the Lagrangian minimizer at its
optimum: in the class, the optimal point on the blocking constraint.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional, Tuple

import numpy as np

from .quad_core import (
    DEFAULT_TOL,
    INF_PSD_RTOL,
    PSD_RTOL,
    EigenDecomp,
    QuadForm,
    evaluate,
    lift,
    quad_inf,
    sym_eigen,
)
from .qp1qc import _candidates, _concave_search, _maximize_dual


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

    ``status``: ``finite``, ``dual_infeasible_everywhere`` (psi is -inf on
    both axes and at every probed multiplier pair) or ``numerical_failure``
    (psi rises without bound, so the constraints have no common point;
    ``value`` and ``best`` are then None).  ``value`` is psi at the
    multipliers of ``best``.  ``evaluations`` counts the single-constraint
    dual solves (``qp1qc._maximize_dual`` calls), plus the probes when the
    grid runs.  ``trace`` holds psi at each search point and at a certified
    point of the Newton step in both multipliers.  ``x`` minimizes the
    Lagrangian at ``best``: the inner single-constraint optimizer, or -Q^-1 v
    at a regular Newton point; None in the two-multiplier hard case.
    """

    status: str
    value: Optional[float] = None
    best: Optional[DualPoint] = None
    evaluations: int = 0
    trace: Optional[Tuple[dict, ...]] = None
    x: Optional[np.ndarray] = None


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
#: :func:`_polish`: Newton steps, the relative smallest eigenvalue below
#: which Q(lam) counts as singular, and the relative residual or decrement
#: that ends it (a gradient, which a rising psi keeps, within its root).
_POLISH_STEPS = 12
_NEAR_SINGULAR = 1e-8
_POLISH_RTOL = 1e-14
#: Past _FAR * (1 + start), in lift-normalized units, the outer search
#: tests once for a dual that rises without bound.
_FAR = 2.0


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
    """psi at a stack of multiplier pairs."""
    Q = f.A + lam1[:, None, None] * g.A + lam2[:, None, None] * h.A
    v = f.a + lam1[:, None] * g.a + lam2[:, None] * h.a
    return quad_inf(Q, v, f.a0 + lam1 * g.a0 + lam2 * h.a0).value


class _Phi(NamedTuple):
    """phi(mu) = max over lam >= 0 of psi, its maximizer lam, slope and
    curvature, and the minimizer x of the Lagrangian there (None if unknown)."""

    mu: float
    lam: float
    value: float
    slope: float
    curvature: float
    x: Optional[np.ndarray] = None


def solve_dual_2d(
    f: QuadForm,
    g: QuadForm,
    h: QuadForm,
    tol: float = DEFAULT_TOL,
    *,
    collect_trace: bool = False,
) -> DualSolveResult:
    """Maximize psi over lam1, lam2 >= 0, as a concave search over one multiplier.

    In lift-normalized units (each of f, g, h divided by the largest entry
    of its lift) the constraint with the larger quadratic part is the inner
    one, p, and the other the outer one, q.  phi(mu) = max over lam >= 0 of
    psi(lam*p, mu*q) is one ``qp1qc._maximize_dual(f + mu*q, p)``; it is
    concave, its slope is q at the inner optimizer and its curvature
    psi_22 - psi_12^2/psi_11.  Both axes come first: each is optimal when
    the other constraint is nonpositive at its optimizer.  Otherwise
    ``qp1qc._concave_search`` runs on phi, and :func:`_polish` from each of
    its points may end it.  The probe grid runs only when psi is -inf on
    both axes, for a start or to report ``dual_infeasible_everywhere``.
    """
    sf, sg, sh = (float(np.abs(lift(q)).max()) or 1.0 for q in (f, g, h))
    F, G, H = (QuadForm(q.A / s, q.a / s, q.a0 / s) for q, s in ((f, sf), (g, sg), (h, sh)))
    # Roles by the normalized quadratic part, then by the data: the same
    # whichever constraint is g.
    key = [(float(np.abs(q.A).max()), q.A.tobytes(), q.a.tobytes(), q.a0) for q in (G, H)]
    swap = key[1] > key[0]
    P, Q = (H, G) if swap else (G, H)
    evals, trace = 0, [] if collect_trace else None

    def maximize(fq, p):
        nonlocal evals
        evals += 1
        return _maximize_dual(fq, p)

    def record(pt):
        if trace is not None and pt is not None:
            l1, l2 = to_data(pt)
            trace.append({"lambda1": l1, "lambda2": l2, "value": sf * pt.value})
        return pt

    def to_data(pt):
        l1, l2 = (pt.mu, pt.lam) if swap else (pt.lam, pt.mu)
        return l1 * sf / sg, l2 * sf / sh

    def phi(mu):
        # None where phi = -inf; value inf where the inner dual rises without bound.
        lam, d = maximize(QuadForm(F.A + mu * Q.A, F.a + mu * Q.a, F.a0 + mu * Q.a0), P)
        if d is None or lam == np.inf:
            return None if d is None else _Phi(mu, lam, np.inf, np.inf, np.nan)
        x = _candidates(P, lam, d, tol)[-1]
        V, inv = d.eig.vectors, d.eig.inverse(INF_PSD_RTOL)
        cp, cq = V.T @ (P.A @ d.x + P.a), V.T @ (Q.A @ d.x + Q.a)
        curvature = float(-2.0 * cq @ (inv * cq))
        if lam > 0.0 and d.curvature < 0.0:
            # lam follows mu: the Schur complement of psi_11 in the Hessian.
            curvature -= 4.0 * float(cp @ (inv * cq)) ** 2 / d.curvature
        return record(_Phi(mu, lam, d.value, evaluate(Q, x), curvature, x))

    def result(pt, status="finite"):
        value = point = x = None
        if pt is not None:
            x = pt.x
            (l1, l2), value = to_data(pt), sf * pt.value
            Z = slack_matrix(f, g, h, value, l1, l2)
            point = DualPoint(lambda1=l1, lambda2=l2, gamma=value,
                              slack_min_eig=float(EigenDecomp.values_of(Z).values[0]))
        return DualSolveResult(status=status, value=value, best=point, evaluations=evals,
                               trace=tuple(trace) if trace is not None else None, x=x)

    # The axes: in the class the optimum has one multiplier at zero.
    start = phi(0.0)
    if start is not None and start.slope <= 0.0:
        return result(start)
    mu, d = maximize(F, Q)
    if d is not None and mu < np.inf:
        x = _candidates(Q, mu, d, tol)[-1]
        if evaluate(P, x) <= 0.0:
            return result(record(_Phi(mu, 0.0, d.value, 0.0, 0.0, x)))
        if start is None:
            start = phi(mu)
    elif start is None and d is None:
        # psi is -inf on both axes: probe until some block has a finite pair.
        u1, u2 = _probe_units(f, g), _probe_units(f, h)
        for pair in _probe_blocks():
            l1, l2 = pair[0] * u1, pair[1] * u2
            psi = _probe(f, g, h, l1, l2)
            evals += psi.size
            if (psi > -np.inf).any():
                k = int(np.argmax(psi))
                start = phi((l1[k] * sg if swap else l2[k] * sh) / sf)
                break
        else:
            return result(None, "dual_infeasible_everywhere")
    if mu == np.inf or start is None or start.value == np.inf:
        return result(None, "numerical_failure")

    def at(mu):
        # phi, or the certified optimum the polish reaches from there; None
        # once psi rises without bound; toward the start beyond phi's domain.
        nonlocal best, far
        if mu > far:
            # Far out, test once for a rise without bound: some rho >= 0
            # with inf (rho*p + q) > 0 lifts psi linearly along (rho, 1).
            far = np.inf
            rho, r = maximize(Q, P)
            if rho == np.inf or (r is not None and r.value > _POLISH_RTOL):
                return None
        pt = phi(mu)
        if pt is None:
            return _Phi(mu, 0.0, -np.inf, np.inf if mu < start.mu else -np.inf, np.nan)
        if pt.value == np.inf:
            return None
        pt = record(_polish(F, P, Q, pt.lam, mu)) or pt
        best = max(best, pt, key=lambda p: p.value)
        return bounded(pt)

    def bounded(pt):
        # Step rules of this search alone, passed to the shared loop through
        # phi's curvature.  Until a slope turns negative, a step at most
        # doubles mu (plus one): phi is often nearly flat up to a kink.  A
        # Newton step longer than half the last step creeps toward a pole of
        # phi' at the end of its domain, so the loop bisects instead.
        nonlocal rising, last
        rising = rising and pt.slope > 0.0
        step = -pt.slope / pt.curvature if pt.curvature < 0.0 else np.inf
        last = pt.mu, abs(pt.mu - last[0]) if last else np.inf
        if abs(step) > 0.5 * last[1]:
            return pt._replace(curvature=np.nan)
        if rising and step > 1.0 + pt.mu:
            return pt._replace(curvature=-pt.slope / (1.0 + pt.mu))
        return pt

    rising, last = True, None
    best = start = record(_polish(F, P, Q, start.lam, start.mu)) or start
    far = _FAR * (1.0 + start.mu)
    mu, pt = _concave_search(at, start.mu, bounded(start), 0.0, np.inf, 1.0)
    return result(None, "numerical_failure") if pt is None or mu == np.inf else result(best)


def _polish(F: QuadForm, P: QuadForm, Q: QuadForm, lam: float, mu: float):
    """Newton's method in both multipliers from (lam, mu): its point with an
    optimality certificate, else None.

    Where Q(lam, mu) is positive definite it solves grad psi = (p, q)(x) = 0
    (x = -Q^-1 v, Hessian -2 w_i'Q^-1 w_j with w = Ax + a of each
    constraint), certified by a Newton decrement below rounding.  Otherwise
    it solves (lambda_min, z'v) = 0 (the two-multiplier hard case; the
    derivatives are z'Az and z'(Ax + a) at x = -Q^+v), certified when 0 lies
    in the convex hull of (p, q)(x + t z) over t: a convex combination of
    minimizers of the Lagrangian then meets both constraints with equality.
    """
    singular, last = False, None
    for _ in range(_POLISH_STEPS):
        M = F.A + lam * P.A + mu * Q.A
        v = F.a + lam * P.a + mu * Q.a
        qi = quad_inf(M, v, F.a0 + lam * P.a0 + mu * Q.a0)
        ed, V = qi.eig, qi.eig.vectors
        if not singular and ed.values[0] <= _NEAR_SINGULAR * ed.cut(1.0):
            # Q is not positive definite: a step aimed past a boundary
            # optimum.  The hard-case system takes over from the last point.
            singular = True
            if last is not None:
                lam, mu = last
                continue
        w = ed.inverse(INF_PSD_RTOL)
        if singular:
            w[0] = 0.0
        x = -V @ (w * (V.T @ v))
        wp, wq = P.A @ x + P.a, Q.A @ x + Q.a
        if singular:
            z = V[:, 0]
            r = np.array([ed.values[0], z @ v])
            J = np.array([[z @ P.A @ z, z @ Q.A @ z], [z @ wp, z @ wq]])
            if np.abs(r).max() <= _POLISH_RTOL * (1.0 + np.abs(ed.values).max() + np.abs(v).max()):
                # p and q along x + t z are c0 + c1 t + c2 t^2, and 0 is in the
                # hull of that curve when 0 = c0 + c1 t + c2 s with s >= t^2.
                B = np.column_stack([2.0 * J[1], J[0]])
                if abs(np.linalg.det(B)) <= _POLISH_RTOL * (1.0 + np.abs(B).max()) ** 2:
                    return None
                t, s = np.linalg.solve(B, [-evaluate(P, x), -evaluate(Q, x)])
                ok = s >= t * t and qi.value > -np.inf and min(lam, mu) >= 0.0
                return _Phi(mu, lam, float(qi.value), 0.0, -1.0) if ok else None
        else:
            r = np.array([evaluate(P, x), evaluate(Q, x)])
            C = V.T @ np.column_stack([wp, wq])
            J = -2.0 * C.T @ (w[:, None] * C)
        try:
            step = np.linalg.solve(J, -r)
        except np.linalg.LinAlgError:
            return None
        if (not singular and min(lam, mu) >= 0.0
                and np.abs(r).max() <= np.sqrt(_POLISH_RTOL) * (1.0 + float(x @ x))
                and float(r @ step) <= _POLISH_RTOL * (1.0 + abs(qi.value))):
            return _Phi(mu, lam, float(qi.value), 0.0, -1.0, x)
        last, lam, mu = (lam, mu), lam + float(step[0]), mu + float(step[1])
        if not max(abs(lam), abs(mu)) <= 1e8:
            return None
    return None

