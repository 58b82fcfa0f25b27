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

Where psi is -inf on both axes, an exact phase I (:func:`_phase_one`)
decides whether some multipliers make Q positive definite: it returns such
a point, the start of the search, or a certificate that psi is -inf
everywhere, a PSD matrix Y with trace 1 on which f's quadratic part is
negative and neither constraint's is positive.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations
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


#: Field metadata: the JSON report leaves the field out at its default.
_OMIT_DEFAULT = {"omit_default": True}


@dataclass(frozen=True)
class DualCertificate:
    """Y = V diag(w) V' (``vectors`` V, ``weights`` w >= 0 summing to 1), so
    Y is PSD with trace 1, on which f's quadratic part is negative and each
    constraint's is not positive: <Y, f.A + lam1*g.A + lam2*h.A> <= <Y, f.A>
    < 0 for every lam1, lam2 >= 0, so no multipliers make the Lagrangian's
    quadratic part PSD and psi is -inf everywhere.  ``value`` is <Y, f.A> and
    ``margin`` the cutoff it fell below, in f's units.  The constraint sums
    are 0 on a pair whose quadratic parts are opposite (an interval band),
    so each is accepted up to ``_PHASE1_RTOL`` * (1 + its largest |z'Bz|)
    in lift-normalized units.
    """

    weights: np.ndarray
    vectors: np.ndarray
    value: float
    margin: float


@dataclass(frozen=True)
class DualSolveResult:
    """Outcome of maximizing the dual over the nonnegative quadrant.

    ``status``: ``finite``, ``dual_infeasible_everywhere`` (psi is -inf on
    both axes, and phase I found no multipliers that make the Lagrangian's
    quadratic part positive definite; ``certificate`` proves it where the
    largest smallest eigenvalue is negative beyond rounding) or
    ``numerical_failure`` (psi rises without bound, so the constraints have
    no common point; ``value`` and ``best`` are then None).  ``value`` is
    psi at the multipliers of ``best``.  ``evaluations`` counts the
    single-constraint dual solves (``qp1qc._maximize_dual`` calls) and
    ``phase_one`` the eigendecompositions of phase I, which runs only where
    psi is -inf on both axes; the JSON report leaves ``phase_one`` and
    ``certificate`` out where phase I did not run or found no certificate.
    ``trace`` holds psi at each search point and at a certified point of
    the Newton step in both multipliers.  ``x`` minimizes the Lagrangian at
    ``best``: the inner single-constraint optimizer, or -Q^-1 v at a regular
    Newton point; None in the two-multiplier hard case.
    """

    status: str
    value: Optional[float] = None
    best: Optional[DualPoint] = None
    evaluations: int = 0
    trace: Optional[Tuple[dict, ...]] = None
    x: Optional[np.ndarray] = None
    phase_one: int = field(default=0, metadata=_OMIT_DEFAULT)
    certificate: Optional[DualCertificate] = field(default=None, metadata=_OMIT_DEFAULT)


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


#: :func:`_polish`: Newton steps, the relative smallest eigenvalue below
#: which Q(lam) counts as singular, and the relative residual or decrement
#: that ends it (a gradient, which a rising psi keeps, within its root).
_POLISH_STEPS = 12
_NEAR_SINGULAR = 1e-8
_POLISH_RTOL = 1e-14
#: Past _FAR * (1 + start), in lift-normalized units, the outer search
#: tests once for a dual that rises without bound.
_FAR = 2.0
#: :func:`_phase_one`: decompositions at most, the bottom eigenvectors each
#: one adds to the model, the model's size, the trust box's first
#: half-width in lift-normalized units, and the relative slack of the
#: certificate's constraint sums (a sum that is 0 in exact arithmetic).
_PHASE1_STEPS = 40
_PHASE1_CUTS = 3
_PHASE1_MODEL = 15
_PHASE1_BOX = 1.0
_PHASE1_RTOL = 1e-12


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
    its points may end it.  Only when psi is -inf on both axes,
    :func:`_phase_one` runs, for a positive definite start or a
    certificate that psi is -inf everywhere, reported with
    ``dual_infeasible_everywhere``.
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

    def result(pt, status="finite", certificate=None):
        value = point = x = None
        if pt is not None:
            x = pt.x
            (l1, l2), value = to_data(pt), sf * pt.value
            Z = slack_matrix(f, g, h, value, l1, l2)
            point = DualPoint(lambda1=l1, lambda2=l2, gamma=value,
                              slack_min_eig=float(EigenDecomp.values_of(Z).values[0]))
        return DualSolveResult(status=status, value=value, best=point, evaluations=evals,
                               trace=tuple(trace) if trace is not None else None, x=x,
                               phase_one=decompositions, certificate=certificate)

    # The axes: in the class the optimum has one multiplier at zero.
    decompositions = 0
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
        # psi is -inf on both axes: phase I finds a positive definite start
        # or a certificate.  Where it finds neither, the maximum of the
        # smallest eigenvalue is 0 to rounding, and phi at its maximizer
        # is the one chance left.
        one = _phase_one(F.A, P.A, Q.A)
        decompositions = one.decompositions
        if one.certificate is not None:
            w, V, margin = one.certificate
            value = float(w @ ((f.A @ V) * V).sum(axis=0))
            return result(None, "dual_infeasible_everywhere", DualCertificate(
                weights=w, vectors=V, value=value, margin=sf * margin))
        mu = (one.best if one.start is None else one.start)[1]
        start = phi(mu) if mu > 0.0 else None
        if start is None and one.start is None:
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


class _PhaseOne(NamedTuple):
    """What :func:`_phase_one` decided: a positive definite ``start``, or a
    ``certificate`` (weights w, vectors Z with Y = Z diag(w) Z', and the
    margin <Y, A> fell below), or neither, with the best point reached;
    ``decompositions`` counts its work."""

    start: Optional[np.ndarray]
    certificate: Optional[Tuple[np.ndarray, np.ndarray, float]]
    best: np.ndarray
    decompositions: int


@lru_cache(maxsize=None)
def _triples(m: int) -> np.ndarray:
    """Every 3-subset of range(m), one per row; read-only and shared (m stays
    below _PHASE1_MODEL + _PHASE1_CUTS + 5, so the cache stays small)."""
    idx = np.array(list(combinations(range(m), 3)), dtype=np.intp).reshape(-1, 3)
    idx.setflags(write=False)
    return idx


def _vertices(S: np.ndarray, rhs: np.ndarray):
    """The solutions of the nonsingular systems among S[k] x = rhs[k]
    (3 x 3), and the mask of those systems."""
    ok = np.abs(np.linalg.det(S)) > _PHASE1_RTOL * np.abs(S).max(axis=(1, 2), initial=0.0) ** 3
    return np.linalg.solve(S[ok], rhs[ok][..., None])[..., 0], ok


def _model_max(a: np.ndarray, G: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """max of min_i a_i + G_i.q over the box lo <= q <= hi, and its
    maximizer: the best vertex of the linear program in (t, q)."""
    K = a.size
    R = np.zeros((K + 4, 3))
    R[:K, 0], R[:K, 1:] = 1.0, -G
    R[K:K + 2, 1:], R[K + 2:, 1:] = -np.eye(2), np.eye(2)
    b = np.concatenate([a, -lo, hi])
    idx = _triples(K + 4)
    x, _ = _vertices(R[idx], b[idx])
    slack = _PHASE1_RTOL * (1.0 + np.abs(b).max() + np.abs(G).max() * np.abs(hi).max())
    x = x[(x @ R.T <= b + slack).all(axis=1)]
    k = int(np.argmax(x[:, 0]))
    return float(x[k, 0]), x[k, 1:]


def _model_certificate(a: np.ndarray, G: np.ndarray):
    """min of a.w over the weights w >= 0, sum w = 1, with G'w <= 0 up to
    ``_PHASE1_RTOL`` (the dual of maximizing min_i a_i + G_i.q over q >= 0),
    and its w; (inf, None) where no w meets G'w <= 0.  It is the best basic
    solution of [1'; G'] w + [0; s] = [1; 0] with slacks s >= 0: three
    basic columns, so at most three nonzero weights."""
    K = a.size
    cols = np.zeros((3, K + 2))
    cols[0, :K], cols[1:, :K], cols[1:, K:] = 1.0, G.T, np.eye(2)
    idx = _triples(K + 2)
    x, ok = _vertices(cols[:, idx].transpose(1, 0, 2), np.tile([1.0, 0.0, 0.0], (len(idx), 1)))
    idx = idx[ok]
    cut = _PHASE1_RTOL * (1.0 + np.abs(G).max())
    feasible = (x >= np.where(idx < K, 0.0, -cut)).all(axis=1)
    if not feasible.any():
        return np.inf, None
    x, idx = x[feasible], idx[feasible]
    value = (np.concatenate([a, [0.0, 0.0]])[idx] * x).sum(axis=1)
    k = int(np.argmin(value))
    w = np.zeros(K + 2)
    w[idx[k]] = x[k]
    return float(value[k]), w[:K]


def _phase_one(A: np.ndarray, B: np.ndarray, C: np.ndarray) -> _PhaseOne:
    """Decide whether m(lam, mu) = lambda_min(A + lam*B + mu*C) is positive
    somewhere on lam, mu >= 0: the phase I of Boyd and Vandenberghe,
    *Convex Optimization*, section 11.4.

    m is concave, and each unit eigenvector z of any A + lam*B + mu*C
    bounds it from above by the plane z'Az + lam*z'Bz + mu*z'Cz, exact at
    that point.  The bottom ``_PHASE1_CUTS`` eigenvectors of each point
    join a model, the minimum of those planes, and the next point maximizes
    the model in a box around the best point so far (a cutting-plane method
    with a trust region; the box doubles after each gain).  Each point is
    one decomposition.  The search stops at the first positive definite
    point (above ``PSD_RTOL``'s cutoff), the ``start``.  It stops with a
    ``certificate`` once the model's maximum over the whole quadrant lies
    below minus that cutoff at A: by linear programming duality, weights w
    on the model's vectors z_i then give Y = sum w_i z_i z_i' with Y PSD,
    tr Y = 1, <Y, A> < 0 and <Y, B>, <Y, C> <= 0, so <Y, A + lam*B + mu*C>
    < 0 at every lam, mu >= 0 and no such matrix is PSD (Pólik and
    Terlaky, SIAM Review 49, 2007).  At a multiple bottom eigenvalue the
    planes of the cluster's vectors meet there, and the model reads the
    nonsmooth maximum off them.  Where the model shows no gain within the
    cutoffs (the maximum of m is 0 to rounding), or after
    ``_PHASE1_STEPS`` points, neither comes back.
    """
    n = A.shape[0]
    k = min(n, _PHASE1_CUTS)
    a, G, Z = np.empty(0), np.empty((0, 2)), np.empty((n, 0))
    q, best, top, box, margin = np.zeros(2), np.zeros(2), -np.inf, _PHASE1_BOX, None
    for step in range(1, _PHASE1_STEPS + 1):
        ed = EigenDecomp.of(A + q[0] * B + q[1] * C)
        if ed.values[0] > ed.cut(PSD_RTOL):
            return _PhaseOne(q, None, q, step)
        margin = ed.cut(PSD_RTOL) if margin is None else margin
        V = ed.vectors[:, :k]
        Z = np.column_stack([Z, V])
        a = np.concatenate([a, ((A @ V) * V).sum(axis=0)])
        G = np.vstack([G, np.column_stack([((B @ V) * V).sum(axis=0), ((C @ V) * V).sum(axis=0)])])
        value, w = _model_certificate(a, G)
        if value < -margin:
            keep = w > 0.0
            return _PhaseOne(None, (w[keep] / w[keep].sum(), Z[:, keep], margin), best, step)
        if ed.values[0] > top:
            best, top = q, float(ed.values[0])
            box = 2.0 * box if step > 1 else box
        t, q = _model_max(a, G, np.maximum(best - box, 0.0), best + box)
        if t <= top + margin:
            break
        if a.size > _PHASE1_MODEL:
            # Keep the planes lowest at the model's maximizer.
            keep = np.sort(np.argsort(a + G @ q, kind="stable")[:_PHASE1_MODEL])
            a, G, Z = a[keep], G[keep], Z[:, keep]
    return _PhaseOne(None, None, best, step)
