"""Global minimization of a quadratic under a single quadratic constraint.

``min f(x) s.t. g(x) <= 0`` is solved through its one-dimensional concave
dual ``lam -> inf_x [f + lam*g](x)``, maximized over lam >= 0 on the exact
interval where f.A + lam*g.A is PSD by Newton's method on the dual's
derivative, followed by primal recovery ``x(lam*) = -Q(lam*)^+ v(lam*)``.
The Newton iterates are predicted in O(n) each, in a congruence that
diagonalizes the whole pencil, and the exact closed form corrects where
they end.  When g.A is definite the congruence is T = L^-T U from the
pencil's root solve (LL' = g.A, U the eigenvectors of L^-1 f.A L^-T), so
the solve's one decomposition drives every Newton step; otherwise it is
built from the first exact point inside the interval.
When the stationary system at the optimal multiplier is singular and
complementarity fails, a kernel direction is added and scaled to reach the
constraint boundary (the hard case).  Degenerate constraints (constants,
everywhere-nonnegative g) are dispatched structurally before the dual is
touched; a definite g whose minimizer, read from its Cholesky factor, is
clearly strictly feasible goes to the dual without a decomposition of g.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple, Optional, Tuple

import numpy as np

from .quad_core import (
    DEFAULT_TOL,
    INF_PSD_RTOL,
    RANK_RTOL,
    EigenDecomp,
    QuadForm,
    _definite_congruence,
    _min_clearly_below,
    _pencil_interval,
    eig_of,
    evaluate,
    find_negative_point,
    in_workspace,
    line_roots,
    pseudo_inverse,
    quad_inf,
    restrict_affine,
    unconstrained_min,
)


#: Newton or bisection steps on a concave function's slope, the relative
#: step that ends them, and the point, in units of the search, past which a
#: slope that stays positive counts as a rise without bound.
_NEWTON_STEPS = 60
_STEP_RTOL = 1e-14
_SEARCH_CAP = 1e15
#: The relative Newton step below which an exact point at the predicted
#: maximizer ends the single-constraint search.  The exact slope carries
#: rounding of about 1e-13 of lam at n = 50, so exact steps below that would
#: chase the rounding of the slope, not the root.
_CORRECT_RTOL = 1e-12


@dataclass(frozen=True)
class KktResiduals:
    stationarity: float
    complementarity: float
    feasibility: float


@dataclass(frozen=True)
class Qp1qcResult:
    """Outcome of a single-constraint solve.

    ``status`` is one of ``attained``, ``unattained``, ``unbounded_below``,
    ``infeasible``, ``numerical_failure``.  ``value`` is the optimal value
    whenever it is finite (also for ``unattained``).
    """

    status: str
    value: Optional[float] = None
    x: Optional[np.ndarray] = None
    lam: Optional[float] = None
    kkt: Optional[KktResiduals] = None
    note: str = ""


#: Kernel cutoff at a computed multiplier, looser than the rank threshold
#: because lam* is a computed root of det Q(lam) and carries its rounding.
_NEAR_KERNEL_RTOL = 1e-8


class _DualPoint(NamedTuple):
    """psi(lam), the stationary point x(lam) = -Q^+v, psi', psi'' = -2 w'Q^+w
    with w = Bx + b, and the decomposition of Q(lam)."""

    value: float
    x: np.ndarray
    slope: float
    curvature: float
    eig: EigenDecomp


def _dual_at(f: QuadForm, g: QuadForm, lam: float,
             eig: Optional[EigenDecomp] = None) -> Optional[_DualPoint]:
    """The dual and its derivatives at lam from one closed form; None where
    psi(lam) = -inf.  At lam = 0 it reads f's own decomposition, elsewhere
    ``eig`` when the caller holds that of f.A + lam*g.A with vectors."""
    Q = eig_of(f) if lam == 0.0 else f.A + lam * g.A if eig is None or eig.vectors is None else eig
    qi = quad_inf(Q, f.a + lam * g.a, f.a0 + lam * g.a0)
    if qi.value == -np.inf:
        return None
    V = qi.eig.vectors
    w = g.A @ qi.x + g.a
    wc = V.T @ w
    # psi' = g(x(lam)) where Q(lam) is regular.  At a singular end of the
    # domain it is the one-sided g(lim x(mu)) as mu comes in from the inside;
    # the limit adds to x the kernel part Zc with Z'BZ c = -Z'w, where Z'BZ
    # vanishes on a common kernel of f.A and g.A (zero in units of 1 + |B|).
    # A 1 x 1 block is inverted in closed form, bit for bit pseudo_inverse's.
    x_in = qi.x
    if qi.zero.any():
        Z = V[:, qi.zero]
        unit = 1.0 + float(np.abs(g.A).max())
        S = Z.T @ g.A @ Z / unit
        if S.shape == (1, 1):
            s = S[0, 0]
            S = np.array([[1.0 / s if abs(s) > RANK_RTOL * (1.0 + abs(s)) else 0.0]])
        else:
            S = pseudo_inverse(S)
        x_in = x_in - Z @ (S @ (Z.T @ w)) / unit
    return _DualPoint(
        value=float(qi.value),
        x=qi.x,
        slope=evaluate(g, x_in),
        curvature=float(-2.0 * wc @ (qi.eig.inverse(INF_PSD_RTOL) * wc)),
        eig=qi.eig,
    )


def _kkt(f: QuadForm, g: QuadForm, lam: float, x: np.ndarray) -> KktResiduals:
    Q = f.A + lam * g.A
    v = f.a + lam * g.a
    feas = evaluate(g, x)
    return KktResiduals(
        stationarity=float(np.linalg.norm(Q @ x + v)),
        complementarity=abs(lam * feas),
        feasibility=feas,
    )


def _maximize_dual(f: QuadForm, g: QuadForm) -> Tuple[Optional[float], Optional[_DualPoint]]:
    """The maximizer of psi over lam >= 0, and the dual there.

    (None, None) when psi = -inf for every lam >= 0.  The domain is
    {lam >= 0 : f.A + lam*g.A PSD} with the margin of the closed form, less
    the points where v(lam) leaves the range of Q(lam).  psi' = g(x(lam)) is
    nonincreasing, so the maximizer is the lower end when psi' <= 0 there,
    the upper end when psi' > 0 there (the hard case), and otherwise the root
    of psi', found by Newton's method safeguarded by bisection: on the
    :func:`_predictor`, then on exact points.  The predictor's congruence
    comes from the pair's root solve when g.A is definite
    (:func:`_definite_congruence`), with no exact point inside; otherwise
    from the first exact point inside.  The returned dual is always an
    exact point.
    """
    # lower, upper: the decompositions at iv's ends, where the interval made
    # them; at a = 0 the dual reads f's own.
    iv, lower, upper = _pencil_interval(f, g, INF_PSD_RTOL)
    if iv is None or iv[1] < 0.0:
        return None, None
    a, b = max(iv[0], 0.0), iv[1]
    d = _dual_at(f, g, a, lower)
    if d is not None and d.slope <= 0.0:
        return a, d
    if b < np.inf:
        d_hi = _dual_at(f, g, b, upper)
        if d_hi is not None and d_hi.slope > 0.0:
            return b, d_hi
    unit = f.data_scale() / g.data_scale()
    eig = None  # the decomposition of the last exact point inside

    def exact(t: float) -> Optional[_DualPoint]:
        nonlocal eig
        eig = EigenDecomp.of(f.A + t * g.A)
        return _dual_at(f, g, t, eig)

    root = _definite_congruence(f, g)
    lam = a
    if d is None:
        lam = 0.5 * (a + b) if b < np.inf else a + max(a, unit)
        if root is None:
            d = exact(lam)
    if root is not None:
        congruence = root[0], 0.0, root[1], 1.0
    else:
        congruence = None if d is None else _exact_congruence(g, lam, d)
    if congruence is not None:
        # Newton's iterates come from the predictor, and the exact closed
        # form corrects where they end: it is the maximizer when the exact
        # Newton step from there is below _CORRECT_RTOL, else the search
        # goes on from there on exact points.  A predicted rise without
        # bound is checked halfway to the cap.
        predict = _predictor(f, g, *congruence)
        guess, p = _concave_search(predict, lam, predict(lam) if d is None else d, a, b, unit)
        far = guess == np.inf
        guess = 0.5 * _SEARCH_CAP * unit if far else guess
        d_guess = None if p is None or (guess == lam and d is not None) else exact(guess)
        if d_guess is not None:
            lam, d = guess, d_guess
            if not far and abs(d.slope) <= _CORRECT_RTOL * lam * -d.curvature:
                return lam, d
        if d is None:
            d = exact(lam)
    lam, d = _concave_search(exact, lam, d, a, b, unit)
    if d is None:
        # Inside the PSD interval Q(lam) is singular only on the common
        # kernel K of f.A and g.A, so psi is finite at most where
        # K'(a + lam*b) = 0.  The last exact point decomposed Q(lam).
        K = eig.kernel(_NEAR_KERNEL_RTOL)
        kb = K.T @ g.a
        if not kb.any():
            return None, None
        lam = -float((K.T @ f.a) @ kb) / float(kb @ kb)
        return (lam, _dual_at(f, g, lam)) if lam >= 0.0 else (None, None)
    return lam, d


class _Slope(NamedTuple):
    """psi' and psi'' at one point, for :func:`_concave_search`."""

    slope: float
    curvature: float


def _exact_congruence(g: QuadForm, lam0: float, d0: _DualPoint):
    """The congruence of :func:`_predictor` from the exact point d0 at lam0;
    None unless Q(lam0) = V Lam V' is positive definite.

    With Lam^-1/2 V'BV Lam^-1/2 = U Theta U' (B = g.A) and T = V Lam^-1/2 U,
    T'Q(lam)T = diag(1 + (lam - lam0) theta)."""
    ed = d0.eig
    if ed.values[0] <= ed.cut(INF_PSD_RTOL):
        return None
    W = ed.vectors / np.sqrt(ed.values)
    pencil = EigenDecomp.of(W.T @ g.A @ W)
    return W @ pencil.vectors, lam0, 1.0, pencil.values


def _predictor(f: QuadForm, g: QuadForm, T: np.ndarray, lam0: float, e0, theta):
    """psi' and psi'' in O(n) per point from a congruence T that diagonalizes
    the pencil, T'Q(lam)T = diag(e) with e = e0 + (lam - lam0) theta for
    every lam (Moré and Sorensen, SIAM J. Sci. Stat. Comput. 4, 1983), so
    that T'BT = diag(theta) for B = g.A.  It comes from the pair's root
    solve, T = L^-T U with e = sigma + lam (:func:`_definite_congruence`),
    or from an exact point (:func:`_exact_congruence`).

    Write g = x'Bx + 2b'x + b0, v(lam) = f.a + lam*b and s(lam) = f.a0 +
    lam*b0.  For c = T'v(lam) and y = c/e the stationary point is x = -Ty,
    so psi' = g(x) = y'Theta y - 2(T'b)'y + b0 and psi'' = -2 sum (T'b -
    Theta y)^2/e; None where some e is not positive.  The search reads no
    value of psi (s - c'y), so none is computed.
    """
    ca, cb = T.T @ f.a, T.T @ g.a

    def at(lam: float) -> Optional[_Slope]:
        e = e0 + (lam - lam0) * theta
        if not (e > 0.0).all():
            return None
        y = (ca + lam * cb) / e
        w = cb - theta * y
        return _Slope(float(y @ (theta * y) - 2.0 * (cb @ y) + g.a0), float(-2.0 * (w @ (w / e))))

    return at


def _concave_search(at, lam: float, d, a: float, b: float, unit: float):
    """Maximize a concave function over [a, b] from lam, d = at(lam) (with
    ``slope`` and ``curvature``, or None), by Newton's method on the slope in
    the bracket its signs keep; a step that leaves it bisects, or doubles
    lam plus ``unit`` while b is infinite.  Returns (lam, d) at a zero
    slope, a step below ``_STEP_RTOL`` or a None, and (inf, d) once doubling
    passes ``_SEARCH_CAP * unit``: the function rises without bound."""
    for _ in range(_NEWTON_STEPS):
        if d is None:
            break
        if d.slope > 0.0:
            a = lam
        elif d.slope < 0.0:
            b = lam
        else:
            break
        nxt = lam - d.slope / d.curvature if d.curvature < 0.0 else np.nan
        if abs(nxt - lam) <= _STEP_RTOL * nxt:
            break
        # A step onto an end of the bracket returns to a point already
        # evaluated: Newton would cycle there, so bisect instead.
        if not (a < nxt < min(b, _SEARCH_CAP * unit) and np.isfinite(nxt)):
            nxt = 0.5 * (a + b) if b < np.inf else 2.0 * lam + unit
            if nxt > _SEARCH_CAP * unit:
                return np.inf, d
        if min(abs(nxt - lam), b - a) <= _STEP_RTOL * nxt:
            break
        lam, d = nxt, at(nxt)
    return lam, d


def _hard_case_step(g, d: _DualPoint, tol):
    """Move from x(lam*) to {g = 0} within x(lam*) + span(near kernel of Q(lam*)):
    along a kernel eigenvector, else toward a point of that set where g changes sign."""
    Z = d.eig.kernel(_NEAR_KERNEL_RTOL)
    x = _first_root(g, d.x, Z.T, tol)
    if x is None and Z.shape[1] > 1:
        gbar = restrict_affine(g, d.x, Z)
        y = find_negative_point(gbar if evaluate(g, d.x) > 0.0 else -gbar)
        if y is not None:
            x = _first_root(g, d.x, (Z @ y)[None], tol)
    return x


def _first_root(g, x0, D, tol):
    """The first line x0 + t*d (rows d of D) that meets {g = 0}, at its root."""
    for z, roots in zip(D, line_roots(g, np.broadcast_to(x0, D.shape), D, RANK_RTOL)):
        roots = roots[~np.isnan(roots)]
        if not roots.size:
            continue
        # Deterministic: smaller magnitude first, positive wins a tie.
        t = min(roots, key=lambda t: (abs(t), -np.sign(t)))
        x = x0 + t * z
        if abs(evaluate(g, x)) <= tol * (1.0 + g.data_scale()):
            return x
    return None


def _candidates(g, lam, d: _DualPoint, tol):
    """x(lam), then the hard-case point where x(lam) breaks feasibility or
    complementarity: the primal candidates at the dual optimum, best last."""
    feas = evaluate(g, d.x)
    comp_tol = tol * (1.0 + abs(d.value)) * max(1.0, lam)
    if feas > tol * (1.0 + g.data_scale()) or (lam > tol and abs(lam * feas) > comp_tol):
        hard = _hard_case_step(g, d, tol)
        if hard is not None:
            return [d.x, hard]
    return [d.x]


@in_workspace
def solve_qp1qc(f: QuadForm, g: QuadForm, tol: float = DEFAULT_TOL) -> Qp1qcResult:
    """Globally minimize f subject to g <= 0."""
    if f.n != g.n:
        raise ValueError("objective and constraint dimensions differ")
    gscale = 1.0 + g.data_scale()

    if g.is_constant():
        if g.a0 > tol * gscale:
            return Qp1qcResult(status="infeasible", note="constant constraint is positive")
        return _unconstrained_result(f, note="constant constraint dropped")

    gmin = None if _min_clearly_below(g, tol * gscale) else unconstrained_min(g)
    if gmin is not None and gmin.status == "attained":
        if gmin.value > tol * gscale:
            return Qp1qcResult(
                status="infeasible",
                note=f"constraint has strictly positive minimum {gmin.value:.3g}",
            )
        if gmin.value >= -tol * gscale:
            # {g <= 0} collapses to the affine set of minimizers of g.
            Z = gmin.kernel
            if Z.shape[1] == 0:
                val = evaluate(f, gmin.x)
                return Qp1qcResult(
                    status="attained",
                    value=val,
                    x=gmin.x,
                    lam=0.0,
                    kkt=_kkt(f, g, 0.0, gmin.x),
                    note="feasible set is a single point",
                )
            res = solve_on_affine_subspace(f, gmin.x, Z)
            note = "feasible set is an affine subspace; " + res.note
            return replace(res, note=note.strip("; "))

    # Slater regime: maximize the concave one-dimensional dual over lam >= 0.
    lam_star, d = _maximize_dual(f, g)
    if d is None:
        return Qp1qcResult(
            status="unbounded_below",
            value=None,
            note="dual is infeasible for every lam >= 0",
        )
    value = d.value
    comp_tol = tol * (1.0 + abs(value)) * max(1.0, lam_star)
    for cand in reversed(_candidates(g, lam_star, d, tol)):
        feas_c = evaluate(g, cand)
        val_c = evaluate(f, cand)
        if feas_c <= tol * gscale and abs(val_c - value) <= max(
            tol * (1.0 + abs(value)), 1e2 * tol
        ):
            if lam_star > tol and abs(lam_star * feas_c) > 1e3 * comp_tol:
                continue
            return Qp1qcResult(
                status="attained",
                value=value,
                x=cand,
                lam=lam_star,
                kkt=_kkt(f, g, lam_star, cand),
            )
    return Qp1qcResult(
        status="unattained",
        value=value,
        lam=lam_star,
        note="finite dual value but no stationary point met feasibility and complementarity",
    )


def _unconstrained_result(f: QuadForm, note: str = "") -> Qp1qcResult:
    um = unconstrained_min(f)
    if um.status == "unbounded_below":
        return Qp1qcResult(status="unbounded_below", note=(note + "; objective unbounded").strip("; "))
    return Qp1qcResult(
        status="attained",
        value=um.value,
        x=um.x,
        lam=0.0,
        kkt=KktResiduals(
            stationarity=float(np.linalg.norm(f.A @ um.x + f.a)),
            complementarity=0.0,
            feasibility=-np.inf,
        ),
        note=note,
    )


def solve_on_affine_subspace(f: QuadForm, x0, N) -> Qp1qcResult:
    """Minimize f over the affine set {x0 + N y} (no inequality constraint)."""
    fr = restrict_affine(f, x0, N)
    um = unconstrained_min(fr)
    if um.status == "unbounded_below":
        return Qp1qcResult(
            status="unbounded_below", note="objective unbounded on the affine set"
        )
    N = np.asarray(N, dtype=float)
    if N.ndim == 1:
        N = N.reshape(-1, 1)
    x = np.asarray(x0, dtype=float) + N @ um.x
    stat = float(np.linalg.norm(fr.A @ um.x + fr.a))
    return Qp1qcResult(
        status="attained",
        value=um.value,
        x=x,
        lam=0.0,
        kkt=KktResiduals(stationarity=stat, complementarity=0.0, feasibility=-np.inf),
        note="restricted minimization",
    )
