"""Global minimization of a quadratic under a single quadratic constraint.

``min f(x) s.t. g(x) <= 0`` is solved through its one-dimensional concave
dual ``lam -> inf_x [f + lam*g](x)`` maximized over lam >= 0, followed by
primal recovery ``x(lam*) = -Q(lam*)^+ v(lam*)``.  When the stationary
system at the optimal multiplier is singular and complementarity fails, a
kernel direction is added and scaled to reach the constraint boundary (the
hard case).  Degenerate constraints (constants, everywhere-nonnegative g)
are dispatched structurally before the dual is touched.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import _opt
from .quad_core import (
    DEFAULT_TOL,
    INF_PSD_RTOL,
    RANK_RTOL,
    QuadForm,
    evaluate,
    null_basis,
    quad_inf_closed_form,
    restrict_affine,
    unconstrained_min,
)


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


def _dual_1d(f: QuadForm, g: QuadForm, lam: float,
             psd_tol: float = INF_PSD_RTOL) -> float:
    """inf_x [f + lam*g](x) in closed form; -inf outside the dual domain."""
    Q = f.A + lam * g.A
    v = f.a + lam * g.a
    s = f.a0 + lam * g.a0
    return quad_inf_closed_form(Q, v, s, psd_tol)


def _stationary_point(f: QuadForm, g: QuadForm, lam: float) -> np.ndarray:
    # The zeroing margin matches the closed-form dual (unit-anchored), so a
    # Q(lam) that the dual treated as singular is not inverted here either.
    Q = f.A + lam * g.A
    v = f.a + lam * g.a
    values, vectors = np.linalg.eigh(Q)
    norm2 = float(np.abs(values).max(initial=0.0))
    zero = np.abs(values) <= INF_PSD_RTOL * (1.0 + norm2)
    inv = np.divide(1.0, values, out=np.zeros_like(values), where=~zero)
    return -(vectors * inv) @ (vectors.T @ v)


def _near_kernel(Q: np.ndarray, rtol: float = 1e-8) -> np.ndarray:
    """Eigenvectors with eigenvalues small on the unit-anchored scale."""
    values, vectors = np.linalg.eigh(Q)
    norm2 = float(np.abs(values).max(initial=0.0))
    return vectors[:, np.abs(values) <= rtol * (1.0 + norm2)]


def _kkt(f: QuadForm, g: QuadForm, lam: float, x: np.ndarray) -> KktResiduals:
    Q = f.A + lam * g.A
    v = f.a + lam * g.a
    feas = evaluate(g, x)
    return KktResiduals(
        stationarity=float(np.linalg.norm(Q @ x + v)),
        complementarity=abs(lam * feas),
        feasibility=feas,
    )


def _refine_multiplier(f: QuadForm, g: QuadForm, lam0: float) -> float:
    """Polish the dual maximizer by monotone bisection on c(lam) = g(x(lam)).

    c is the derivative of the concave one-dimensional dual, hence
    nonincreasing; golden section localizes the maximum value but leaves the
    argmax only sqrt(eps)-accurate on the flat top, which is not enough for
    primal recovery.  Outside the dual domain c is treated as undefined and
    the walk stops at the domain edge (the hard-case boundary).
    """

    def c_of(lam: float):
        if _dual_1d(f, g, lam) == -np.inf:
            return None
        return evaluate(g, _stationary_point(f, g, lam))

    c0 = c_of(lam0)
    if c0 is None:
        return lam0
    span = max(lam0, 1.0)
    if c0 > 0.0:
        lo, hi = lam0, None
        step = 1e-8 * span
        for _ in range(120):
            cand = lo + step
            c = c_of(cand)
            if c is None:
                # Bisect toward the domain edge; the maximizer sits there.
                a, b = lo, cand
                for _ in range(100):
                    mid = 0.5 * (a + b)
                    if c_of(mid) is None:
                        b = mid
                    else:
                        a = mid
                        if c_of(mid) <= 0.0:
                            hi = mid
                            break
                if hi is None:
                    return a
                lo = a
                break
            if c <= 0.0:
                hi = cand
                break
            lo = cand
            step *= 4.0
        if hi is None:
            return lo
    elif c0 < 0.0:
        lo, hi = None, lam0
        step = 1e-8 * span
        for _ in range(120):
            cand = hi - step
            if cand <= 0.0:
                c = c_of(0.0)
                if c is not None and c <= 0.0:
                    return 0.0  # interior optimum
                cand = 0.0
            c = c_of(cand)
            if c is None:
                a, b = cand, hi
                for _ in range(100):
                    mid = 0.5 * (a + b)
                    if c_of(mid) is None:
                        a = mid
                    else:
                        b = mid
                        if c_of(mid) >= 0.0:
                            lo = mid
                            break
                if lo is None:
                    return b
                hi = b
                break
            if c >= 0.0:
                lo = cand
                break
            if cand == 0.0:
                return 0.0
            hi = cand
            step *= 4.0
        if lo is None:
            return hi
    else:
        return lam0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        c = c_of(mid)
        if c is None or c > 0.0:
            lo = mid
        else:
            hi = mid
    return hi if c_of(hi) is not None else lo


def _hard_case_step(f, g, lam, x_p, tol):
    """Move along a kernel direction of Q(lam*) to reach {g = 0}.

    The kernel cutoff is looser than the global rank threshold because lam*
    carries the residual imprecision of the one-dimensional search.
    """
    Z = _near_kernel(f.A + lam * g.A)
    g_at = evaluate(g, x_p)
    for j in range(Z.shape[1]):
        z = Z[:, j]
        a2 = float(z @ g.A @ z)
        a1 = 2.0 * float((g.A @ x_p + g.a) @ z)
        disc = a1 * a1 - 4.0 * a2 * g_at
        roots = []
        if abs(a2) > RANK_RTOL * (1.0 + g.data_scale()):
            if disc >= 0:
                sq = np.sqrt(disc)
                roots = [(-a1 - sq) / (2 * a2), (-a1 + sq) / (2 * a2)]
        elif abs(a1) > RANK_RTOL * (1.0 + g.data_scale()):
            roots = [-g_at / a1]
        if not roots:
            continue
        # Deterministic: smaller magnitude first, positive wins a tie.
        roots.sort(key=lambda t: (abs(t), -np.sign(t)))
        t = roots[0]
        x = x_p + t * z
        if abs(evaluate(g, x)) <= tol * (1.0 + g.data_scale()):
            return x
    return None


def solve_qp1qc(f: QuadForm, g: QuadForm, tol: float = DEFAULT_TOL) -> Qp1qcResult:
    """Globally minimize f subject to g <= 0."""
    if f.n != g.n:
        raise ValueError("objective and constraint dimensions differ")
    gscale = 1.0 + g.data_scale()

    if g.is_constant():
        if g.a0 > tol * gscale:
            return Qp1qcResult(status="infeasible", note="constant constraint is positive")
        return _unconstrained_result(f, note="constant constraint dropped")

    gmin = unconstrained_min(g)
    if gmin.status == "attained":
        if gmin.value > tol * gscale:
            return Qp1qcResult(
                status="infeasible",
                note=f"constraint has strictly positive minimum {gmin.value:.3g}",
            )
        if gmin.value >= -tol * gscale:
            # {g <= 0} collapses to the affine set of minimizers of g.
            Z = null_basis(g.A)
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
            res = solve_on_affine_subspace(f, gmin.x, Z, tol)
            note = "feasible set is an affine subspace; " + res.note
            return Qp1qcResult(
                status=res.status,
                value=res.value,
                x=res.x,
                lam=res.lam,
                kkt=res.kkt,
                note=note.strip("; "),
            )

    # Slater regime: maximize the concave one-dimensional dual over lam >= 0.
    def phi(lam):
        return _dual_1d(f, g, lam)

    lam_star, value = _opt.maximize_concave_ray(phi, probes=65, iters=110)
    if lam_star is None or value == -np.inf:
        return Qp1qcResult(
            status="unbounded_below",
            value=None,
            note="dual is infeasible for every lam >= 0",
        )
    lam_star = _refine_multiplier(f, g, max(float(lam_star), 0.0))
    value = max(value, phi(lam_star))

    x = _stationary_point(f, g, lam_star)
    feas = evaluate(g, x)
    comp_tol = tol * (1.0 + abs(value)) * max(1.0, lam_star)
    candidates = [x]
    if feas > tol * gscale or (lam_star > tol and abs(lam_star * feas) > comp_tol):
        hard = _hard_case_step(f, g, lam_star, x, tol)
        if hard is not None:
            candidates.append(hard)
    for cand in reversed(candidates):
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


def solve_on_affine_subspace(
    f: QuadForm, x0, N, tol: float = DEFAULT_TOL
) -> Qp1qcResult:
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
