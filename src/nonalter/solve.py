"""End-to-end solver: classify, reduce or dual-solve, then recover a point.

One dispatch on the arrangement class, one path per class.  Infeasible
instances exit at once.  A class with a reduction hint (a redundant
constraint, Slater failures that restrict to an affine subspace, a parallel
affine pair, the degenerate one-variable pattern with its halfspace and
hyperplane pieces) has the reduction built and solved in one place, and
its single-constraint outcome read by one report builder.  Both sides of the
class share one dual path: the two-multiplier dual, whose Lagrangian
minimizer is checked as the optimal point (a search of the minimizers of f
only when both multipliers are 0).  The check needs only weak duality, so a
point it finds is a global minimizer in any class.  The class decides four
things: in it a finite dual is nu* even when no point is found, and the
report names the side of the sublevel set; outside it the pathway names
weak duality, and where no point is found a brute-force estimate (n <= 3),
flagged as non-certified, or ``undetermined`` remains.  Where the dual is
-inf everywhere, in the class, the report is ``dual_infeasible`` with the
dual's phase-I certificate as its evidence (strong duality makes nu* =
-inf there); whether that may be ``certified`` is left to a verifier.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Tuple

import numpy as np

from .canonical import AffineChange
from .classify import (
    ArrangementClass,
    ArrangementReport,
    classify_problem,
)
from .duality import DualSolveResult, dual_point, lagrangian_dual_value, solve_dual_2d
# probe_unbounded has no caller here; perfbench/tracing.py wraps it by this name.
from .oracle import GridSpec, grid_min, probe_unbounded  # noqa: F401
from .qp1qc import Qp1qcResult, solve_on_affine_subspace, solve_qp1qc
from .quad_core import (
    DEFAULT_TOL,
    QuadForm,
    _inv,
    _norm,
    _solve,
    evaluate,
    in_workspace,
    null_basis,
    restrict_affine,
    unconstrained_min,
)


class NoSublevelPoint(RuntimeError):
    """Raised when {f < gamma} is certifiably or practically empty."""


SIDE_G_NEG_H_POS = "g_neg_h_pos"
SIDE_G_POS_H_NEG = "g_pos_h_neg"
#: :func:`_refine_kkt`: Newton steps at most, and the relative step below
#: which it stops (the dual's point is first-order accurate, so one or two
#: steps reach rounding).
_REFINE_STEPS = 3
_REFINE_RTOL = 1e-14


@dataclass(frozen=True)
class ReducedProblem:
    """A constructed reduction with enough data to map solutions back."""

    # single_constraint | subspace_restriction | product_constraint |
    # halfspace_union_hyperplane | infeasible_subspace | infeasible_interval
    kind: str
    data: dict


@dataclass(frozen=True)
class SolveReport:
    classification: ArrangementReport
    # solved | infeasible | unbounded | dual_infeasible | undetermined |
    # estimate_only | numerical_failure.  Outside the class, ``solved`` is
    # certified by weak duality (a feasible point at the dual value);
    # ``estimate_only`` and ``undetermined`` are left where no such point
    # is found.
    status: str
    nu_star: Optional[float]
    certified: bool
    attained: Optional[bool] = None
    x_star: Optional[np.ndarray] = None
    side: Optional[str] = None
    residuals: Optional[Tuple[float, float, float]] = None
    dual: Optional[DualSolveResult] = None
    reduction: Optional[ReducedProblem] = None
    subsolve: Optional[Qp1qcResult] = None
    oracle_estimate: Optional[dict] = None
    pathway: Tuple[str, ...] = ()


def side_of_sublevel(f: QuadForm, gamma: float, g: QuadForm, h: QuadForm) -> str:
    """Which strict side {f < gamma} lives on, probed at one sublevel point.

    The probe is the unconstrained minimizer when finite, otherwise a sample
    along an escape ray.  Raises :class:`NoSublevelPoint` when {f < gamma}
    is empty.
    """
    um = unconstrained_min(f)
    if um.status == "attained":
        if um.value >= gamma:
            raise NoSublevelPoint(f"{{f < {gamma}}} is empty: inf f = {um.value}")
        x0 = um.x
    else:  # the first of d, 2d, 4d, ... on the escape ray with f < gamma - 1
        x0 = um.direction
        while evaluate(f, x0) >= gamma - 1.0:
            if not np.isfinite(x0).all():  # pragma: no cover - f falls below any level
                raise NoSublevelPoint("could not sample the sublevel set")
            x0 = 2.0 * x0
    gv, hv = evaluate(g, x0), evaluate(h, x0)
    if gv < 0 and hv > 0:
        return SIDE_G_NEG_H_POS
    if gv > 0 and hv < 0:
        return SIDE_G_POS_H_NEG
    raise NoSublevelPoint(
        f"sublevel probe has unexpected signs g={gv:.3g}, h={hv:.3g}; "
        "the dichotomy hypothesis does not apply"
    )


def _residuals(f, g, h, x, nu):
    return (evaluate(f, x) - nu, evaluate(g, x), evaluate(h, x))


@in_workspace
def recover_solution(
    f: QuadForm, g: QuadForm, h: QuadForm, dual: DualSolveResult, tol: float = DEFAULT_TOL
):
    """Recover an optimal point from a finite dual, or None when unattained.

    The test needs no arrangement class, only weak duality: a point where
    both constraints hold, each one with a positive multiplier is active
    (both within tol*(1 + its data scale)), and f equals the dual value
    psi(lam) within tol*(1 + |psi|) is a global minimizer.  The dual's
    Lagrangian minimizer ``dual.x`` is tested first.  When it misses with
    both multipliers positive, a few Newton steps on the KKT system
    (grad_x L = 0, g = h = 0 in x and both multipliers) refine it; the
    refined point is accepted by the same test at the refined multipliers,
    which must stay nonnegative, against one exact evaluation of psi there,
    and the returned dual then carries those multipliers and that value.
    With both multipliers 0 (nu* is the unconstrained infimum) the affine
    manifold of unconstrained minimizers is searched for a feasible point
    by minimizing the restricted g under the restricted h.

    The side comes from the multipliers: a positive multiplier on g alone
    means {f < nu*} lies where g > 0 > h, on h alone the mirror side; it is
    the paper's dichotomy, so it means something only in the class.

    Returns ``(x_star or None, side or None, notes, dual)``, where ``dual``
    is the input or its refinement, the one whose value ``x_star`` reaches.
    """
    lam = (dual.best.lambda1, dual.best.lambda2)
    active = (lam[0] > 0.0, lam[1] > 0.0)
    side = {(True, False): SIDE_G_POS_H_NEG, (False, True): SIDE_G_NEG_H_POS}.get(active)

    def optimal(x, nu):
        gates = [(evaluate(q, x), tol * (1.0 + q.data_scale()), on) for q, on in zip((g, h), active)]
        return (abs(evaluate(f, x) - nu) <= tol * (1.0 + abs(nu))
                and all(v <= cut and (v >= -cut or not on) for v, cut, on in gates))

    if dual.x is not None and optimal(dual.x, dual.value):
        return dual.x, side, ["the dual's Lagrangian minimizer is optimal"], dual
    refined = _refine_kkt(f, g, h, dual.x, lam) if all(active) and dual.x is not None else None
    if refined is not None and min(refined[1:]) >= 0.0:
        x, l1, l2 = refined
        psi = lagrangian_dual_value(f, g, h, l1, l2)
        if np.isfinite(psi) and optimal(x, psi):
            best = dual_point(f, g, h, psi, l1, l2)
            return x, side, ["the dual's Lagrangian minimizer is optimal after a KKT "
                             "Newton refinement"], replace(dual, value=psi, best=best, x=x)
    if any(active):
        return None, side, ["no optimal Lagrangian minimizer from the dual: value unattained"], dual
    notes = ["both multipliers 0: searching the minimizers of f"]
    um = unconstrained_min(f)
    x = um.x
    if um.status == "attained" and um.kernel.shape[1]:
        Z = um.kernel
        sub = solve_qp1qc(restrict_affine(g, x, Z), restrict_affine(h, x, Z), tol)
        x = x + Z @ sub.x if sub.status == "attained" else None
    if x is not None and optimal(x, dual.value):
        return x, side, notes, dual
    notes.append("no feasible point on the minimizer manifold: value unattained")
    return None, side, notes, dual


def _refine_kkt(f: QuadForm, g: QuadForm, h: QuadForm, x: np.ndarray, lam):
    """Newton's method on (Q(lam)x + v(lam), g(x), h(x)) = 0 in (x, lam1, lam2).

    At most ``_REFINE_STEPS`` steps, fewer once a step is below rounding.
    Returns ``(x, lam1, lam2)``, or None when the Jacobian is singular.
    """
    n = f.n
    (l1, l2), J = lam, np.zeros((n + 2, n + 2))
    for _ in range(_REFINE_STEPS):
        J[:n, :n] = f.A + l1 * g.A + l2 * h.A
        wg, wh = g.A @ x + g.a, h.A @ x + h.a
        r = np.concatenate([J[:n, :n] @ x + f.a + l1 * g.a + l2 * h.a,
                            [evaluate(g, x), evaluate(h, x)]])
        J[:n, n], J[:n, n + 1] = wg, wh
        J[n, :n], J[n + 1, :n] = 2.0 * wg, 2.0 * wh
        try:
            step = _solve(J, -r, singular=True)
        except np.linalg.LinAlgError:
            return None
        x, l1, l2 = x + step[:n], l1 + float(step[n]), l2 + float(step[n + 1])
        if np.abs(step).max() <= _REFINE_RTOL * (1.0 + np.abs(x).max() + abs(l1) + abs(l2)):
            break
    return x, l1, l2


_REDUCED_STATUS = {"attained": "solved", "unattained": "solved",
                   "infeasible": "infeasible", "unbounded_below": "unbounded"}
#: Pathway notes of a single-constraint subproblem's infeasible or unbounded outcome.
_SUBPROBLEM_NOTES = {"infeasible": "subproblem infeasible",
                     "unbounded_below": "objective unbounded below on the reduction"}


def _solve_reduction(f, g, h, hint: dict, tol: float):
    """Build the reduction named by ``hint`` and solve it.

    Returns ``(reduction, outcome, subsolve, notes)``: ``outcome`` is the
    single-constraint result whose status decides the report, ``subsolve``
    the single-constraint solve reported with it (None where the reduction
    decides without one) and ``notes`` extend the pathway.
    """
    kind = hint["kind"]
    if kind == "single_constraint":
        sub = solve_qp1qc(f, g if hint["which"] == "g" else h, tol)
        return ReducedProblem(kind, {"constraint": hint["which"]}), sub, sub, ()
    if kind == "product_constraint":
        b, b0, c0, t = hint["b"], hint["b0"], hint["c0"], hint["t"]
        lo, hi = -c0 / (2 * t), -b0 / 2.0  # interval for b'x
        if lo > hi + tol:
            return (ReducedProblem("infeasible_interval", {"lo": lo, "hi": hi}),
                    Qp1qcResult("infeasible"), None, ())
        prod = QuadForm(np.outer(b, b), -0.5 * (lo + hi) * b, lo * hi)  # (b'x - lo)(b'x - hi)
        sub = solve_qp1qc(f, prod, tol)
        return ReducedProblem(kind, {"constraint": prod}), sub, sub, ()
    if kind == "subspace":
        # Intersect the flat sets {q = 0} of the constraints without a
        # negative value; on that affine set the other constraint remains.
        flats = [g if name == "g" else h for name in hint["flat"]]
        Astack, bstack = np.vstack([q.A for q in flats]), np.concatenate([-q.a for q in flats])
        x0, *_ = np.linalg.lstsq(Astack, bstack, rcond=None)
        if _norm(Astack @ x0 - bstack) > 1e-6 * (1 + _norm(bstack)):
            return ReducedProblem("infeasible_subspace", {}), Qp1qcResult("infeasible"), None, ()
        N = null_basis(Astack.T @ Astack)
        remaining = None if len(flats) > 1 else ("h" if hint["flat"][0] == "g" else "g")
        reduction = ReducedProblem("subspace_restriction",
                                   {"x0": x0, "N": N, "remaining": remaining})
        if N.shape[1] == 0:
            if any(evaluate(q, x0) > tol * (1 + q.data_scale()) for q in (g, h)):
                return reduction, Qp1qcResult("infeasible"), None, ()
            point = Qp1qcResult("attained", evaluate(f, x0), x0)
            return reduction, point, None, ("subspace is a single point",)
        if remaining is None:
            sub = solve_on_affine_subspace(f, x0, N)
        else:
            q = restrict_affine(g if remaining == "g" else h, x0, N)
            sub = solve_qp1qc(restrict_affine(f, x0, N), q, tol)
            sub = replace(sub, x=None if sub.x is None else x0 + N @ sub.x)
        return reduction, sub, sub, ()
    # halfspace_union_hyperplane: in the canonical coordinate xi(x), the
    # first row of T^{-1}(x - t), the feasible set is {xi <= -1} u {xi = 1}.
    change: AffineChange = hint["pattern"]["change"]
    n = change.n
    row = _inv(change.T)[0]
    halfspace = QuadForm(np.zeros((n, n)), row / 2.0, 1.0 - float(row @ change.t))  # xi + 1 <= 0
    x_plane = change.apply(np.eye(n)[0])  # the point with xi = 1 and y2 = .. = yn = 0
    N_plane = change.T[:, 1:] if n > 1 else None
    reduction = ReducedProblem(kind, {"halfspace": halfspace, "x_plane": x_plane,
                                      "N_plane": N_plane})
    half = solve_qp1qc(f, halfspace, tol)
    if N_plane is not None:
        plane = solve_on_affine_subspace(f, x_plane, N_plane)
    else:
        plane = Qp1qcResult(status="attained", value=evaluate(f, x_plane), x=x_plane, lam=0.0)
    if "unbounded_below" in (half.status, plane.status):
        return reduction, Qp1qcResult("unbounded_below"), None, ("one branch unbounded below",)
    branches = [b for b in (half, plane) if b.status in ("attained", "unattained")]
    if not branches:
        return reduction, Qp1qcResult("numerical_failure"), None, ()
    best = min(branches, key=lambda b: b.value)
    return reduction, best, best, ("minimum over halfspace and hyperplane branches",)


@in_workspace
def solve_nonalter(
    f: QuadForm,
    g: QuadForm,
    h: QuadForm,
    tol: float = DEFAULT_TOL,
    *,
    collect_trace: bool = False,
) -> SolveReport:
    """Solve min f over {g <= 0, h <= 0} with a fully certified report."""
    if not (f.n == g.n == h.n):
        raise ValueError("dimension mismatch between objective and constraints")
    report = classify_problem(g, h, tol)
    cls = report.overall_class
    pathway = (f"class:{cls.value}",)
    if cls is ArrangementClass.INFEASIBLE:
        return SolveReport(classification=report, status="infeasible", nu_star=None,
                           certified=True, pathway=pathway)

    # A constant objective makes every feasible point optimal.
    if f.is_constant() and cls is not ArrangementClass.UNDETERMINED and report.a3.holds:
        x = report.a3.witness
        if x is not None:
            return SolveReport(
                classification=report, status="solved", nu_star=f.a0, certified=True,
                attained=True, x_star=np.asarray(x), residuals=_residuals(f, g, h, x, f.a0),
                pathway=pathway + ("constant objective",),
            )

    if report.reduction_hint is not None:
        reduction, out, sub, notes = _solve_reduction(f, g, h, report.reduction_hint, tol)
        status = _REDUCED_STATUS.get(out.status, "numerical_failure")
        if sub is not None and out.status in _SUBPROBLEM_NOTES:
            notes += (_SUBPROBLEM_NOTES[out.status],)
        x = out.x if out.status == "attained" else None
        return SolveReport(
            classification=report, status=status,
            nu_star=out.value if status in ("solved", "numerical_failure") else None,
            certified=status != "numerical_failure",
            attained=x is not None if status == "solved" else None, x_star=x,
            residuals=None if x is None else _residuals(f, g, h, x, out.value),
            reduction=reduction, subsolve=sub, pathway=pathway + notes,
        )

    if cls not in (ArrangementClass.NON_ALTER, ArrangementClass.OUTSIDE_NON_ALTER):
        return SolveReport(classification=report, status="undetermined", nu_star=None,
                           certified=False, pathway=pathway)

    # In the class a finite dual is nu* (strong duality), attained or not;
    # outside it, weak duality alone certifies a feasible point at the dual
    # value, and the sublevel side, an in-class theorem, stays unset.
    inside = cls is ArrangementClass.NON_ALTER
    dual = solve_dual_2d(f, g, h, tol, collect_trace=collect_trace)
    if dual.status == "finite":
        x, side, notes, found = recover_solution(f, g, h, dual, tol)
        if inside or x is not None:
            if not inside:
                side, notes = None, notes + ["certified by weak duality: a feasible point at "
                                             "the dual value is a global minimizer"]
            return SolveReport(
                classification=report, status="solved", nu_star=found.value, certified=True,
                attained=x is not None, x_star=x, side=side,
                residuals=None if x is None else _residuals(f, g, h, x, found.value),
                dual=found, pathway=pathway + tuple(notes),
            )
    elif inside:
        if dual.status == "numerical_failure":
            return SolveReport(classification=report, status="numerical_failure",
                               nu_star=dual.value, certified=False, dual=dual, pathway=pathway)
        return SolveReport(
            classification=report, status="dual_infeasible", nu_star=None, certified=False,
            dual=dual, pathway=pathway + ("dual infeasible everywhere",),
        )
    status, nu, estimate = "undetermined", None, None
    if f.n <= 3:
        res = grid_min(f, g, h, GridSpec.cube(f.n, resolution=401))
        if res.feasible_count == 0:
            res = grid_min(f, g, h, GridSpec.cube(f.n, resolution=401, eps=1e-3))
        if res.min_value is not None:
            estimate = {"value": res.min_value, "argmin": res.argmin,
                        "feasible_count": res.feasible_count}
            status, nu = "estimate_only", res.min_value
    return SolveReport(
        classification=report, status=status, nu_star=nu, certified=False,
        dual=dual, oracle_estimate=estimate,
        pathway=pathway + (("weak duality found no feasible point at the dual value, "
                            "which stays a lower bound") if dual.status == "finite" else
                           "no certified method outside the class: the dual is not finite",),
    )
