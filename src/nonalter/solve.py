"""End-to-end solver: classify, reduce or dual-solve, then recover a point.

The dispatch mirrors the arrangement classes: infeasibility and redundant
constraints exit through single-constraint solves; Slater failures restrict
to an affine subspace; the degenerate one-variable pattern splits into a
halfspace piece and a hyperplane piece; instances with both zero sets
one-sided get the two-multiplier dual, whose Lagrangian minimizer is checked
as the optimal point (a search of the minimizers of f only when both
multipliers are 0).  Outside that class the dual is still computed, and the
same check certifies its minimizer by weak duality alone: a feasible point
at the dual value is a global minimizer in any class.  Only where it finds
no such point does the report fall back to a brute-force estimate (n <= 3)
flagged as non-certified, or to ``undetermined``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Tuple

import numpy as np

from .canonical import AffineChange
from .classify import (
    ArrangementClass,
    ArrangementReport,
    SearchSpec,
    classify_problem,
)
from .duality import DualPoint, DualSolveResult, slack_matrix, solve_dual_2d
from .oracle import GridSpec, grid_min, probe_unbounded
from .qp1qc import Qp1qcResult, solve_on_affine_subspace, solve_qp1qc
from .quad_core import (
    DEFAULT_TOL,
    EigenDecomp,
    QuadForm,
    evaluate,
    null_basis,
    quad_inf,
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


def side_of_sublevel(f: QuadForm, gamma: float, g: QuadForm, h: QuadForm,
                     tol: float = DEFAULT_TOL) -> str:
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
        psi = float(quad_inf(f.A + l1 * g.A + l2 * h.A, f.a + l1 * g.a + l2 * h.a,
                             f.a0 + l1 * g.a0 + l2 * h.a0).value)
        if np.isfinite(psi) and optimal(x, psi):
            Z = slack_matrix(f, g, h, psi, l1, l2)
            best = DualPoint(lambda1=l1, lambda2=l2, gamma=psi,
                             slack_min_eig=float(EigenDecomp.values_of(Z).values[0]))
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
            step = np.linalg.solve(J, -r)
        except np.linalg.LinAlgError:
            return None
        x, l1, l2 = x + step[:n], l1 + float(step[n]), l2 + float(step[n + 1])
        if np.abs(step).max() <= _REFINE_RTOL * (1.0 + np.abs(x).max() + abs(l1) + abs(l2)):
            break
    return x, l1, l2


def _build_reduction(f, g, h, hint: dict, tol: float) -> ReducedProblem:
    kind = hint["kind"]
    if kind == "single_constraint":
        which = hint["which"]
        return ReducedProblem(kind="single_constraint", data={"constraint": which})
    if kind == "subspace":
        # Intersect the flat sets {q = 0} for each constraint without a
        # negative value; on that affine set the other constraint remains.
        flats = hint["flat"]
        rows, rhs = [], []
        for name in flats:
            q = g if name == "g" else h
            rows.append(q.A)
            rhs.append(-q.a)
        Astack = np.vstack(rows)
        bstack = np.concatenate(rhs)
        x0, *_ = np.linalg.lstsq(Astack, bstack, rcond=None)
        if float(np.linalg.norm(Astack @ x0 - bstack)) > 1e-6 * (1 + np.linalg.norm(bstack)):
            return ReducedProblem(kind="infeasible_subspace", data={})
        gram = Astack.T @ Astack
        N = null_basis(gram)
        remaining = None
        if len(flats) == 1:
            remaining = "h" if flats[0] == "g" else "g"
        return ReducedProblem(
            kind="subspace_restriction",
            data={"x0": x0, "N": N, "remaining": remaining},
        )
    if kind == "product_constraint":
        b, b0, c0, t = hint["b"], hint["b0"], hint["c0"], hint["t"]
        lo, hi = -c0 / (2 * t), -b0 / 2.0  # interval for b'x
        if lo > hi + tol:
            return ReducedProblem(kind="infeasible_interval", data={"lo": lo, "hi": hi})
        A = np.outer(b, b)
        a = 0.5 * (c0 / (2 * t) + b0 / 2.0) * b
        a0 = (c0 / (2 * t)) * (b0 / 2.0)
        prod = QuadForm(A, a, a0)
        return ReducedProblem(kind="product_constraint", data={"constraint": prod})
    if kind == "halfspace_union_hyperplane":
        pat = hint["pattern"]
        change: AffineChange = pat["change"]
        n = change.n
        # Canonical coordinate xi(x) = first row of T^{-1}(x - t); the
        # degenerate feasible set is {xi <= -1} union {xi = 1}.
        Tinv = np.linalg.inv(change.T)
        row = Tinv[0]
        const = -float(row @ change.t)
        halfspace = QuadForm(np.zeros((n, n)), row / 2.0, const + 1.0)  # xi + 1 <= 0
        x_plane = change.apply(np.eye(n)[0])  # point with xi = 1
        N_plane = change.T[:, 1:] if n > 1 else None
        return ReducedProblem(
            kind="halfspace_union_hyperplane",
            data={"halfspace": halfspace, "x_plane": x_plane, "N_plane": N_plane},
        )
    raise ValueError(f"unknown reduction hint {kind!r}")  # pragma: no cover


def _report_from_qp1qc(f, g, h, classification, sub: Qp1qcResult, reduction, pathway, tol):
    if sub.status == "infeasible":
        return SolveReport(
            classification=classification, status="infeasible", nu_star=None,
            certified=True, reduction=reduction, subsolve=sub,
            pathway=pathway + ("subproblem infeasible",),
        )
    if sub.status == "unbounded_below":
        return SolveReport(
            classification=classification, status="unbounded", nu_star=None,
            certified=True, reduction=reduction, subsolve=sub,
            pathway=pathway + ("objective unbounded below on the reduction",),
        )
    if sub.status in ("attained", "unattained"):
        x = sub.x if sub.status == "attained" else None
        res = _residuals(f, g, h, x, sub.value) if x is not None else None
        return SolveReport(
            classification=classification, status="solved", nu_star=sub.value,
            certified=True, attained=sub.status == "attained", x_star=x,
            residuals=res, reduction=reduction, subsolve=sub, pathway=pathway,
        )
    return SolveReport(
        classification=classification, status="numerical_failure", nu_star=sub.value,
        certified=False, reduction=reduction, subsolve=sub, pathway=pathway,
    )


def solve_nonalter(
    f: QuadForm,
    g: QuadForm,
    h: QuadForm,
    tol: float = DEFAULT_TOL,
    *,
    spec: SearchSpec = SearchSpec(),
    classification: Optional[ArrangementReport] = None,
    collect_trace: bool = False,
) -> SolveReport:
    """Solve min f over {g <= 0, h <= 0} with a fully certified report."""
    if not (f.n == g.n == h.n):
        raise ValueError("dimension mismatch between objective and constraints")
    report = classification or classify_problem(g, h, tol, spec)
    pathway = (f"class:{report.overall_class.value}",)

    # A constant objective makes every feasible point optimal.
    if f.is_constant() and report.overall_class not in (
        ArrangementClass.INFEASIBLE, ArrangementClass.UNDETERMINED
    ):
        x = report.a3.witness if report.a3.holds else None
        if x is not None:
            return SolveReport(
                classification=report, status="solved", nu_star=f.a0, certified=True,
                attained=True, x_star=np.asarray(x), residuals=_residuals(f, g, h, x, f.a0),
                pathway=pathway + ("constant objective",),
            )

    cls = report.overall_class
    if cls is ArrangementClass.INFEASIBLE:
        return SolveReport(
            classification=report, status="infeasible", nu_star=None, certified=True,
            pathway=pathway,
        )

    if cls in (ArrangementClass.REDUCES_TO_QP1QC, ArrangementClass.AFFINE_PAIR_REDUCTION):
        reduction = _build_reduction(f, g, h, report.reduction_hint, tol)
        if reduction.kind in ("infeasible_subspace", "infeasible_interval"):
            return SolveReport(
                classification=report, status="infeasible", nu_star=None,
                certified=True, reduction=reduction, pathway=pathway,
            )
        if reduction.kind == "single_constraint":
            q = g if reduction.data["constraint"] == "g" else h
            sub = solve_qp1qc(f, q, tol)
            return _report_from_qp1qc(f, g, h, report, sub, reduction, pathway, tol)
        if reduction.kind == "product_constraint":
            sub = solve_qp1qc(f, reduction.data["constraint"], tol)
            return _report_from_qp1qc(f, g, h, report, sub, reduction, pathway, tol)
        if reduction.kind == "subspace_restriction":
            x0, N = reduction.data["x0"], reduction.data["N"]
            remaining = reduction.data["remaining"]
            if N.shape[1] == 0:
                ok = evaluate(g, x0) <= tol * (1 + g.data_scale()) and evaluate(
                    h, x0
                ) <= tol * (1 + h.data_scale())
                if not ok:
                    return SolveReport(
                        classification=report, status="infeasible", nu_star=None,
                        certified=True, reduction=reduction, pathway=pathway,
                    )
                val = evaluate(f, x0)
                return SolveReport(
                    classification=report, status="solved", nu_star=val, certified=True,
                    attained=True, x_star=x0, residuals=_residuals(f, g, h, x0, val),
                    reduction=reduction, pathway=pathway + ("subspace is a single point",),
                )
            if remaining is None:
                sub = solve_on_affine_subspace(f, x0, N, tol)
            else:
                fbar = restrict_affine(f, x0, N)
                qbar = restrict_affine(g if remaining == "g" else h, x0, N)
                inner = solve_qp1qc(fbar, qbar, tol)
                sub = replace(inner, x=None if inner.x is None else x0 + N @ inner.x)
            return _report_from_qp1qc(f, g, h, report, sub, reduction, pathway, tol)

    if cls is ArrangementClass.ASSUMPTION5_DEGENERATE:
        reduction = _build_reduction(f, g, h, report.reduction_hint, tol)
        half = solve_qp1qc(f, reduction.data["halfspace"], tol)
        x_plane, N_plane = reduction.data["x_plane"], reduction.data["N_plane"]
        if N_plane is not None and N_plane.shape[1]:
            plane = solve_on_affine_subspace(f, x_plane, N_plane, tol)
        else:
            v = evaluate(f, x_plane)
            plane = Qp1qcResult(status="attained", value=v, x=x_plane, lam=0.0)
        branches = [b for b in (half, plane) if b.status in ("attained", "unattained")]
        if any(b.status == "unbounded_below" for b in (half, plane)):
            return SolveReport(
                classification=report, status="unbounded", nu_star=None, certified=True,
                reduction=reduction, pathway=pathway + ("one branch unbounded below",),
            )
        if not branches:
            return SolveReport(
                classification=report, status="numerical_failure", nu_star=None,
                certified=False, reduction=reduction, pathway=pathway,
            )
        best = min(branches, key=lambda b: b.value)
        return _report_from_qp1qc(
            f, g, h, report, best, reduction,
            pathway + ("minimum over halfspace and hyperplane branches",), tol,
        )

    if cls is ArrangementClass.NON_ALTER:
        dual = solve_dual_2d(f, g, h, tol, collect_trace=collect_trace)
        if dual.status == "dual_infeasible_everywhere":
            estimate = None
            if f.n <= 3:
                w = probe_unbounded(f, g, h, GridSpec.cube(f.n, resolution=201))
                if w is not None:
                    estimate = {
                        "unbounded_evidence_point": w,
                        "value": evaluate(f, w),
                    }
            return SolveReport(
                classification=report, status="dual_infeasible", nu_star=None,
                certified=False, dual=dual, oracle_estimate=estimate,
                pathway=pathway + ("dual infeasible everywhere",),
            )
        if dual.status == "numerical_failure":
            return SolveReport(
                classification=report, status="numerical_failure", nu_star=dual.value,
                certified=False, dual=dual, pathway=pathway,
            )
        x, side, notes, dual = recover_solution(f, g, h, dual, tol)
        nu = dual.value
        res = _residuals(f, g, h, x, nu) if x is not None else None
        return SolveReport(
            classification=report, status="solved", nu_star=nu, certified=True,
            attained=x is not None, x_star=x, side=side, residuals=res, dual=dual,
            pathway=pathway + tuple(notes),
        )

    if cls is ArrangementClass.OUTSIDE_NON_ALTER:
        dual = solve_dual_2d(f, g, h, tol, collect_trace=collect_trace)
        if dual.status == "finite":
            # Weak duality alone: a feasible point at the dual value is a
            # global minimizer in any class.  The side is an in-class theorem.
            x, _, notes, found = recover_solution(f, g, h, dual, tol)
            if x is not None:
                return SolveReport(
                    classification=report, status="solved", nu_star=found.value,
                    certified=True, attained=True, x_star=x,
                    residuals=_residuals(f, g, h, x, found.value), dual=found,
                    pathway=pathway + tuple(notes) + (
                        "certified by weak duality: a feasible point at the dual value "
                        "is a global minimizer",),
                )
        estimate = None
        status = "undetermined"
        nu = None
        if f.n <= 3:
            res = grid_min(f, g, h, GridSpec.cube(f.n, resolution=401))
            if res.feasible_count == 0:
                res = grid_min(f, g, h, GridSpec.cube(f.n, resolution=401, eps=1e-3))
            if res.min_value is not None:
                estimate = {
                    "value": res.min_value,
                    "argmin": res.argmin,
                    "feasible_count": res.feasible_count,
                }
                status, nu = "estimate_only", res.min_value
        return SolveReport(
            classification=report, status=status, nu_star=nu, certified=False,
            dual=dual, oracle_estimate=estimate,
            pathway=pathway + ("no certified method outside the class; dual value is a lower bound",),
        )

    return SolveReport(
        classification=report, status="undetermined", nu_star=None, certified=False,
        pathway=pathway,
    )
