"""Arrangement classification for a pair of quadratic constraints.

Given ``g <= 0`` and ``h <= 0``, this module decides how the two level sets
``{g=0}`` and ``{h=0}`` sit relative to each other: separation of a sublevel
set by the other zero set, certified zero-set inclusions through matrix
pencils, and the five structural assumptions that gate the two-multiplier
strong-duality pathway.  Every positive verdict carries a machine-checkable
certificate (a pencil multiplier, an interior point, a witness); negative
verdicts carry concrete counterexample points.  When neither route lands,
the honest answer is "undetermined".
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Optional, Tuple

import numpy as np

from . import qp1qc
from .canonical import (
    AffineChange,
    FormTag,
    canonical_reduce,
    companion_in_basis,
)
from .quad_core import (
    DEFAULT_TOL,
    PSD_RTOL,
    RANK_RTOL,
    PsdStatus,
    PsdVerdict,
    QuadForm,
    _pencil_interval,
    _status_of,
    current_workspace,
    eig_of,
    evaluate,
    evaluate_many,
    gradient_many,
    lift,
    find_negative_point,
    in_workspace,
    line_roots,
    nonneg_everywhere,
    pencil_interval,
    psd_status,
    quad_inf,
    unconstrained_min,
)


@dataclass(frozen=True, eq=False)
class Candidates:
    """Witness candidate points of (g, h) and the four single-constraint
    solves behind them, which assumptions 1 and 3 decide from.  The values
    at the candidates and the candidates moved onto a zero set are kept per
    quadratic in the request's workspace, keyed on this set."""

    points: np.ndarray
    min_g: qp1qc.Qp1qcResult  # min g subject to h <= 0
    min_h: qp1qc.Qp1qcResult  # min h subject to g <= 0
    max_g: qp1qc.Qp1qcResult  # min -g subject to h <= 0
    max_h: qp1qc.Qp1qcResult  # min -h subject to g <= 0

    def values(self, q: QuadForm) -> np.ndarray:
        """q at every candidate, read-only, evaluated at most once per
        quadratic and request."""
        return current_workspace().read("values", _values_at, q, self)

    def on_zero_set(self, q: QuadForm) -> np.ndarray:
        """The candidates moved onto {q = 0} that land there, read-only,
        moved at most once per quadratic and request (:func:`_move_to_zero_set`)."""
        return current_workspace().read("zero_set", _move_to_zero_set, q, self)


def _values_at(q: QuadForm, cands: Candidates) -> np.ndarray:
    vals = evaluate_many(q, cands.points)
    vals.setflags(write=False)
    return vals


@lru_cache(maxsize=None)
def _line_directions(n: int) -> np.ndarray:
    """The 8 fixed unit directions in R^n of the candidate lines, read-only:
    the rows of ``default_rng(1).normal(size=(8, n))``, normalized."""
    rnd = np.random.default_rng(1).normal(size=(8, n))
    dirs = rnd / np.linalg.norm(rnd, axis=1, keepdims=True)
    dirs.setflags(write=False)
    return dirs


def _ray_candidates(g: QuadForm, h: QuadForm, tol: float = DEFAULT_TOL) -> Candidates:
    """Witness candidates: single-constraint optimizers and sign-cell probes on lines.

    Along any line both constraints restrict to scalar quadratics whose roots
    cut the line into at most five sign cells.  Probing every cell midpoint
    (plus the roots themselves and points beyond the extremes) on lines
    through the origin, the stationary points -A^+a of g and h, and the
    optimizers of +-h over {g <= 0} and of +-g over {h <= 0}, in eigenvector,
    linear-term and fixed directions (:func:`_line_directions`), reaches
    every arrangement feature the checkers care about.  The optimizers, exact for one
    constraint, are candidates themselves: they reach the bounded sign
    regions that lines miss.  The four solves run at ``tol`` and are kept
    on the set, where assumptions 1 and 3 read their verdicts.
    """
    n = g.n
    anchors, dirs = [np.zeros(n)], []
    for q in (g, h):
        anchors.append(quad_inf(eig_of(q), q.a, q.a0, RANK_RTOL).x)
        if q.A.any():
            dirs.extend(eig_of(q).vectors.T)
        if q.a.any():
            dirs.append(q.a / np.linalg.norm(q.a))
    # min h, min -h subject to g <= 0; min g, min -g subject to h <= 0
    min_h, max_h, min_g, max_g = solves = [
        qp1qc.solve_qp1qc(r, p, tol) for p, q in ((g, h), (h, g)) for r in (q, -q)]
    optima = [r.x for r in solves if r.status == "attained"]
    anchors += optima
    dirs.extend(_line_directions(n))

    X = np.repeat(anchors, len(dirs), axis=0)
    D = np.tile(dirs, (len(anchors), 1))
    R = np.sort(np.hstack([line_roots(q, X, D, 1e-13) for q in (g, h)]), axis=1)
    count = (~np.isnan(R)).sum(axis=1)
    first, last = R[:, 0], R[np.arange(len(R)), np.maximum(count - 1, 0)]
    span = np.maximum(last - first, 1.0)
    # Per ray: the points beyond both extremes, the midpoints, the roots;
    # a ray without roots probes its anchor.
    T = np.column_stack([first - span, last + span, 0.5 * (R[:, :-1] + R[:, 1:]), R])
    T[count == 0, 0] = 0.0
    keep = ~np.isnan(T)
    points = np.vstack([np.reshape(optima, (-1, n)),
                        (X[:, None, :] + T[:, :, None] * D[:, None, :])[keep]])
    return Candidates(points, min_g=min_g, min_h=min_h, max_g=max_g, max_h=max_h)


def _candidates(g: QuadForm, h: QuadForm, tol: float) -> Candidates:
    """:func:`_ray_candidates` of (g, h) at ``tol``, built at most once per
    pair and request: every checker of the request reads this one set."""
    return current_workspace().read("cands", _ray_candidates, g, h, tol)


def _move_to_zero_set(q: QuadForm, cands: Candidates) -> np.ndarray:
    """The points of {q = 0} that the candidates move to.

    Each candidate p moves along the gradient of q at p to the nearer real
    root of q on that line, an exact point of {q = 0}; a candidate whose
    line has no root stays put and counts only if it already lies on the set.
    """
    pts = cands.points
    dirs = gradient_many(q, pts)
    norms = np.linalg.norm(dirs, axis=1, keepdims=True)
    np.divide(dirs, norms, out=dirs, where=norms > 0.0)
    roots = line_roots(q, pts, dirs, 1e-13)
    nearer = np.argmin(np.where(np.isnan(roots), np.inf, np.abs(roots)), axis=1)
    dirs *= np.nan_to_num(roots[np.arange(len(roots)), nearer])[:, None]
    dirs += pts  # the moved points; the candidates are shared between checkers
    moved = dirs[np.abs(evaluate_many(q, dirs)) <= 1e-7 * (1.0 + q.data_scale())]
    moved.setflags(write=False)
    return moved


def _feasible_witness(conds, cands: Candidates) -> Optional[np.ndarray]:
    """First candidate satisfying every (quadform, upper_bound) condition."""
    mask = np.ones(len(cands.points), dtype=bool)
    for q, ub in conds:
        mask &= cands.values(q) <= ub
        if not mask.any():
            return None
    return cands.points[int(np.flatnonzero(mask)[0])].copy()


# ---------------------------------------------------------------------------
# Slater and pencils
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TwoSidedSlater:
    takes_negative: bool
    takes_positive: bool
    negative_point: Optional[np.ndarray] = None
    positive_point: Optional[np.ndarray] = None


@in_workspace
def slater_two_sided(q: QuadForm) -> TwoSidedSlater:
    """Does q take strictly negative / strictly positive values somewhere?"""
    neg, pos = find_negative_point(q), find_negative_point(-q)
    return TwoSidedSlater(
        takes_negative=neg is not None,
        takes_positive=pos is not None,
        negative_point=neg,
        positive_point=pos,
    )


def pencil_psd_search(p: QuadForm, q: QuadForm) -> Optional[float]:
    """A real lambda with lift(p) + lambda*lift(q) PSD, if one exists.

    The feasible multipliers form an interval (:func:`pencil_interval`); the
    point of it nearest zero is returned, which keeps certificates small
    and reproducible.
    """
    iv = pencil_interval(p, q, PSD_RTOL, lifted=True)
    return None if iv is None else min(max(0.0, iv[0]), iv[1])


def _pencil_certificate(p: QuadForm, q: QuadForm) -> Optional[float]:
    """:func:`pencil_psd_search`'s lambda when lift(p) + lambda*lift(q) passes
    :func:`nonneg_everywhere` as well, else None.

    That check reads lift(p)'s decomposition at lambda = 0, and at an end of
    the interval the eigenvalues the interval search found for that matrix
    (:func:`_pencil_interval`); it does not assume the end passed: a root
    next to a passing midpoint can fail.
    """
    iv, lower, upper = _pencil_interval(p, q, PSD_RTOL, lifted=True)
    if iv is None:
        return None
    if iv[1] < 0.0:
        lam, ed = iv[1], upper
    else:
        lam, ed = (iv[0], lower) if iv[0] > 0.0 else (0.0, eig_of(p, lifted=True))
    if ed is None:
        return lam if nonneg_everywhere(p + lam * q) else None
    return lam if _status_of(ed, PSD_RTOL).verdict is not PsdVerdict.INDEFINITE else None


def pencil_psd_search_nonneg(p: QuadForm, q: QuadForm) -> Optional[float]:
    """Like :func:`pencil_psd_search` but restricted to lambda >= 0."""
    iv = pencil_interval(p, q, PSD_RTOL, lifted=True)
    return None if iv is None or iv[1] < 0.0 else max(0.0, iv[0])


# ---------------------------------------------------------------------------
# Separation by an affine pattern
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SeparationCertificate:
    """Certificate that {h=0} splits {g<0} into two sign-opposite parts.

    ``affine_pattern`` holds (c0, c1, ..., cm): the coefficients of the
    second function in the canonical basis of the first, with c1 != 0.
    ``witnesses`` are two points of {g < 0} on which h takes opposite signs.
    """

    change: AffineChange
    affine_pattern: np.ndarray
    restriction_nonneg: PsdStatus
    witnesses: Tuple[np.ndarray, np.ndarray]


def _affine_companion(g: QuadForm, h: QuadForm):
    """``(change, form, cbar)`` when h has an affine pattern in g's canonical basis.

    The pattern: g reduces to ``-y1^2 + delta*(y2^2+..+ym^2) + theta`` (FORM1,
    k = 1) and h is ``c1*y1 + delta*(c2*y2+..+cm*ym) + c0`` there, with
    c1 != 0; ``cbar`` holds (c0, c1, ..., cn).  A coefficient counts as zero
    at ``PSD_RTOL`` times the scale of the companion.  None otherwise.
    """
    if g.is_constant():
        return None
    change, form = canonical_reduce(g)
    if form.tag is not FormTag.FORM1 or form.k != 1:
        return None
    comp = companion_in_basis(h, change)
    zero = PSD_RTOL * comp.data_scale()
    if float(np.abs(comp.A).max(initial=0.0)) > zero:
        return None  # companion is not affine in this basis
    cbar = np.concatenate([[comp.a0], 2.0 * comp.a])
    if abs(cbar[1]) <= zero:
        return None
    last = form.m if form.delta else 1  # with delta = 0, y2..ym drop out too
    if float(np.abs(cbar[last + 1 :]).max(initial=0.0)) > zero:
        return None
    return change, form, cbar


def _restriction_on_hyperplane(coeffs: np.ndarray, delta: int, theta: int, m: int) -> QuadForm:
    """The canonical quadratic restricted to the zero set of the affine pattern.

    Variables are the canonical coordinates 2..m; substituting
    y1 = -(delta*sum(ci/c1*yi) + c0/c1) into the canonical expression gives a
    quadratic whose global nonnegativity is the separation test.
    """
    c0, c1 = coeffs[0], coeffs[1]
    kappa = c0 / c1
    d = max(m - 1, 0)
    if d == 0:
        return QuadForm(np.zeros((1, 1)), np.zeros(1), theta - kappa**2)
    rho = delta * coeffs[2 : m + 1] / c1
    A = delta * np.eye(d) - np.outer(rho, rho)
    a = -kappa * rho
    return QuadForm(A, a, theta - kappa**2)


def detect_separation_by_hyperplane(g: QuadForm, h: QuadForm) -> Optional[SeparationCertificate]:
    """Certificate that {h=0} separates {g<0}, or None.

    Separation happens exactly when (i) ``g`` reduces to
    ``-y1^2 + delta*(y2^2+..+ym^2) + theta`` with theta in {0, 1}, (ii) ``h``
    is affine in that basis with pattern ``c1*y1 + delta*(c2*y2+..) + c0``,
    c1 != 0, and (iii) the restriction of the canonical g to {h = 0} is
    nonnegative everywhere.
    """
    pat = _affine_companion(g, h)
    if pat is None:
        return None
    change, form, cbar = pat
    m = form.m
    restriction = _restriction_on_hyperplane(cbar, form.delta, form.theta, m)
    status = psd_status(lift(restriction))
    if status.verdict is PsdVerdict.INDEFINITE:
        return None
    # Probe the two branches y1 = +-X with the other coordinates at zero.
    y = np.zeros(g.n)
    y[0] = max(2.0, 2.0 * (1.0 + abs(cbar[0] / cbar[1])))
    a_plus, a_minus = change.apply(y), change.apply(-y)
    if not (evaluate(g, a_plus) < 0 and evaluate(g, a_minus) < 0):
        return None  # pragma: no cover - the pattern guarantees both branches
    if not evaluate(h, a_plus) * evaluate(h, a_minus) < 0:
        return None  # pragma: no cover
    pattern = cbar[: m + 1].copy()
    pattern.setflags(write=False)
    return SeparationCertificate(
        change=change,
        affine_pattern=pattern,
        restriction_nonneg=status,
        witnesses=(a_minus, a_plus),
    )


# ---------------------------------------------------------------------------
# Zero-set inclusion
# ---------------------------------------------------------------------------


class InclusionStatus(Enum):
    CERTIFIED_PENCIL = "certified_pencil"
    REFUTED_WITNESS = "refuted_witness"
    VACUOUS = "vacuously_true"
    UNDETERMINED = "undetermined"


@dataclass(frozen=True)
class InclusionVerdict:
    """Outcome of deciding {g = 0} subset of {sign * h <= 0}."""

    status: InclusionStatus
    lam: Optional[float] = None
    witness: Optional[np.ndarray] = None
    note: str = ""

    @property
    def is_true(self) -> bool:
        return self.status in (InclusionStatus.CERTIFIED_PENCIL, InclusionStatus.VACUOUS)

    @property
    def is_false(self) -> bool:
        return self.status is InclusionStatus.REFUTED_WITNESS


def _zero_set_empty(q: QuadForm, tol: float) -> bool:
    """Exact emptiness test for {q = 0}: q strictly one-signed everywhere."""
    cut = tol * (1.0 + q.data_scale())
    return any(m.status == "attained" and m.value > cut for m in map(unconstrained_min, (q, -q)))


@in_workspace
def check_inclusion_zeroset(g: QuadForm, h: QuadForm, sign: int,
                            tol: float = DEFAULT_TOL) -> InclusionVerdict:
    """Decide whether {g = 0} is contained in {sign * h <= 0}.

    Routes, in order: vacuous truth when {g=0} is provably empty; a pencil
    certificate ``-sign*h + lam*g >= 0`` (sufficient unconditionally, and
    also necessary when g takes both signs and {g=0} does not separate
    {sign*h > 0}); a concrete witness on {g=0} violating the inclusion;
    otherwise undetermined, with a note recording whether the exactness
    hypotheses of the pencil route held.
    """
    return _inclusion(g, h, sign, tol, (g, h))


def _inclusion(g: QuadForm, h: QuadForm, sign: int, tol: float, pair,
               witness_search: bool = True) -> InclusionVerdict:
    """:func:`check_inclusion_zeroset`, with its witnesses searched among the
    candidates of ``pair`` (:func:`_candidates`), which the checkers of
    (g, h) pass for the inclusions of (h, g) too, and not searched at all
    without ``witness_search``."""
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    if _zero_set_empty(g, tol):
        return InclusionVerdict(InclusionStatus.VACUOUS, note="{g=0} is empty")
    signed_h = h if sign > 0 else -h
    p = -signed_h
    lam = _pencil_certificate(p, g)
    if lam is not None:
        return InclusionVerdict(InclusionStatus.CERTIFIED_PENCIL, lam=lam)
    if not witness_search:
        return InclusionVerdict(
            InclusionStatus.UNDETERMINED,
            note="witness search skipped (the companion inclusion already settles the disjunct)",
        )
    # A witness: the candidate moved onto {g = 0} where signed_h clears the
    # margin most relative to 1 + |x|^2, which the rounding of both g and h
    # grows with: far points pass only by rounding.
    pts = _candidates(*pair, tol).on_zero_set(g)
    vals = evaluate_many(signed_h, pts)
    clear = vals > tol * (1.0 + h.data_scale())
    if clear.any():
        rel = np.where(clear, vals / (1.0 + np.einsum("ij,ij->i", pts, pts)), -np.inf)
        w = pts[int(np.argmax(rel))].copy()
        return InclusionVerdict(InclusionStatus.REFUTED_WITNESS, witness=w)
    ts = slater_two_sided(g)
    sep = detect_separation_by_hyperplane(signed_h, g)
    hypotheses = ts.takes_negative and ts.takes_positive and sep is None
    note = (
        "no pencil and no witness; pencil route was exact (two-sided Slater for g, "
        "no separation of {sign*h>0} by {g=0}), so the inclusion is presumed false"
        if hypotheses
        else "no pencil and no witness; pencil exactness hypotheses not verified"
    )
    return InclusionVerdict(InclusionStatus.UNDETERMINED, note=note)


# ---------------------------------------------------------------------------
# Assumption checkers
# ---------------------------------------------------------------------------


class Verdict(Enum):
    HOLDS = "holds"
    FAILS = "fails"
    UNDETERMINED = "undetermined"


@dataclass(frozen=True)
class AssumptionVerdict:
    verdict: Verdict
    note: str = ""
    certificate: Optional[dict] = None
    witness: Optional[np.ndarray] = None

    @property
    def holds(self) -> bool:
        return self.verdict is Verdict.HOLDS

    @property
    def fails(self) -> bool:
        return self.verdict is Verdict.FAILS


@in_workspace
def check_assumption4(g: QuadForm, h: QuadForm) -> AssumptionVerdict:
    """Two-sided Slater: each of g, -g, h, -h takes a strictly negative value
    (:func:`slater_two_sided`)."""
    sg, sh = slater_two_sided(g), slater_two_sided(h)
    missing = [name for name, found in (("g", sg.takes_negative), ("-g", sg.takes_positive),
                                        ("h", sh.takes_negative), ("-h", sh.takes_positive))
               if not found]
    if missing:
        return AssumptionVerdict(
            Verdict.FAILS,
            note="functions without a Slater point: " + ", ".join(missing),
            certificate={"missing": tuple(missing)},
        )
    return AssumptionVerdict(Verdict.HOLDS, note="all of g, -g, h, -h take negative values")


def _assumption5_one_orientation(g, h):
    """A5 pattern with g playing the one-variable concave role."""
    pat = _affine_companion(g, h)
    if pat is None:
        return None
    change, form, cbar = pat
    if form.m != 1 or form.theta != 1:
        return None
    c1, c0 = cbar[1], cbar[0]
    if c1 < 0:  # flip y1 for a positive slope; g's -y1^2 + 1 is even in y1
        T = change.T.copy()
        T[:, 0] = -T[:, 0]
        change, c1 = AffineChange(T, change.t, change.s), -c1
    return {"change": change, "c1": float(c1), "c0": float(c0)}


@in_workspace
def check_assumption5(
    g: QuadForm, h: QuadForm, tol: float = DEFAULT_TOL
) -> AssumptionVerdict:
    """Degenerate one-variable pattern: g ~ -y1^2+1 and h ~ c1*y1+c0, c1>0.

    Fails exactly when c0 = +-c1 (within tolerance); holds, possibly as
    "not applicable", otherwise.
    """
    pat = _assumption5_one_orientation(g, h)
    if pat is None:
        return AssumptionVerdict(Verdict.HOLDS, note="pattern not applicable")
    c0, c1 = pat["c0"], pat["c1"]
    scale = tol * (1.0 + abs(c1))
    if abs(c0 - c1) <= scale or abs(c0 + c1) <= scale:
        side = "+1" if abs(c0 - c1) <= scale else "-1"
        return AssumptionVerdict(
            Verdict.FAILS,
            note=f"degenerate pattern with c0 = {side} * c1",
            certificate={"c0": c0, "c1": c1, "sign": 1 if side == "+1" else -1},
        )
    return AssumptionVerdict(
        Verdict.HOLDS,
        note="pattern applicable, c0 differs from both +-c1",
        certificate={"c0": c0, "c1": c1},
    )


@in_workspace
def check_assumption2(g: QuadForm, h: QuadForm, tol: float = DEFAULT_TOL):
    """Mutual one-sidedness of the zero sets.

    Returns ``(verdict, (I1, I2, I3, I4))`` for the four inclusions
    {g=0} in {h<=0}, {g=0} in {h>=0}, {h=0} in {g<=0}, {h=0} in {g>=0}.
    The second of each pair skips its witness search when the first holds,
    which settles the disjunct.
    """
    pair = (g, h)
    i1 = _inclusion(g, h, +1, tol, pair)
    i2 = _inclusion(g, h, -1, tol, pair, witness_search=not i1.is_true)
    i3 = _inclusion(h, g, +1, tol, pair)
    i4 = _inclusion(h, g, -1, tol, pair, witness_search=not i3.is_true)

    def disjunct(a: InclusionVerdict, b: InclusionVerdict):
        if a.is_true or b.is_true:
            return Verdict.HOLDS
        if a.is_false and b.is_false:
            return Verdict.FAILS
        return Verdict.UNDETERMINED

    d1, d2 = disjunct(i1, i2), disjunct(i3, i4)
    if d1 is Verdict.HOLDS and d2 is Verdict.HOLDS:
        verdict = AssumptionVerdict(Verdict.HOLDS, note="both zero sets are one-sided")
    elif d1 is Verdict.FAILS or d2 is Verdict.FAILS:
        which = "{g=0}" if d1 is Verdict.FAILS else "{h=0}"
        verdict = AssumptionVerdict(
            Verdict.FAILS, note=f"{which} meets both strict sides of the other function"
        )
    else:
        verdict = AssumptionVerdict(Verdict.UNDETERMINED, note="some inclusion undetermined")
    return verdict, (i1, i2, i3, i4)


@in_workspace
def check_assumption3(g: QuadForm, h: QuadForm, tol: float = DEFAULT_TOL) -> AssumptionVerdict:
    """Non-triviality: g, h nonconstant; D nonempty; D != {g<=0}; D != {h<=0}.

    From the pair's exact solves (:class:`Candidates`): without a feasible
    candidate, D is empty when min g subject to h <= 0 is positive, nonempty
    when it is attained (the witness), unbounded or below 0; D != {p<=0} when
    min -q subject to p <= 0 is negative, else a pencil may certify D = {p<=0}.
    """
    for q, name, other in ((g, "g", "h"), (h, "h", "g")):
        if not q.is_constant():
            continue
        if q.a0 <= tol:
            return AssumptionVerdict(
                Verdict.FAILS,
                note=f"{name} is constant and redundant, D = {{{other}<=0}}",
                certificate={"case": "redundant", "which": other},
            )
        return AssumptionVerdict(
            Verdict.FAILS,
            note=f"{name} is a positive constant, D is empty",
            certificate={"case": "infeasible"},
        )

    gs, hs = g.data_scale(), h.data_scale()
    cands = _candidates(g, h, tol)
    feas = _feasible_witness([(g, tol * (1 + gs)), (h, tol * (1 + hs))], cands)
    if feas is None:
        r = cands.min_g
        if r.status == "infeasible" or (r.value is not None and r.value > tol * (1 + gs)):
            return AssumptionVerdict(
                Verdict.FAILS, note="feasible set is empty", certificate={"case": "infeasible"}
            )
        if r.status == "attained":
            feas = r.x
        elif r.status != "unbounded_below" and r.value >= -tol * (1 + gs):
            # An infimum near 0 that is not attained shows no point of D.
            return AssumptionVerdict(
                Verdict.UNDETERMINED, note="could not produce a feasible point"
            )

    for first, second, label, r in ((g, h, "g", cands.max_h), (h, g, "h", cands.max_g)):
        if r.status == "unbounded_below" or (
            r.value is not None and r.value < -tol * (1 + second.data_scale())
        ):
            continue
        lam = pencil_psd_search_nonneg(-second, first)
        if lam is not None:
            return AssumptionVerdict(
                Verdict.FAILS,
                note=f"constraint {'h' if label == 'g' else 'g'} is redundant, D = {{{label}<=0}}",
                certificate={"case": "redundant", "which": label, "lam": lam},
            )
        return AssumptionVerdict(
            Verdict.UNDETERMINED,
            note=f"could not decide whether D = {{{label}<=0}}",
        )
    return AssumptionVerdict(
        Verdict.HOLDS, note="nonempty, both constraints active somewhere", witness=feas
    )


@in_workspace
def check_assumption1(g: QuadForm, h: QuadForm, tol: float = DEFAULT_TOL) -> AssumptionVerdict:
    """If D collapses onto one zero set, it must be that whole zero set.

    Certified through, in order: a strict interior point (both premises
    false); structural redundancy (D equals one sublevel set); the exact
    subproblem min{g : h <= 0} whose zero value identifies D inside {g=0},
    followed by assumption 2's inclusion of {g=0} in {h<=0}: true means
    D = {g=0}; its witness, a point of {g=0} outside D, refutes the assumption.
    """
    gs, hs = 1.0 + g.data_scale(), 1.0 + h.data_scale()
    cands = _candidates(g, h, tol)
    interior = _feasible_witness([(g, -tol * gs), (h, -tol * hs)], cands)
    if interior is not None:
        return AssumptionVerdict(
            Verdict.HOLDS, note="strict interior point", witness=interior
        )
    if h.is_constant() and h.a0 <= 0 or g.is_constant() and g.a0 <= 0:
        return AssumptionVerdict(Verdict.HOLDS, note="one constraint is a nonpositive constant")

    for first, second, label, r in ((g, h, "g", cands.min_g), (h, g, "h", cands.min_h)):
        if r.status in ("infeasible", "unbounded_below"):
            continue
        if abs(r.value) > tol * (1 + first.data_scale()):
            continue  # D is empty (assumption 3's business) or meets {first < 0}
        # D sits inside {first = 0}, and equals it exactly when {first = 0}
        # lies in {second <= 0}: assumption 2's inclusion decides.
        incl = _inclusion(first, second, +1, tol, (g, h))
        if incl.is_false:
            return AssumptionVerdict(
                Verdict.FAILS,
                note=f"D is contained in {{{label}=0}} but misses part of it",
                witness=incl.witness,
                certificate={"collapsed_on": label},
            )
        if not incl.is_true:
            return AssumptionVerdict(
                Verdict.UNDETERMINED,
                note=f"D appears to be contained in {{{label}=0}}; equality undecided",
            )
    return AssumptionVerdict(Verdict.HOLDS, note="no collapse of D onto either zero set")


# ---------------------------------------------------------------------------
# Overall classification
# ---------------------------------------------------------------------------


class ArrangementClass(Enum):
    INFEASIBLE = "infeasible"
    REDUCES_TO_QP1QC = "reduces_to_qp1qc"
    AFFINE_PAIR_REDUCTION = "affine_pair_reduction"
    ASSUMPTION5_DEGENERATE = "assumption5_degenerate"
    NON_ALTER = "non_alter"
    OUTSIDE_NON_ALTER = "outside_non_alter"
    UNDETERMINED = "undetermined"


@dataclass(frozen=True)
class ArrangementReport:
    """Assumption verdicts, the solver pathway class, and membership.

    ``overall_class`` is undetermined when the verdicts contradict each
    other, else the case of the dispatch ledger that fires first in the
    order 3, 4, 5, affine pair, 2, 1.  ``in_nonalter`` records class
    membership itself, which is decided by assumptions 1 and 2 alone; an
    instance can be a member while still being solved through a reduction
    (for example when one constraint is redundant).
    """

    a1: AssumptionVerdict
    a2: AssumptionVerdict
    a3: AssumptionVerdict
    a4: AssumptionVerdict
    a5: AssumptionVerdict
    inclusions: Tuple[InclusionVerdict, InclusionVerdict, InclusionVerdict, InclusionVerdict]
    overall_class: ArrangementClass
    in_nonalter: Verdict
    reduction_hint: Optional[dict] = None
    notes: Tuple[str, ...] = ()

    def assumption(self, k: int) -> AssumptionVerdict:
        return (self.a1, self.a2, self.a3, self.a4, self.a5)[k - 1]


def _affine_pair_case(g: QuadForm, h: QuadForm, tol: float):
    """Parallel affine pair reduction; None when not both affine or not parallel."""
    if not (g.is_affine() and h.is_affine()) or g.is_constant() or h.is_constant():
        return None
    b, c = g.a, h.a
    bn, cn = np.linalg.norm(b), np.linalg.norm(c)
    cross = np.outer(b, c) - np.outer(c, b)
    if float(np.abs(cross).max(initial=0.0)) > tol * max(bn * cn, 1e-300):
        return None  # not parallel: the zero hyperplanes cross
    t = float((c @ b) / (b @ b))
    if abs(t) * bn <= tol * max(cn, 1e-300):
        return None  # pragma: no cover - h constant, caught earlier
    return {"t": t, "b": b, "b0": g.a0, "c0": h.a0}


def _contradiction(g: QuadForm, h: QuadForm, a1: AssumptionVerdict, a3: AssumptionVerdict,
                   a4: AssumptionVerdict, tol: float) -> Optional[str]:
    """A note naming two verdicts that contradict each other, or None.

    Each function q that assumption 4 reports never negative is checked
    against the witnesses of assumptions 1 and 3, and, for -g and -h,
    against assumption 3 holding: -g >= 0 everywhere makes {g <= 0} the
    whole space, so D = {h <= 0} and h alone would be active.  A witness w
    refutes q >= 0 when q is clearly negative, below -tol in units of 1 +
    its data scale, at w or at the minimum of q on the line from w along
    -grad q(w): where q >= 0 and q(w) = 0, w is a minimizer of q, with a
    zero gradient."""
    if not a4.fails:
        return None
    signed = {"g": g, "-g": -g, "h": h, "-h": -h}
    for name in (a4.certificate or {}).get("missing", ()):
        q = signed[name]
        for k, a in ((1, a1), (3, a3)):
            if a.witness is not None and _refutes_nonnegative(q, a.witness, tol * (1.0 + q.data_scale())):
                return (f"assumption 4 reports {name} never negative, but {name} is negative "
                        f"at or near the witness of assumption {k}: contradictory verdicts")
        if name[0] == "-" and a3.holds:
            return (f"assumption 4 reports {name} never negative, but assumption 3 holds "
                    "with both constraints active: contradictory verdicts")
    return None


def _refutes_nonnegative(q: QuadForm, w: np.ndarray, cut: float) -> bool:
    """True when q is below -cut at w or at the minimum of q on the line from
    w along -grad q(w) (:func:`_contradiction`)."""
    d = -(q.A @ w + q.a)
    curv = float(d @ q.A @ d)
    pts = (w, w + (float(d @ d) / curv) * d) if curv > 0.0 else (w,)
    return min(evaluate(q, p) for p in pts) < -cut


@in_workspace
def classify_problem(g: QuadForm, h: QuadForm, tol: float = DEFAULT_TOL) -> ArrangementReport:
    """Run every assumption checker and dispatch to an arrangement class.

    Checkers run in the order 3, 4, 5, 2, 1 so that each early exit carries a
    constructive reduction; all five verdicts are always computed so that the
    report is complete.  Verdicts that contradict each other
    (:func:`_contradiction`) make the class undetermined before any dispatch.
    """
    notes = []
    a3 = check_assumption3(g, h, tol)
    a4 = check_assumption4(g, h)
    a5_gh, a5_hg = check_assumption5(g, h, tol), check_assumption5(h, g, tol)
    a5 = a5_gh if a5_gh.fails or not a5_hg.fails else a5_hg
    a2, inclusions = check_assumption2(g, h, tol)
    a1 = check_assumption1(g, h, tol)

    if a1.holds and a2.holds:
        membership = Verdict.HOLDS
    elif a1.fails or a2.fails:
        membership = Verdict.FAILS
    else:
        membership = Verdict.UNDETERMINED

    overall = None
    hint = None
    conflict = _contradiction(g, h, a1, a3, a4, tol)

    if conflict is not None:
        overall = ArrangementClass.UNDETERMINED
        notes.append(conflict)
    elif a3.fails:
        case = (a3.certificate or {}).get("case")
        if case == "infeasible":
            overall = ArrangementClass.INFEASIBLE
        else:
            which = (a3.certificate or {}).get("which", "g")
            overall = ArrangementClass.REDUCES_TO_QP1QC
            hint = {"kind": "single_constraint", "which": which}
            notes.append(f"assumption 3 fails: solve min f subject to {which} <= 0")
    elif a3.verdict is Verdict.UNDETERMINED:
        overall = ArrangementClass.UNDETERMINED
        notes.append("assumption 3 undetermined")
    elif a4.fails:
        # Assumption 3 holds here, so a never negative -g or -h was a
        # contradiction: only g and h are left, and a never negative one
        # pins the feasible set to an affine subspace.
        flat = tuple((a4.certificate or {}).get("missing", ()))
        overall = ArrangementClass.REDUCES_TO_QP1QC
        hint = {"kind": "subspace", "flat": flat}
        notes.append(
            "assumption 4 fails: "
            + " and ".join(flat)
            + " never negative, feasible set restricted to an affine subspace"
        )
    elif a5.fails:
        sign = (a5.certificate or {}).get("sign", 1)
        role, pair = ("g", (g, h)) if a5 is a5_gh else ("h", (h, g))
        if sign > 0:
            # Reached where c0 is within tolerance of c1 but assumption 3
            # still finds both constraints active, as for g = 1 - x^2 and
            # h = x + 1 - 1.5e-8 at tol 1e-8.
            overall = ArrangementClass.REDUCES_TO_QP1QC
            hint = {"kind": "single_constraint", "which": "h" if role == "g" else "g"}
            notes.append("assumption 5 fails with c0 = c1: halfspace constraint only")
        else:
            overall = ArrangementClass.ASSUMPTION5_DEGENERATE
            hint = {"kind": "halfspace_union_hyperplane", "pattern_role": role,
                    "pattern": _assumption5_one_orientation(*pair)}
            notes.append(
                "assumption 5 fails with c0 = -c1: halfspace plus an isolated hyperplane"
            )
    else:
        pair = _affine_pair_case(g, h, tol)
        if pair is not None:
            overall = ArrangementClass.AFFINE_PAIR_REDUCTION
            hint = {"kind": "product_constraint", **pair}
            notes.append("both constraints affine and parallel: product-constraint reduction")
        elif a2.holds and a1.holds:
            overall = ArrangementClass.NON_ALTER
        elif a2.fails or a1.fails:
            overall = ArrangementClass.OUTSIDE_NON_ALTER
            which = "2" if a2.fails else "1"
            notes.append(f"assumption {which} refuted; no certified method applies")
        else:
            overall = ArrangementClass.UNDETERMINED
            notes.append("assumptions 1/2 undetermined")

    return ArrangementReport(
        a1=a1,
        a2=a2,
        a3=a3,
        a4=a4,
        a5=a5,
        inclusions=inclusions,
        overall_class=overall,
        in_nonalter=membership,
        reduction_hint=hint,
        notes=tuple(notes),
    )
