"""Reduction of one quadratic to a canonical shape under an affine change.

Every nonconstant quadratic ``g`` can be written, after an invertible affine
substitution ``x = T y + t`` and a positive rescaling ``s``, in exactly one
of five shapes:

    Form1:  -y_1^2 - ... - y_k^2 + delta*(y_{k+1}^2 + ... + y_m^2) + theta
    Form2:  same leading blocks with constant -1
    Form3:  same leading blocks with a trailing + y_{m+1}   (m < n)
    Form4:   y_1^2 + ... + y_m^2 + eta*y_{m+1} + c'
    Form5:   eta*y_1 + c'

with delta, theta, eta in {0, 1} and k >= 1 in Forms 1-3.  The reduction is
deterministic: eigenvalues are ordered with the negative block first, the
constant is normalized by its absolute value when nonzero, and a surviving
kernel linear term is rotated onto a single coordinate and used to absorb
the constant.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from .quad_core import (
    RANK_RTOL,
    QuadForm,
    eig_of,
    evaluate,
    restrict_affine,
)


class FormTag(Enum):
    FORM1 = "form1"
    FORM2 = "form2"
    FORM3 = "form3"
    FORM4 = "form4"
    FORM5 = "form5"


@dataclass(frozen=True)
class AffineChange:
    """Invertible substitution x = T y + t together with the scale s > 0.

    The contract is ``s * g(T y + t) == canonical_expression(y)``.
    """

    T: np.ndarray
    t: np.ndarray
    s: float

    def __post_init__(self):
        T = np.array(self.T, dtype=float)
        t = np.array(self.t, dtype=float)
        if T.ndim != 2 or T.shape[0] != T.shape[1]:
            raise ValueError("T must be square")
        if t.shape != (T.shape[0],):
            raise ValueError("shift has wrong length")
        if not self.s > 0:
            raise ValueError("scale must be positive")
        sv = np.linalg.svd(T, compute_uv=False)
        if sv[-1] <= 1e-10 * max(sv[0], 1e-300):
            raise ValueError("T is numerically singular")
        T.setflags(write=False)
        t.setflags(write=False)
        object.__setattr__(self, "T", T)
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "s", float(self.s))

    @property
    def n(self) -> int:
        return self.T.shape[0]

    def apply(self, y) -> np.ndarray:
        """Map canonical coordinates y to original coordinates x."""
        return self.T @ np.asarray(y, dtype=float) + self.t

    def coordinates(self, x) -> np.ndarray:
        """Map original coordinates x to canonical coordinates y."""
        return np.linalg.solve(self.T, np.asarray(x, dtype=float) - self.t)

    def pull(self, q: QuadForm) -> QuadForm:
        """The quadratic y -> q(T y + t), without the scale s."""
        return restrict_affine(q, self.t, self.T)


@dataclass(frozen=True)
class CanonicalForm:
    tag: FormTag
    k: int = 0
    m: int = 0
    delta: int = 0
    theta: int = 0
    eta: int = 0
    cprime: float = 0.0
    affine_coeffs: Optional[np.ndarray] = None
    condition_warning: Optional[str] = None

    def __post_init__(self):
        if self.tag in (FormTag.FORM1, FormTag.FORM2, FormTag.FORM3):
            if not (1 <= self.k <= self.m):
                raise ValueError("Forms 1-3 need 1 <= k <= m")
        if self.delta not in (0, 1) or self.theta not in (0, 1) or self.eta not in (0, 1):
            raise ValueError("delta, theta, eta must be 0 or 1")


def canonical_expression_value(form: CanonicalForm, y) -> float:
    """Evaluate the canonical expression at canonical coordinates y."""
    y = np.asarray(y, dtype=float)
    k, m = form.k, form.m
    if form.tag is FormTag.FORM5:
        return float(form.eta * y[0] + form.cprime)
    if form.tag is FormTag.FORM4:
        val = float(np.sum(y[:m] ** 2)) + form.cprime
        if form.eta:
            val += float(y[m])
        return val
    val = -float(np.sum(y[:k] ** 2))
    if form.delta:
        val += float(np.sum(y[k:m] ** 2))
    if form.tag is FormTag.FORM1:
        return val + form.theta
    if form.tag is FormTag.FORM2:
        return val - 1.0
    return val + float(y[m])  # FORM3


def canonical_to_quadform(form: CanonicalForm, n: int) -> QuadForm:
    """The canonical expression itself as a QuadForm on R^n (for testing)."""
    A = np.zeros((n, n))
    a = np.zeros(n)
    a0 = 0.0
    k, m = form.k, form.m
    if form.tag is FormTag.FORM5:
        a[0] = form.eta / 2.0
        a0 = form.cprime
    elif form.tag is FormTag.FORM4:
        A[np.arange(m), np.arange(m)] = 1.0
        if form.eta:
            a[m] = 0.5
        a0 = form.cprime
    else:
        A[np.arange(k), np.arange(k)] = -1.0
        if form.delta:
            A[np.arange(k, m), np.arange(k, m)] = 1.0
        if form.tag is FormTag.FORM1:
            a0 = float(form.theta)
        elif form.tag is FormTag.FORM2:
            a0 = -1.0
        else:
            a[m] = 0.5
    return QuadForm(A, a, a0)


def _householder_with_first_column(u: np.ndarray) -> np.ndarray:
    """Orthogonal matrix whose first column is the unit vector u."""
    d = u.size
    v = u.copy()
    v[0] -= 1.0
    vv = float(v @ v)
    if vv < 1e-24:
        return np.eye(d)
    return np.eye(d) - 2.0 * np.outer(v, v) / vv


def canonical_reduce(g: QuadForm):
    """Reduce ``g`` to its canonical shape.

    Returns ``(change, form)`` with ``change.s * g(change.apply(y))`` equal
    to ``canonical_expression_value(form, y)`` for all y.  Raises
    ``ValueError`` on a constant input.
    """
    if g.is_constant():
        raise ValueError("cannot reduce a constant quadratic")
    n = g.n
    ed = eig_of(g)
    lam, V = ed.values, ed.vectors
    gscale = max(
        float(np.abs(lam).max(initial=0.0)),
        float(np.linalg.norm(g.a)),
        abs(g.a0),
        1e-300,
    )
    thr = RANK_RTOL * gscale
    warnings = []
    borderline = (np.abs(lam) > thr) & (np.abs(lam) < 10.0 * thr)
    if borderline.any():
        warnings.append(
            "eigenvalues of the quadratic part lie within 10x of the rank cutoff"
        )

    neg_idx = np.flatnonzero(lam < -thr)
    pos_idx = np.flatnonzero(lam > thr)
    zero_idx = np.flatnonzero(np.abs(lam) <= thr)
    k, p = len(neg_idx), len(pos_idx)
    r = k + p

    if r == 0:
        # Affine function: rotate the gradient onto the first coordinate.
        bnorm = float(np.linalg.norm(g.a))
        if bnorm <= thr:
            raise ValueError("cannot reduce a constant quadratic")
        u = g.a / bnorm
        U = _householder_with_first_column(u)
        if abs(g.a0) <= thr:
            s, cprime = 1.0, 0.0
        else:
            s, cprime = 1.0 / abs(g.a0), float(np.sign(g.a0))
        D = np.ones(n)
        D[0] = 1.0 / (2.0 * s * bnorm)
        change = AffineChange(U * D, np.zeros(n), s)
        form = CanonicalForm(
            tag=FormTag.FORM5,
            m=0,
            eta=1,
            cprime=cprime,
            condition_warning="; ".join(warnings) or None,
        )
        return change, form

    order = np.concatenate([neg_idx, pos_idx, zero_idx]).astype(int)
    lam_o = lam[order]
    V_o = V[:, order]
    V_range = V_o[:, :r]
    lam_range = lam_o[:r]
    V_kernel = V_o[:, r:]

    # Complete the square along the range directions.
    beta = V_range.T @ g.a
    center = V_range @ (-beta / lam_range)
    c = evaluate(g, center)
    if 0.0 < abs(c) < 10.0 * thr:
        warnings.append("completed-square constant lies within 10x of the zero cutoff")

    # Linear remainder in the kernel directions.
    w = V_kernel.T @ g.a if V_kernel.shape[1] else np.zeros(0)
    wnorm = float(np.linalg.norm(w))
    has_linear = wnorm > thr

    if k == 0:
        tag = FormTag.FORM4
        delta = theta = 0
        m = p
        if has_linear:
            eta, s, cprime = 1, 1.0, 0.0
        elif abs(c) <= thr:
            eta, s, cprime = 0, 1.0, 0.0
        else:
            eta, s, cprime = 0, 1.0 / abs(c), float(np.sign(c))
    else:
        delta = 1 if p else 0
        m = r if p else k
        eta = 0
        if has_linear:
            tag, theta, s, cprime = FormTag.FORM3, 0, 1.0, 0.0
        elif abs(c) <= thr:
            tag, theta, s, cprime = FormTag.FORM1, 0, 1.0, 0.0
        elif c > 0:
            tag, theta, s, cprime = FormTag.FORM1, 1, 1.0 / c, 0.0
        else:
            tag, theta, s, cprime = FormTag.FORM2, 0, 1.0 / abs(c), 0.0

    # Assemble T column by column: scaled range block, then the kernel block
    # rotated so a surviving linear term lives on the first kernel coordinate.
    cols = [V_range * (1.0 / np.sqrt(s * np.abs(lam_range)))]
    if V_kernel.shape[1]:
        if has_linear:
            Q = _householder_with_first_column(w / wnorm)
            K = V_kernel @ Q
            scales = np.ones(K.shape[1])
            scales[0] = 1.0 / (2.0 * s * wnorm)
            K = K * scales
        else:
            K = V_kernel.copy()
        cols.append(K)
    T = np.hstack(cols)
    t = center
    if has_linear and abs(c) > 0.0:
        t = t - (s * c) * T[:, r]

    change = AffineChange(T, t, s)
    form = CanonicalForm(
        tag=tag,
        k=k,
        m=m,
        delta=delta,
        theta=theta,
        eta=eta,
        cprime=cprime,
        condition_warning="; ".join(warnings) or None,
    )
    return change, form


def companion_in_basis(h: QuadForm, change: AffineChange) -> QuadForm:
    """Express a second quadratic in the basis of a reduction.

    Returns ``y -> h(T y + t)``; the scale ``s`` is deliberately not
    applied, since sign-sensitive uses normalize separately.
    """
    return change.pull(h)
