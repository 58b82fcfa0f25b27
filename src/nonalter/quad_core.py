"""Symmetric linear algebra and quadratic-function primitives.

A quadratic function is always written ``q(x) = x'Ax + 2a'x + a0`` (note the
factor 2 on the linear term).  Its lift is the symmetric (n+1)x(n+1) matrix

    M(q) = [[a0, a'],
            [a,  A ]]

with the homogenizing coordinate first, so that ``[1; x]' M(q) [1; x] = q(x)``
and ``q >= 0`` everywhere exactly when ``M(q)`` is positive semidefinite.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

#: Relative cutoff below which eigenvalues / singular values count as zero.
RANK_RTOL = 1e-10
#: Default relative tolerance for semidefiniteness verdicts.
PSD_RTOL = 1e-9
#: Relative residual for range-membership tests (v in range(Q)).
RANGE_RTOL = 1e-8
#: Default solver tolerance for residual checks.
DEFAULT_TOL = 1e-8


class DimensionError(ValueError):
    """Raised when vector/matrix dimensions are inconsistent."""


def _to_matrix(A) -> np.ndarray:
    A = np.array(A, dtype=float)
    if A.ndim == 0:
        A = A.reshape(1, 1)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise ValueError("matrix entries must be finite")
    return A


def _to_vector(a, n: int) -> np.ndarray:
    a = np.atleast_1d(np.array(a, dtype=float))
    if a.shape != (n,):
        raise DimensionError(f"expected a vector of length {n}, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("vector entries must be finite")
    return a


@dataclass(frozen=True)
class QuadForm:
    """One quadratic function q(x) = x'Ax + 2a'x + a0 on R^n.

    ``A`` is symmetrized exactly on construction; all data is immutable.
    """

    A: np.ndarray
    a: np.ndarray
    a0: float

    def __post_init__(self):
        A = _to_matrix(self.A)
        a = _to_vector(self.a, A.shape[0])
        a0 = float(self.a0)
        if not np.isfinite(a0):
            raise ValueError("constant term must be finite")
        A = (A + A.T) / 2.0
        A.setflags(write=False)
        a.setflags(write=False)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "a0", a0)

    @property
    def n(self) -> int:
        return self.A.shape[0]

    def __call__(self, x) -> float:
        return evaluate(self, x)

    # Small algebra so pencils read naturally: f + lam * g, -g, g - 1.
    def __add__(self, other):
        if isinstance(other, QuadForm):
            if other.n != self.n:
                raise DimensionError("dimension mismatch in quadratic sum")
            return QuadForm(self.A + other.A, self.a + other.a, self.a0 + other.a0)
        return QuadForm(self.A, self.a, self.a0 + float(other))

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-1.0) * other if isinstance(other, QuadForm) else self + (-float(other))

    def __mul__(self, c):
        c = float(c)
        return QuadForm(c * self.A, c * self.a, c * self.a0)

    __rmul__ = __mul__

    def __neg__(self):
        return (-1.0) * self

    def is_constant(self) -> bool:
        """Exact constancy check (zero quadratic and linear coefficients)."""
        return not self.A.any() and not self.a.any()

    def is_affine(self, rtol: float = RANK_RTOL) -> bool:
        scale = self.data_scale()
        return float(np.abs(self.A).max(initial=0.0)) <= rtol * scale

    def data_scale(self) -> float:
        """Magnitude of the coefficient data, used for relative tolerances."""
        return max(
            float(np.abs(self.A).max(initial=0.0)),
            float(np.abs(self.a).max(initial=0.0)),
            abs(self.a0),
            1e-300,
        )

    @staticmethod
    def constant(n: int, c: float) -> "QuadForm":
        return QuadForm(np.zeros((n, n)), np.zeros(n), float(c))

    @staticmethod
    def zero(n: int) -> "QuadForm":
        return QuadForm.constant(n, 0.0)


def evaluate(q: QuadForm, x) -> float:
    """q(x) = x'Ax + 2a'x + a0 for a single point."""
    x = _to_vector(x, q.n)
    return float(x @ q.A @ x + 2.0 * (q.a @ x) + q.a0)


def evaluate_many(q: QuadForm, pts: np.ndarray) -> np.ndarray:
    """Vectorized evaluation over rows of ``pts`` (shape (N, n))."""
    pts = np.asarray(pts, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != q.n:
        raise DimensionError(f"expected points of shape (N, {q.n})")
    return ((pts @ q.A) * pts).sum(axis=1) + 2.0 * (pts @ q.a) + q.a0


def gradient(q: QuadForm, x) -> np.ndarray:
    x = _to_vector(x, q.n)
    return 2.0 * (q.A @ x + q.a)


def gradient_many(q: QuadForm, pts: np.ndarray) -> np.ndarray:
    return 2.0 * (pts @ q.A + q.a)


def lift(q: QuadForm) -> np.ndarray:
    """The symmetric (n+1)x(n+1) homogenization of ``q``."""
    n = q.n
    M = np.empty((n + 1, n + 1))
    M[0, 0] = q.a0
    M[0, 1:] = q.a
    M[1:, 0] = q.a
    M[1:, 1:] = q.A
    M.setflags(write=False)
    return M


def from_lift(M: np.ndarray) -> QuadForm:
    """Inverse of :func:`lift`."""
    M = _to_matrix(M)
    M = (M + M.T) / 2.0
    return QuadForm(M[1:, 1:], M[1:, 0], M[0, 0])


@dataclass(frozen=True)
class EigenDecomp:
    """Eigenvalues ascending, orthonormal eigenvectors as columns."""

    values: np.ndarray
    vectors: np.ndarray


def sym_eigen(M) -> EigenDecomp:
    """Full symmetric eigendecomposition; raises on LAPACK non-convergence."""
    M = _to_matrix(M)
    M = (M + M.T) / 2.0
    try:
        values, vectors = np.linalg.eigh(M)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise np.linalg.LinAlgError(
            f"symmetric eigendecomposition did not converge for shape {M.shape}: {exc}"
        ) from exc
    values.setflags(write=False)
    vectors.setflags(write=False)
    return EigenDecomp(values, vectors)


class PsdVerdict(Enum):
    POSITIVE_DEFINITE = "positive_definite"
    PSD_SINGULAR = "psd_singular"
    INDEFINITE = "indefinite"


@dataclass(frozen=True)
class PsdStatus:
    min_eig: float
    verdict: PsdVerdict


def psd_status(M, tol: float = PSD_RTOL) -> PsdStatus:
    """Classify a symmetric matrix by its smallest eigenvalue.

    The verdict uses the relative margin ``tol * (1 + ||M||_2)``: strictly
    below it is indefinite, strictly above it positive definite, otherwise
    semidefinite-singular.
    """
    ed = sym_eigen(M)
    min_eig = float(ed.values[0])
    norm2 = float(np.abs(ed.values).max(initial=0.0))
    margin = tol * (1.0 + norm2)
    if min_eig < -margin:
        verdict = PsdVerdict.INDEFINITE
    elif min_eig > margin:
        verdict = PsdVerdict.POSITIVE_DEFINITE
    else:
        verdict = PsdVerdict.PSD_SINGULAR
    return PsdStatus(min_eig=min_eig, verdict=verdict)


def nonneg_everywhere(q: QuadForm, tol: float = PSD_RTOL) -> bool:
    """True iff q(x) >= 0 for all x, decided through the lifted matrix."""
    return psd_status(lift(q), tol).verdict is not PsdVerdict.INDEFINITE


def find_negative_point(q: QuadForm, tol: float = PSD_RTOL) -> Optional[np.ndarray]:
    """A concrete x with q(x) < 0, built from a negative lift eigenvector.

    Returns None when ``q`` is nonnegative everywhere.
    """
    ed = sym_eigen(lift(q))
    if psd_status(lift(q), tol).verdict is not PsdVerdict.INDEFINITE:
        return None
    v = ed.vectors[:, 0]
    w0, wbar = v[0], v[1:]
    if abs(w0) > 1e-12:
        x = wbar / w0
        if evaluate(q, x) < 0.0:
            return x
    # Homogeneous direction: q(t * wbar) has negative leading coefficient.
    t = 1.0
    for _ in range(200):
        x = t * wbar
        if evaluate(q, x) < 0.0:
            return x
        t *= 2.0
    return None  # pragma: no cover - indefinite lift always yields a witness


def _zero_mask(values: np.ndarray, rtol: float, scale: Optional[float] = None) -> np.ndarray:
    ref = float(np.abs(values).max(initial=0.0)) if scale is None else scale
    return np.abs(values) <= rtol * ref


def pseudo_inverse(M, rtol: float = RANK_RTOL) -> np.ndarray:
    """Moore-Penrose inverse of a symmetric matrix via eigendecomposition.

    Eigenvalues below ``rtol`` times the largest magnitude are treated as
    exact zeros, matching the package-wide rank threshold.
    """
    ed = sym_eigen(M)
    zero = _zero_mask(ed.values, rtol)
    inv = np.divide(1.0, ed.values, out=np.zeros_like(ed.values), where=~zero)
    return (ed.vectors * inv) @ ed.vectors.T


def null_basis(M, rtol: float = RANK_RTOL) -> np.ndarray:
    """Orthonormal columns spanning the kernel (shape (n, m), possibly m=0)."""
    ed = sym_eigen(M)
    zero = _zero_mask(ed.values, rtol)
    return ed.vectors[:, zero].copy()


def restrict_affine(q: QuadForm, x0, N) -> QuadForm:
    """The pullback qbar(y) = q(x0 + N y) for a full-column-rank map N."""
    x0 = _to_vector(x0, q.n)
    N = np.array(N, dtype=float)
    if N.ndim == 1:
        N = N.reshape(-1, 1)
    if N.shape[0] != q.n:
        raise DimensionError(f"map must have {q.n} rows, got {N.shape}")
    m = N.shape[1]
    if m == 0:
        raise DimensionError("map must have at least one column")
    sv = np.linalg.svd(N, compute_uv=False)
    if sv[-1] <= RANK_RTOL * max(sv[0], 1e-300):
        raise ValueError("affine restriction map is rank deficient")
    Abar = N.T @ q.A @ N
    abar = N.T @ (q.A @ x0 + q.a)
    a0bar = evaluate(q, x0)
    return QuadForm(Abar, abar, a0bar)


#: Relative PSD margin for closed-form quadratic infima.  Much tighter than
#: the verdict tolerance: the same cutoff must decide both "Q is PSD" and
#: "this eigenvalue is zero for the pseudo-inverse", otherwise eigenvalues
#: in the gap get inverted and produce huge spurious values.
INF_PSD_RTOL = 1e-12


def quad_inf_closed_form(Q: np.ndarray, v: np.ndarray, s: float,
                         psd_rtol: float = INF_PSD_RTOL) -> float:
    """inf_x [x'Qx + 2v'x + s] = s - v'Q^+v when Q is PSD and v in range(Q).

    Returns -inf when Q has an eigenvalue below the margin or the linear
    term escapes along the kernel.  Q must already be symmetric; this runs
    in every inner loop of the dual solvers, so no validation happens here.
    """
    values, vectors = np.linalg.eigh(Q)
    norm2 = float(np.abs(values).max(initial=0.0))
    margin = psd_rtol * (1.0 + norm2)
    if values[0] < -margin:
        return -np.inf
    zero = values <= margin
    coeffs = vectors.T @ v
    if zero.any():
        resid = float(np.linalg.norm(coeffs[zero]))
        if resid > RANGE_RTOL * (1.0 + float(np.linalg.norm(v))):
            return -np.inf
    inv = np.divide(1.0, values, out=np.zeros_like(values), where=~zero)
    return float(s - coeffs @ (inv * coeffs))


@dataclass(frozen=True)
class UnconstrainedMin:
    """Outcome of minimizing one quadratic over all of R^n."""

    status: str  # "attained" | "unbounded_below"
    value: float  # -inf when unbounded
    x: Optional[np.ndarray] = None
    direction: Optional[np.ndarray] = None
    kind: Optional[str] = None  # "negative_curvature" | "affine" for unbounded


def unconstrained_min(q: QuadForm, rtol: float = RANK_RTOL) -> UnconstrainedMin:
    """Global infimum of q over R^n, with minimizer or escape direction."""
    ed = sym_eigen(q.A)
    scale = max(
        float(np.abs(ed.values).max(initial=0.0)),
        float(np.linalg.norm(q.a)),
        1e-300,
    )
    thr = rtol * scale
    if ed.values[0] < -thr:
        return UnconstrainedMin(
            status="unbounded_below",
            value=-np.inf,
            direction=ed.vectors[:, 0].copy(),
            kind="negative_curvature",
        )
    zero = np.abs(ed.values) <= thr
    K = ed.vectors[:, zero]
    if K.shape[1]:
        w = K.T @ q.a
        if np.linalg.norm(w) > thr:
            d = -K @ (w / np.linalg.norm(w))
            return UnconstrainedMin(
                status="unbounded_below", value=-np.inf, direction=d, kind="affine"
            )
    inv = np.divide(1.0, ed.values, out=np.zeros_like(ed.values), where=~zero)
    x = -(ed.vectors * inv) @ (ed.vectors.T @ q.a)
    return UnconstrainedMin(status="attained", value=evaluate(q, x), x=x)


def escape_point(q: QuadForm, target: float, rtol: float = RANK_RTOL) -> Optional[np.ndarray]:
    """A point with q(x) < target when q is unbounded below, else None."""
    um = unconstrained_min(q, rtol)
    if um.status == "attained":
        return um.x if um.value < target else None
    d = um.direction
    t = 1.0
    for _ in range(2000):
        x = t * d
        if evaluate(q, x) < target:
            return x
        t *= 2.0
    return None  # pragma: no cover - quadratic escape always reaches target
