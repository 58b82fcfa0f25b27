"""Symmetric linear algebra and quadratic-function primitives.

A quadratic function is always written ``q(x) = x'Ax + 2a'x + a0`` (note the
factor 2 on the linear term).  Its lift is the symmetric (n+1)x(n+1) matrix

    M(q) = [[a0, a'],
            [a,  A ]]

with the homogenizing coordinate first, so that ``[1; x]' M(q) [1; x] = q(x)``
and ``q >= 0`` everywhere exactly when ``M(q)`` is positive semidefinite.
"""

from __future__ import annotations

from contextvars import ContextVar
from dataclasses import dataclass
from enum import Enum
from functools import cached_property, wraps
from typing import NamedTuple, Optional, Tuple

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


@dataclass(frozen=True, eq=False)
class QuadForm:
    """One quadratic function q(x) = x'Ax + 2a'x + a0 on R^n.

    Plain immutable data: ``A`` is symmetrized exactly on construction and
    every array is read-only.  Equality and hashing are by identity, so a
    quadratic can key what is derived from it: its decompositions, lift,
    data scale, Cholesky factor, unconstrained minimum and the pencil solves
    it takes part in live in the :class:`Workspace` of the request that asks
    for them, not on the quadratic.  ``-q`` is a plain quadratic that the
    open workspace records as q's negation.
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
        self._store(A, a, a0)

    def _store(self, A: np.ndarray, a: np.ndarray, a0: float) -> None:
        A = (A + A.T) / 2.0
        A.setflags(write=False)
        a.setflags(write=False)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "a0", a0)

    @classmethod
    def _from_checked(cls, A: np.ndarray, a: np.ndarray, a0: float) -> "QuadForm":
        """The quadratic of float arrays the caller owns and has checked:
        A square, a of matching length, every entry and a0 finite.  Skips
        the copy and the checks of construction; A is symmetrized as there,
        and a is made read-only in place."""
        q = cls.__new__(cls)
        q._store(A, a, a0)
        return q

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
        return current_workspace().negation(self)

    def is_constant(self) -> bool:
        """Exact constancy check (zero quadratic and linear coefficients)."""
        return not self.A.any() and not self.a.any()

    def is_affine(self) -> bool:
        return float(np.abs(self.A).max(initial=0.0)) <= RANK_RTOL * self.data_scale()

    def data_scale(self) -> float:
        """Magnitude of the coefficient data, used for relative tolerances;
        computed at most once per request."""
        return current_workspace().read("scale", _data_scale, self)

    @staticmethod
    def constant(n: int, c: float) -> "QuadForm":
        return QuadForm(np.zeros((n, n)), np.zeros(n), float(c))

    @staticmethod
    def zero(n: int) -> "QuadForm":
        return QuadForm.constant(n, 0.0)


#: The workspace of the request in progress (:func:`in_workspace`).
_CURRENT: ContextVar[Optional["Workspace"]] = ContextVar("nonalter_workspace", default=None)
_MISSING = object()


class Workspace:
    """Every derived read of one request, each computed at most once, keyed
    by the objects it is read from, which it holds alive: decompositions
    (:func:`eig_of`), lifts, data scales, Cholesky factors, unconstrained
    minima, classification's candidate reads and the pencil root solves
    (:meth:`pencil`).

    The outermost public call opens one (:func:`in_workspace`) and calls
    nested in it join it through a context variable; it goes, with all it
    holds, when that call returns.  It records which quadratic is the
    negation of which (:meth:`negation`): a negation's decompositions are
    its source's, negated, whichever of the two is asked for first.
    """

    def __init__(self):
        self._reads = {}  # (kind, *key objects) -> value
        self._source = {}  # -q -> q
        self._pair_solves = {}  # (lifted, source of p, source of q) -> (p, q, solve, reads)

    def __enter__(self) -> "Workspace":
        self._token = _CURRENT.set(self)
        return self

    def __exit__(self, *exc) -> None:
        _CURRENT.reset(self._token)

    def read(self, kind: str, compute, *objs):
        """compute(*objs), computed at most once per ``kind`` and objects."""
        key = (kind, *objs)
        value = self._reads.get(key, _MISSING)
        if value is _MISSING:
            value = self._reads[key] = compute(*objs)
        return value

    def negation(self, q: QuadForm) -> QuadForm:
        """-q, built once: the negation of a negation is its source."""
        source = self._source.get(q)
        if source is not None:
            return source
        neg = self.read("neg", lambda q: QuadForm(-q.A, -q.a, -q.a0), q)
        self._source[neg] = q
        return neg

    def eig(self, q: QuadForm, lifted: bool = False) -> "EigenDecomp":
        """The read-only decomposition of q.A, or of lift(q) when ``lifted``."""
        def compute(q):
            source = self._source.get(q)
            if source is not None:
                return self.eig(source, lifted).negated()
            return sym_eigen(self.read("lift", _build_lift, q) if lifted else q.A)

        return self.read("lift_eig" if lifted else "eig", compute, q)

    def decomposed(self, q: QuadForm) -> bool:
        """Whether q.A's decomposition is held, q's or its source's."""
        return ("eig", self._source.get(q, q)) in self._reads

    def pencil(self, p: QuadForm, q: QuadForm, lifted: bool, P: np.ndarray, Q: np.ndarray):
        """The root solve of P + lam*Q, the quadratic parts of p and q or
        their lifts, as (solve, sign, swap, q_sign, reads): one solve per
        pair up to the sign and the order of p and q, of the orientation
        asked for first (solve None when no shift leaves the pencil well
        conditioned).  ``sign`` and ``swap`` map its roots to this pencil
        (:meth:`_PencilSolve.test_points`); ``q_sign`` is the sign with which
        the solve's Q enters it (:meth:`_PencilSolve.definite_segment`).
        ``reads`` holds the stacked reads of the pair's pencils
        (:func:`_interval`), keyed by (sign, swap, q_sign, tol)."""
        key = (lifted, self._source.get(p, p), self._source.get(q, q))
        entry, swap = self._pair_solves.get(key), False
        if entry is None:
            entry, swap = self._pair_solves.get((lifted, key[2], key[1])), True
        if entry is None:
            entry, swap = (p, q, _solve_pencil(P, Q, None if lifted else q), {}), False
            self._pair_solves[key] = entry
        first, second = (q, p) if swap else (p, q)
        p0, q0, solve, reads = entry
        q_sign = 1 if second is q0 else -1
        return solve, (1 if first is p0 else -1) * q_sign, swap, q_sign, reads


def current_workspace() -> Workspace:
    """The open request's workspace, or a fresh one when no request is open."""
    ws = _CURRENT.get()
    return Workspace() if ws is None else ws


def in_workspace(fn):
    """``fn`` run in the open request's workspace, or, when none is open, as
    a request of its own with a fresh workspace for its duration."""
    @wraps(fn)
    def run(*args, **kwargs):
        if _CURRENT.get() is not None:
            return fn(*args, **kwargs)
        with Workspace():
            return fn(*args, **kwargs)

    return run


def eig_of(q: QuadForm, lifted: bool = False) -> "EigenDecomp":
    """The read-only decomposition of q.A, or of lift(q) when ``lifted``,
    computed at most once per request (:meth:`Workspace.eig`)."""
    return current_workspace().eig(q, lifted)


def cholesky(q: QuadForm) -> Optional[np.ndarray]:
    """The Cholesky factor of q.A (:func:`_definite_factor`), computed at
    most once per request."""
    return current_workspace().read("chol", lambda q: _definite_factor(q.A), q)


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


def gradient_many(q: QuadForm, pts: np.ndarray) -> np.ndarray:
    return 2.0 * (pts @ q.A + q.a)


def line_roots(q: QuadForm, X: np.ndarray, D: np.ndarray, rtol: float) -> np.ndarray:
    """Real roots t of q(x + t*d) for each row pair (x, d) of ``X`` and ``D``.

    Returns shape (N, 2), ascending in each row, with nan for a missing
    root: two roots for a quadratic with nonnegative discriminant (a double
    root twice), one for a linear restriction, none otherwise.  A
    coefficient of t^2 or t counts as zero at ``rtol * (1 + q.data_scale())``.
    The smaller-magnitude root comes from the product of the roots, so it
    keeps full precision when the other one is large.  A linear term lost
    in the rounding of the discriminant's root leaves the two roots exact
    negatives of each other.
    """
    X, D = np.asarray(X, dtype=float), np.asarray(D, dtype=float)
    cut = rtol * (1.0 + q.data_scale())
    c2 = np.einsum("ij,ij->i", D @ q.A, D)
    G = X @ q.A
    G += q.a  # half the gradient of q at each x
    c1 = 2.0 * np.einsum("ij,ij->i", G, D)
    G += q.a
    c0 = np.einsum("ij,ij->i", G, X) + q.a0
    del G  # N x n: release before the per-row work
    quad = np.abs(c2) > cut
    disc = c1 * c1 - 4.0 * c2 * c0
    real = quad & (disc >= 0.0)
    s = np.sqrt(np.maximum(disc, 0.0, out=disc), out=disc)
    w = -0.5 * (c1 + np.copysign(s, c1))
    out = np.full((len(X), 2), np.nan)
    np.divide(w, c2, out=out[:, 0], where=real)
    np.negative(out[:, 0], out=out[:, 1], where=real)
    np.divide(c0, w, out=out[:, 1], where=real & (s + np.abs(c1) != s))
    np.divide(-c0, c1, out=out[:, 0], where=~quad & (np.abs(c1) > cut))
    out.sort(axis=1)
    return out


def _data_scale(q: QuadForm) -> float:
    return max(
        float(np.abs(q.A).max(initial=0.0)),
        float(np.abs(q.a).max(initial=0.0)),
        abs(q.a0),
        1e-300,
    )


def lift(q: QuadForm) -> np.ndarray:
    """The symmetric (n+1)x(n+1) homogenization of ``q``, read-only, built
    at most once per request."""
    return current_workspace().read("lift", _build_lift, q)


def _build_lift(q: QuadForm) -> np.ndarray:
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
    """Eigenvalues ascending, orthonormal eigenvectors as columns.

    The package's one spectral primitive.  An eigenvalue counts as zero when
    ``|lam| <= cut(rtol)``, with ``cut(rtol) = rtol * (1 + max|lam|)``; every
    PSD margin, pseudo-inverse and kernel in the package is read from it.
    On a stack of matrices (shape (K, n, n)) each array gains the leading
    axis K and ``cut`` gives one cutoff per matrix.
    """

    values: np.ndarray
    vectors: Optional[np.ndarray]

    @classmethod
    def of(cls, M) -> "EigenDecomp":
        """Decompose a symmetric matrix or a stack of them, without validation."""
        return cls(*np.linalg.eigh(M))

    @classmethod
    def values_of(cls, M) -> "EigenDecomp":
        """The eigenvalues alone, from LAPACK's values-only driver; no vectors."""
        return cls(np.linalg.eigvalsh(M), None)

    @cached_property
    def _scale(self):
        """1 + max|lam|, shared by every cutoff taken from this decomposition."""
        return 1.0 + np.abs(self.values).max(axis=-1, initial=0.0)

    def cut(self, rtol: float):
        """The zero cutoff ``rtol * (1 + max|lam|)``."""
        return rtol * self._scale

    def zero(self, rtol: float) -> np.ndarray:
        """Mask of the eigenvalues with ``|lam| <= cut(rtol)``."""
        return np.abs(self.values) <= self.cut(rtol)[..., None]

    def inverse(self, rtol: float) -> np.ndarray:
        """Pseudo-inverse weights: 1/lam on the non-zero eigenvalues, 0 on the zero ones."""
        return np.divide(1.0, self.values, out=np.zeros(self.values.shape), where=~self.zero(rtol))

    def kernel(self, rtol: float) -> np.ndarray:
        """Orthonormal columns spanning the eigenvectors of the zero eigenvalues."""
        return self.vectors[:, self.zero(rtol)]

    def at(self, k: int) -> "EigenDecomp":
        """The decomposition of matrix k of a stack, as read-only copies that
        keep no reference to the stack."""
        values, vectors = (None if a is None else a[k].copy() for a in (self.values, self.vectors))
        for a in (values, vectors):
            if a is not None:
                a.setflags(write=False)
        return EigenDecomp(values, vectors)

    def negated(self) -> "EigenDecomp":
        """The decomposition of -M: negated spectrum, ascending, same vectors and
        cut, as writable as this one."""
        values = -self.values[..., ::-1]
        values.setflags(write=self.values.flags.writeable)
        return EigenDecomp(values, self.vectors[..., ::-1])


def sym_eigen(M) -> EigenDecomp:
    """Full symmetric eigendecomposition; raises on LAPACK non-convergence."""
    M = _to_matrix(M)
    M = (M + M.T) / 2.0
    try:
        ed = EigenDecomp.of(M)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise np.linalg.LinAlgError(
            f"symmetric eigendecomposition did not converge for shape {M.shape}: {exc}"
        ) from exc
    ed.values.setflags(write=False)
    ed.vectors.setflags(write=False)
    return ed


class PsdVerdict(Enum):
    POSITIVE_DEFINITE = "positive_definite"
    PSD_SINGULAR = "psd_singular"
    INDEFINITE = "indefinite"


@dataclass(frozen=True)
class PsdStatus:
    min_eig: float
    verdict: PsdVerdict


def _status_of(ed: EigenDecomp, tol: float) -> PsdStatus:
    min_eig = float(ed.values[0])
    margin = ed.cut(tol)
    if min_eig < -margin:
        verdict = PsdVerdict.INDEFINITE
    elif min_eig > margin:
        verdict = PsdVerdict.POSITIVE_DEFINITE
    else:
        verdict = PsdVerdict.PSD_SINGULAR
    return PsdStatus(min_eig=min_eig, verdict=verdict)


def psd_status(M) -> PsdStatus:
    """Classify a symmetric matrix by its smallest eigenvalue.

    The verdict uses the margin ``EigenDecomp.cut(PSD_RTOL)``: strictly below
    minus it is indefinite, strictly above it positive definite, otherwise
    semidefinite-singular.
    """
    return _status_of(sym_eigen(M), PSD_RTOL)


def nonneg_everywhere(q: QuadForm) -> bool:
    """True iff q(x) >= 0 for all x, decided through the lifted matrix."""
    return _status_of(eig_of(q, lifted=True), PSD_RTOL).verdict is not PsdVerdict.INDEFINITE


def find_negative_point(q: QuadForm) -> Optional[np.ndarray]:
    """A concrete x with q(x) < 0, built from a negative lift eigenvector.

    Returns None when ``q`` is nonnegative everywhere, by the verdict of
    :func:`nonneg_everywhere`.
    """
    ed = eig_of(q, lifted=True)
    if _status_of(ed, PSD_RTOL).verdict is not PsdVerdict.INDEFINITE:
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


#: Shifts tried, in units of ||P|| / ||Q||, for the pencil root computation;
#: near sqrt(2) - 1, -sqrt(3), sqrt(7), -sqrt(11), so no simple rational root
#: sits on one.
_PENCIL_SHIFTS = (0.0, 0.4142, -1.7321, 2.6458, -3.3166)
#: A theta that puts lam farther than this many units of ||P|| / ||Q|| from
#: the shift is a rounded zero: an infinite eigenvalue from the kernel of Q.
_PENCIL_FAR = 1e8
#: The largest matrix side at which :func:`psd_interval` decomposes all its
#: test points in one stacked call instead of bisecting.  On random pencils
#: the stacked call takes 0.57x the time of the bisection at side 3, 0.79x
#: at 6, 0.93-0.98x at 7, 1.07-1.26x at 8 and 1.65-1.74x at 11.
_SCAN_MAX = 7


class _PencilSolve(NamedTuple):
    """One root solve of the pencil P + lam*Q, reduced off the common kernel
    of P and Q to Pr + lam*Qr: the eigenvalues theta of (Pr + mu*Qr)^-1 Qr
    at the shift mu (all zero when Qr is), the largest entries of Pr
    and Qr, and, when the solve came from a Cholesky factor LL' = Q, that
    factor and the decomposition U diag(sigma) U' of L^-1 P L^-T.  A
    positive definite Q has no common kernel with P: then the solve is
    ``definite``, Pr, Qr = P, Q, mu = 0 and theta = 1/sigma (an infinite
    theta is the root 0), and T = L^-T U diagonalizes the whole pencil
    (:meth:`congruence`).  It serves every orientation +-P + lam*(+-Q) and
    +-Q + lam*(+-P); a definite solve knows a positive definite member of
    all but -Q + lam*(+-P) (:meth:`definite_segment`)."""

    theta: np.ndarray
    mu: float
    p_max: float
    q_max: float
    factor: Optional[np.ndarray] = None
    eig: Optional[EigenDecomp] = None

    @property
    def definite(self) -> bool:
        return self.factor is not None

    def congruence(self) -> Tuple[np.ndarray, np.ndarray]:
        """(T, sigma) of a definite solve, with T'(P + lam*Q)T = diag(sigma +
        lam) for every lam: T'QT = U'U = I and T'PT = diag(sigma) (Moré and
        Sorensen, SIAM J. Sci. Stat. Comput. 4, 1983).  T is built on each
        call, so a solve whose roots alone are read never builds it."""
        return np.linalg.solve(self.factor.T, self.eig.vectors), self.eig.values

    def test_points(self, sign: int = 1, swap: bool = False) -> Tuple[np.ndarray, np.ndarray]:
        """The roots and test points (:func:`_pencil_test_points`) of
        sign*P + lam*Q, or of sign*Q + lam*P when ``swap``.

        det(Pr + lam*Qr) = 0 at lam = mu - 1/theta, so the roots are
        sign*(mu - 1/theta), and swapped sign/lam = sign*theta/(mu*theta - 1):
        there theta = 0 gives the root 0 and lam = 0 an infinite one.  A root
        more than ``_PENCIL_FAR`` units from the shift (swapped: from 0) is
        infinite, from a rounded zero theta (swapped: lam).
        """
        top, bottom = (self.q_max, self.p_max) if swap else (self.p_max, self.q_max)
        if not bottom:
            return np.empty(0), np.zeros(1)
        unit = top / bottom or 1.0
        theta = self.theta
        if swap:
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                lam = theta / (self.mu * theta - 1.0)
            lam = lam[np.abs(lam) < unit * _PENCIL_FAR]
        else:
            lam = self.mu - 1.0 / theta[np.abs(theta) * unit * _PENCIL_FAR > 1.0]
        roots = np.array(sorted(set((sign * lam).real.tolist())))
        if not roots.size:
            return roots, np.zeros(1)
        reach = max(float(roots[-1] - roots[0]), float(np.abs(roots).max()), unit)
        pts = np.empty(2 * roots.size + 1)
        pts[1::2] = roots
        pts[2:-1:2] = 0.5 * (roots[:-1] + roots[1:])
        pts[0], pts[-1] = roots[0] - reach, roots[-1] + reach
        return roots, pts

    def definite_segment(self, roots: np.ndarray, swap: bool = False, q_sign: int = 1) -> Optional[int]:
        """The segment j, from root j - 1 to root j (``roots`` of
        :meth:`test_points`), that holds a positive definite member of the
        pencil +-P + lam*q_sign*Q, or of q_sign*Q + lam*(+-P) when ``swap``.

        Q = LL' is definite, so +-P + lam*Q is definite as lam -> inf (the
        last segment), +-P - lam*Q as lam -> -inf (the first) and Q + lam*P
        at lam = 0.  None for -Q + lam*P, for a solve that is not definite,
        and when no root is left.
        """
        if not self.definite or not roots.size:
            return None
        if swap:
            return int(np.searchsorted(roots, 0.0)) if q_sign > 0 else None
        return roots.size if q_sign > 0 else 0


def _definite_factor(Q: np.ndarray) -> Optional[np.ndarray]:
    """A read-only Cholesky factor L of Q (LL' = Q) whose smallest pivot
    L_ii^2 is above ``RANK_RTOL`` times the largest, the rcond bar of the
    shifts; None when Q has no such factor."""
    try:
        L = np.linalg.cholesky(Q)
    except np.linalg.LinAlgError:
        return None
    pivots = np.square(L.diagonal())
    if not pivots.min() > RANK_RTOL * pivots.max():
        return None
    L.setflags(write=False)
    return L


def _solve_pencil(P: np.ndarray, Q: np.ndarray, q: Optional[QuadForm] = None) -> Optional[_PencilSolve]:
    """The root solve of P + lam*Q.

    With a Cholesky factor LL' = Q (:func:`_definite_factor`; :func:`cholesky`
    when Q is the quadratic part of ``q``) the roots are lam = -sigma for the
    eigenvalues sigma of L^-1 P L^-T (Moré, Optim. Methods Softw. 2, 1993),
    stored as theta = 1/sigma at mu = 0; a definite Q leaves no common
    kernel to remove.  That one decomposition keeps its eigenvectors, read
    only, for the pencil's congruence (:meth:`_PencilSolve.congruence`).
    Otherwise the solve is at the best-conditioned shift (one stacked SVD of
    the shifted matrices); None when no shift leaves the reduced pencil well
    conditioned."""
    L = _definite_factor(Q) if q is None else cholesky(q)
    if L is not None:
        eig = EigenDecomp.of(np.linalg.solve(L, np.linalg.solve(L, P).T))
        eig.values.setflags(write=False)
        eig.vectors.setflags(write=False)
        with np.errstate(divide="ignore", over="ignore"):
            theta = 1.0 / eig.values
        return _PencilSolve(theta, 0.0, float(np.abs(P).max()), float(np.abs(Q).max()), L, eig)
    _, sv, vt = np.linalg.svd(np.vstack([P, Q]), full_matrices=False)
    V = vt[sv > RANK_RTOL * sv.max(initial=0.0)].T
    Pr, Qr = V.T @ P @ V, V.T @ Q @ V
    p_max, q_max = float(np.abs(Pr).max(initial=0.0)), float(np.abs(Qr).max(initial=0.0))
    if not q_max:
        return _PencilSolve(np.zeros(len(Pr)), 0.0, p_max, q_max)
    shifts = (p_max / q_max or 1.0) * np.array(_PENCIL_SHIFTS)
    sv = np.linalg.svd(Pr + shifts[:, None, None] * Qr, compute_uv=False)
    rcond, mu = max(zip((sv[:, -1] / np.maximum(sv[:, 0], 1e-300)).tolist(), shifts.tolist()))
    if not rcond > RANK_RTOL:
        return None
    return _PencilSolve(np.linalg.eigvals(np.linalg.solve(Pr + mu * Qr, Qr)), mu, p_max, q_max)


def _definite_congruence(p: QuadForm, q: QuadForm) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """(T, sigma) with T'(p.A + lam*q.A)T = diag(sigma + lam) for every lam,
    from the pair's root solve (:meth:`_PencilSolve.congruence`) when that
    solve is definite and is of this pencil itself, q.A = LL'; None for any
    other solve or orientation."""
    solve, sign, swap, q_sign, _ = current_workspace().pencil(p, q, False, p.A, q.A)
    if solve is None or not solve.definite or (sign, swap, q_sign) != (1, False, 1):
        return None
    return solve.congruence()


def pencil_interval(p: QuadForm, q: QuadForm, tol: float = PSD_RTOL,
                    lifted: bool = False) -> Optional[Tuple[float, float]]:
    """:func:`psd_interval` of p.A + lam*q.A, or of lift(p) + lam*lift(q)
    when ``lifted``, from the root solve that the request's workspace holds
    for the pair, shared across negation and swap of p and q
    (:meth:`Workspace.pencil`); outside a request the call solves afresh."""
    return _pencil_interval(p, q, tol, lifted)[0]


def _pencil_interval(p: QuadForm, q: QuadForm, tol: float, lifted: bool = False):
    """:func:`pencil_interval`, and the decompositions of P + lo*Q and
    P + hi*Q at its ends lo and hi where the search made one
    (:func:`_interval`), for a caller that goes on at an end.  A pencil
    whose stacked read the pair already holds, its own or the mirror of
    -P + lam*Q's, is read from it with no decomposition."""
    P, Q = (lift(p), lift(q)) if lifted else (p.A, q.A)
    solve, sign, swap, q_sign, reads = current_workspace().pencil(p, q, lifted, P, Q)
    read = reads.get((sign, swap, q_sign, tol))
    return read if read is not None else _interval(P, Q, tol, solve, sign, swap, q_sign, reads)


def psd_interval(P, Q, tol: float = PSD_RTOL) -> Optional[Tuple[float, float]]:
    """The closed interval of real lam where P + lam*Q is not indefinite at
    the margin ``cut(tol)`` (:func:`_status_of`; P, Q symmetric), or None
    when there is no such lam.

    Ends may be -inf or inf.  Up to the cutoff, the set is an interval
    because the smallest eigenvalue of P + lam*Q is concave in lam, and its
    finite ends are real roots of det(P + lam*Q) once the common kernel of
    P and Q is removed (Moré, Optim. Methods Softw. 2, 1993).  When Q is
    positive definite, LL' = Q, they are minus the eigenvalues of
    L^-1 P L^-T; otherwise they come from the eigenvalues theta of
    (P + mu*Q)^-1 Q at a well-conditioned shift mu, as lam = mu - 1/theta
    (:func:`_solve_pencil`).  Between two roots
    the inertia is constant, so a passing midpoint admits the closed
    segment, and a passing root admits itself.  Without a common kernel, a
    pencil that is singular for every lam is never semidefinite (its
    singular Kronecker blocks have a zero diagonal block), which gives None.

    The test points (:meth:`_PencilSolve.test_points`) are each root, the
    midpoint of each pair of neighbours and one point beyond each extreme
    root; with no root the one test point is 0.  A definite Q gives the
    answer from the solve: P + lam*Q is definite on the last segment, which
    closes at the largest root (Moré and Sorensen, SIAM J. Sci. Stat.
    Comput. 4, 1983).  Two decompositions confirm it: the root passes, and
    the test point before it fails clearly (below).  Between quadratics the
    same solve serves P - lam*Q, definite on the first segment, and
    Q + lam*P, definite on the segment around 0, confirmed at both ends in
    at most four.  Up to ``_SCAN_MAX`` wide, the two of each end are one
    stacked call.  Where a check does not hold, and for every other pencil,
    the verdicts are read from the test points: all of them at once, in
    one stacked decomposition, when P is at most ``_SCAN_MAX`` wide, and
    by bisection otherwise, in O(log n) decompositions unless some verdict
    is close.

    The cutoff grows with the spectral radius, so a test point may fail
    between two passing ones; the result spans the first to the last
    passing one, as the scan of all of them gives.  A failure is clear when
    the smallest eigenvalue lies below -C, twice the largest cutoff any
    test point can have (a margin for rounding); by concavity, a clearly
    failing test point between a passing one and others rules those others
    out.  At a failing test point, with B the eigenvectors within the
    cutoff of the bottom eigenvalue, the extreme eigenvalues of B'QB are
    its one-sided slopes, and the top of that cluster bounds the smallest
    eigenvalue on each side where it does not rise; a clear failure there
    rules that side out (both sides: None).  A close failure rules out
    nothing, and the search goes on to both sides.  From the first passing
    test point it meets, two searches on eigenvalues alone find the first
    and the last passing one.

    On raw matrices each call solves for the roots.  Between quadratics,
    :func:`pencil_interval` reads them from the pair's root solve in the
    request's workspace: one per pair and request, shared across the
    negation of either and their swap.
    There the stacked read of P + lam*Q is kept with the read of -P + lam*Q
    that the same decomposition gives, whose matrices at the negated test
    points are the stack's negated: once either is read, neither costs a
    decomposition again.
    """
    P, Q = np.asarray(P, dtype=float), np.asarray(Q, dtype=float)
    return _interval(P, Q, tol, _solve_pencil(P, Q))[0]


def _interval(P: np.ndarray, Q: np.ndarray, tol: float, solve: Optional[_PencilSolve],
              sign: int = 1, swap: bool = False, q_sign: int = 1, reads: Optional[dict] = None):
    """:func:`psd_interval` of P + lam*Q from ``solve``, the root solve of a
    pencil P0 + lam*Q0 that P + lam*Q is up to ``sign``, ``swap`` and
    ``q_sign`` (:meth:`Workspace.pencil`), as (interval, lower, upper).

    ``lower`` and ``upper`` are the decompositions of P + lo*Q and P + hi*Q
    at the interval's ends, whether or not the end passed, where the search
    made one: every finite end up to ``_SCAN_MAX`` wide, a positive end of
    a definite read above it; None otherwise.  They hold vectors, except
    where a mirrored read (below) gives the eigenvalues alone.

    Given ``reads`` (:meth:`Workspace.pencil`), the stacked scan stores its read
    and the mirrored read of -P + lam*Q, each as (interval, lower, upper)
    with read-only ends.  The test points of -P + lam*Q are -pts[::-1], and
    each of its matrices is the negative of one in the stack, exactly up to
    the signs of zero entries, so its eigenvalues are the stack's negated
    and reversed: a test point passes there where the largest eigenvalue
    is at most the cutoff.  LAPACK's vectors of -M are those of M reversed
    only where no eigenvalues are equal and no signed zero steers it, so
    the mirror keeps no vectors, and a caller that needs them decomposes
    the end's own matrix.  The definite read and the bisection store
    nothing."""
    if solve is None:
        return None, None, None
    roots, pts = solve.test_points(sign, swap)
    clear = 2.0 * tol * (1.0 + np.linalg.norm(P) + np.abs(pts[[0, -1]]).max() * np.linalg.norm(Q))
    # Test point 2j is segment j, from edge j to edge j + 1; test point 2j + 1
    # is root j, which is edge j + 1.
    edges = np.concatenate([[-np.inf], roots, [np.inf]])

    def verdict(ed: EigenDecomp) -> Optional[bool]:
        # True: passes; False: fails clearly; None: fails, but close.
        if _status_of(ed, tol).verdict is not PsdVerdict.INDEFINITE:
            return True
        return False if ed.values[0] < -clear else None

    j = solve.definite_segment(roots, swap, q_sign)
    if j is not None:
        # Segment j holds a definite member, so its inertia passes.  Each
        # finite end must pass, and the test point beyond it fail clearly,
        # which by concavity rules out every test point farther out.  Up to
        # _SCAN_MAX wide, an end and the point beyond it are one stacked call
        # with vectors; wider, an end is decomposed with vectors for the
        # caller when it is positive, and the rest is eigenvalues alone.
        ends = [None, None]
        for e, (k, out) in enumerate(((2 * j - 1, 2 * j - 2), (2 * j + 1, 2 * j + 2))):
            if not 0 < k < pts.size:
                continue  # an infinite end
            if P.shape[0] <= _SCAN_MAX:
                pair = EigenDecomp.of(P + pts[[k, out]][:, None, None] * Q)
                ed, beyond = pair.at(0), pair.at(1)
            else:
                M = P + pts[k] * Q
                ed = EigenDecomp.of(M) if pts[k] > 0.0 else EigenDecomp.values_of(M)
                beyond = EigenDecomp.values_of(P + pts[out] * Q)
            if not verdict(ed) or verdict(beyond) is not False:
                break
            ends[e] = ed if ed.vectors is not None else None
        else:
            return (float(edges[j]), float(edges[j + 1])), *ends

    if P.shape[0] <= _SCAN_MAX:
        # Every verdict from one stacked decomposition, stored with its
        # mirror when ``reads`` is given.
        stack = EigenDecomp.of(P + pts[:, None, None] * Q)
        read = _read_stack(stack, edges, tol)
        if reads is not None:
            reads[sign, swap, q_sign, tol] = read
            # In -P + lam*Q the solve's Q changes sign where it enters as P.
            reads[-sign, swap, -q_sign if swap else q_sign, tol] = _read_stack(
                EigenDecomp(-stack.values[::-1, ::-1], None), -edges[::-1], tol)
        return read

    def any_passing(lo: int, hi: int) -> Optional[Tuple[int, int, int]]:
        # A passing test point in [lo, hi] and a range within [lo, hi]
        # holding every passing one of [lo, hi]; None when none passes.
        if lo > hi:
            return None
        k = (lo + hi) // 2
        ed = EigenDecomp.of(P + pts[k] * Q)
        if verdict(ed):
            return k, lo, hi
        bottom = ed.values - ed.values[0] <= ed.cut(tol)
        if ed.values[bottom][-1] < -clear:
            B = ed.vectors[:, bottom]
            S = B.T @ Q @ B
            slopes = S.diagonal() if S.shape == (1, 1) else EigenDecomp.values_of(S).values
            if slopes[0] > 0.0:
                return any_passing(k + 1, hi)
            if slopes[-1] < 0.0:
                return any_passing(lo, k - 1)
            return None
        right = any_passing(k + 1, hi)
        if right is not None:
            return right[0], lo, right[2]
        return any_passing(lo, k - 1)

    def first_passing(lo: int, hi: int) -> Optional[int]:
        # The first passing test point in [lo, hi]; one right of hi passes.
        if lo > hi:
            return None
        k = (lo + hi) // 2
        v = verdict(EigenDecomp.values_of(P + pts[k] * Q))
        left = None if v is False else first_passing(lo, k - 1)
        if left is not None:
            return left
        return k if v else first_passing(k + 1, hi)

    def last_passing(lo: int, hi: int) -> Optional[int]:
        # The last passing test point in [lo, hi]; one left of lo passes.
        if lo > hi:
            return None
        k = (lo + hi) // 2
        v = verdict(EigenDecomp.values_of(P + pts[k] * Q))
        right = None if v is False else last_passing(k + 1, hi)
        if right is not None:
            return right
        return k if v else last_passing(lo, k - 1)

    start = any_passing(0, pts.size - 1)
    if start is None:
        return None, None, None
    k, lo, hi = start
    first, last = first_passing(lo, k - 1), last_passing(k + 1, hi)
    first, last = k if first is None else first, k if last is None else last
    return (float(edges[(first + 1) // 2]), float(edges[last // 2 + 1])), None, None


def _read_stack(stack: EigenDecomp, edges: np.ndarray, tol: float):
    """(interval, lower, upper) from the decompositions of every test point
    of a pencil whose roots, between -inf and inf, are ``edges``
    (:func:`_interval`)."""
    passing = np.flatnonzero(stack.values[:, 0] >= -stack.cut(tol))
    if not passing.size:
        return None, None, None
    # Root j is test point 2j + 1, so a finite end, edge e, is test point
    # 2e - 1; the first and last edges are infinite.
    ends = ((passing[0] + 1) // 2, passing[-1] // 2 + 1)
    eds = [stack.at(2 * e - 1) if 0 < e < edges.size - 1 else None for e in ends]
    return (float(edges[ends[0]]), float(edges[ends[1]])), *eds


def pseudo_inverse(M) -> np.ndarray:
    """Moore-Penrose inverse of a symmetric matrix, zero below
    ``EigenDecomp.cut(RANK_RTOL)``."""
    ed = sym_eigen(M)
    return (ed.vectors * ed.inverse(RANK_RTOL)) @ ed.vectors.T


def null_basis(M) -> np.ndarray:
    """Orthonormal columns spanning the kernel (shape (n, m), possibly m=0),
    below ``EigenDecomp.cut(RANK_RTOL)``."""
    return sym_eigen(M).kernel(RANK_RTOL)


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


class QuadInf(NamedTuple):
    """``inf_x [x'Qx + 2v'x + s]``, the point ``-Q^+v``, the decomposition of
    Q and the mask of its zero eigenvalues; each gains a leading axis K on a
    stack of K problems."""

    value: np.ndarray  # -inf outside the domain
    x: np.ndarray
    eig: EigenDecomp
    zero: np.ndarray


def quad_inf(Q, v, s, rtol: float = INF_PSD_RTOL) -> QuadInf:
    """inf_x [x'Qx + 2v'x + s] = s - v'Q^+v for one symmetric Q or a stack.

    The value is -inf when Q has an eigenvalue below ``-cut(rtol)``, or when
    the part of v along the zero eigenvalues exceeds ``RANGE_RTOL * (1 + |v|)``
    (the linear term escapes along the kernel).  No validation happens here:
    this runs in the inner loops of the dual solvers.  ``Q`` may be an EigenDecomp.
    """
    eig = Q if isinstance(Q, EigenDecomp) else EigenDecomp.of(Q)
    zero = eig.zero(rtol)
    c = (np.swapaxes(eig.vectors, -1, -2) @ v[..., None])[..., 0]
    w = eig.inverse(rtol) * c
    resid = np.sqrt(np.square(c, where=zero, out=np.zeros(c.shape)).sum(axis=-1))
    finite = (eig.values[..., 0] >= -eig.cut(rtol)) & (
        resid <= RANGE_RTOL * (1.0 + np.sqrt(np.square(v).sum(axis=-1))))
    value = np.where(finite, s - (c[..., None, :] @ w[..., None])[..., 0, 0], -np.inf)
    return QuadInf(value[()], (-eig.vectors @ w[..., None])[..., 0], eig, zero)


@dataclass(frozen=True)
class UnconstrainedMin:
    """Outcome of minimizing one quadratic over all of R^n; ``kernel`` spans
    the zero eigenvectors of ``q.A`` at the solve's cutoff."""

    status: str  # "attained" | "unbounded_below"
    value: float  # -inf when unbounded
    x: Optional[np.ndarray] = None
    direction: Optional[np.ndarray] = None
    kind: Optional[str] = None  # "negative_curvature" | "affine" for unbounded
    kernel: Optional[np.ndarray] = None


def unconstrained_min(q: QuadForm) -> UnconstrainedMin:
    """Global infimum of q over R^n, with minimizer or escape direction,
    eigenvalues of q.A within ``RANK_RTOL`` of its scale counting as zero.

    Its arrays are read-only; it is computed at most once per request."""
    return current_workspace().read("min", _unconstrained_min, q)


def _min_clearly_below(q: QuadForm, cut: float) -> bool:
    """True when q's minimum lies clearly below -cut, read at its minimizer
    x = -L^-T L^-1 q.a from the Cholesky factor LL' = q.A (:func:`cholesky`)
    without a decomposition of q.A.  False leaves the verdict to
    :func:`unconstrained_min`: when q.A has no factor, when the test is
    close, and when the request already holds q.A's decomposition
    (:meth:`Workspace.decomposed`), from which that minimum costs none.

    A True never contradicts that minimum.  The test runs only when every
    eigenvalue of q.A is above twice the minimum's cutoff, as
    lam_min >= 1/|L^-1|_F^2 and lam_max <= |L|_F^2 show, so both read the
    same exact minimum.  The margin covers the rounding of both evaluations
    and what a solve's residual e costs in value, at most |e|^2 |L^-1|_F^2,
    with |e| <= 8n eps (lam_max |x| + |q.a|).
    """
    L = None if current_workspace().decomposed(q) else cholesky(q)
    if L is None:
        return False
    Li = np.linalg.inv(L)
    inv_norm, top = float(np.square(Li).sum()), float(np.square(L).sum())
    if RANK_RTOL * (1.0 + top) * inv_norm >= 0.5:
        return False
    x = -(Li.T @ (Li @ q.a))
    quad, lin, xn = float(x @ q.A @ x), float(q.a @ x), float(np.linalg.norm(x))
    err = 8.0 * q.n * np.finfo(float).eps
    resid = err * (top * xn + float(np.linalg.norm(q.a)))
    margin = err * (top * xn * xn + 2.0 * abs(lin) + abs(q.a0)) + resid * resid * inv_norm
    return quad + 2.0 * lin + q.a0 < -cut - margin


def _unconstrained_min(q: QuadForm) -> UnconstrainedMin:
    qi = quad_inf(eig_of(q), q.a, q.a0, RANK_RTOL)
    V = qi.eig.vectors
    K = V[:, qi.zero]
    if qi.eig.values[0] < -qi.eig.cut(RANK_RTOL):
        um = UnconstrainedMin(status="unbounded_below", value=-np.inf,
                              direction=V[:, 0].copy(), kind="negative_curvature", kernel=K)
    elif qi.value == -np.inf:
        w = K.T @ q.a
        um = UnconstrainedMin(status="unbounded_below", value=-np.inf,
                              direction=-K @ (w / np.linalg.norm(w)), kind="affine", kernel=K)
    else:
        um = UnconstrainedMin(status="attained", value=evaluate(q, qi.x), x=qi.x, kernel=K)
    for arr in (um.x, um.direction, um.kernel):
        if arr is not None:
            arr.setflags(write=False)
    return um
