"""Brute-force ground truth for desk-scale problems (n <= 3).

Everything here is a test fixture, not a solver: exhaustive grid
minimization, sign-pattern witness search, and empirical checking of
"no feasible point beats gamma".  All outputs are bit-for-bit
deterministic for a fixed spec and seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

import numpy as np

from .quad_core import QuadForm, evaluate_many


@dataclass(frozen=True)
class GridSpec:
    """Axis-aligned evaluation grid with a feasibility slack."""

    bounds: Tuple[Tuple[float, float], ...]
    resolution: int = 401
    eps: float = 1e-6

    def __post_init__(self):
        bounds = tuple((float(lo), float(hi)) for lo, hi in self.bounds)
        for lo, hi in bounds:
            if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
                raise ValueError("grid bounds need finite lo < hi")
        if self.resolution < 3:
            raise ValueError("resolution must be at least 3")
        if not self.eps >= 0:
            raise ValueError("feasibility slack must be nonnegative")
        object.__setattr__(self, "bounds", bounds)

    @property
    def n(self) -> int:
        return len(self.bounds)

    @property
    def spacing(self) -> Tuple[float, ...]:
        return tuple((hi - lo) / (self.resolution - 1) for lo, hi in self.bounds)

    def scaled(self, factor: float) -> "GridSpec":
        bounds = tuple((lo * factor, hi * factor) for lo, hi in self.bounds)
        return GridSpec(bounds=bounds, resolution=self.resolution, eps=self.eps)

    @staticmethod
    def cube(n: int, lo: float = -10.0, hi: float = 10.0, resolution: int = 401,
             eps: float = 1e-6) -> "GridSpec":
        return GridSpec(bounds=tuple((lo, hi) for _ in range(n)), resolution=resolution, eps=eps)


@dataclass(frozen=True)
class OracleResult:
    min_value: Optional[float]
    argmin: Optional[np.ndarray]
    feasible_count: int
    spacing: Tuple[float, ...]


def _check_dim(n: int):
    if n > 3:
        raise ValueError("the brute-force oracle only handles n <= 3")


# Values per block of the grid scan.  A block holds whole first-axis slices,
# so it is never smaller than one slice of resolution ** (n - 1) values.
_BLOCK = 1 << 18


def _axes(spec: GridSpec) -> List[np.ndarray]:
    return [np.linspace(lo, hi, spec.resolution) for lo, hi in spec.bounds]


def _mesh(axes: List[np.ndarray]) -> np.ndarray:
    """Points of the tensor grid of ``axes`` in lexicographic order, shape (N, len(axes))."""
    if not axes:
        return np.zeros((1, 0))
    return np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=1)


def grid_points(spec: GridSpec) -> np.ndarray:
    """All grid points in lexicographic (row-major) order, shape (N, n)."""
    return _mesh(_axes(spec))


def _scan(quads, spec: GridSpec) -> Iterator[Tuple[int, List[np.ndarray]]]:
    """Values of ``quads`` on the grid in lexicographic order, one block of
    whole first-axis slices at a time: (flat index of the block's first point,
    a flat value array per quadratic, overwritten by the next block)."""
    axes = _axes(spec)
    y = _mesh(axes[1:])
    # q(x0, y) = A00 x0^2 + 2 x0 (A[0,1:] y + a[0]) + q_rest(y), with the two
    # functions of y evaluated once on the rest grid.  q_rest has no
    # variable when n = 1, which construction refuses, so it is built as
    # checked data.
    parts = [(q.A[0, 0], y @ q.A[0, 1:] + q.a[0],
              evaluate_many(QuadForm._from_checked(q.A[1:, 1:], q.a[1:], q.a0), y)) for q in quads]
    step = max(1, _BLOCK // len(y))
    buffers = np.empty((len(quads), step, len(y)))
    for i in range(0, spec.resolution, step):
        x0 = axes[0][i:i + step, None]
        values = buffers[:, :len(x0)]
        for (c, lin, rest), v in zip(parts, values):
            np.multiply(2.0 * x0, lin, out=v)
            v += c * x0 * x0
            v += rest
        yield i * len(y), [v.ravel() for v in values]


def _point(spec: GridSpec, index: int) -> np.ndarray:
    """The grid point at a flat lexicographic index."""
    ijk = np.unravel_index(index, (spec.resolution,) * spec.n)
    return np.array([ax[i] for ax, i in zip(_axes(spec), ijk)])


def grid_min(f: QuadForm, g: QuadForm, h: QuadForm, spec: GridSpec) -> OracleResult:
    """Minimum of f over grid points with g <= eps and h <= eps.

    Ties break to the lexicographically smallest grid point; the value is f
    evaluated at that point.
    """
    _check_dim(f.n)
    best, best_value, count = None, np.inf, 0
    for start, (fv, gv, hv) in _scan((f, g, h), spec):
        feasible = (gv <= spec.eps) & (hv <= spec.eps)
        count += int(np.count_nonzero(feasible))
        fv[~feasible] = np.inf
        j = int(np.argmin(fv))
        # Strictly smaller: an equal value in a later block is a later point.
        if fv[j] < best_value:
            best, best_value = start + j, fv[j]
    if best is None:
        return OracleResult(None, None, count, spec.spacing)
    x = _point(spec, best)
    return OracleResult(float(evaluate_many(f, x[None])[0]), x, count, spec.spacing)


_SIGN_OPS = {">": np.greater, ">=": np.greater_equal}


def find_witness(
    g: QuadForm,
    h: QuadForm,
    signs: Tuple[str, str],
    spec: GridSpec,
    seed: int = 0,
    n_samples: int = 10_000,
    margin: float = 1e-9,
) -> Optional[np.ndarray]:
    """First point matching a strict/weak sign pattern such as (g>0, h>=0).

    Strict comparisons require a value above ``margin``; weak ones allow
    values down to ``-margin``.  The grid is scanned in lexicographic order
    first, then seeded uniform samples; the first hit is returned.
    """
    _check_dim(g.n)
    for s in signs:
        if s not in _SIGN_OPS:
            raise ValueError(f"sign must be '>' or '>=', got {s!r}")

    def first_hit(gv: np.ndarray, hv: np.ndarray) -> Optional[int]:
        mask = np.ones(len(gv), dtype=bool)
        for vals, s in ((gv, signs[0]), (hv, signs[1])):
            mask &= _SIGN_OPS[s](vals, margin if s == ">" else -margin)
        hits = np.flatnonzero(mask)
        return int(hits[0]) if len(hits) else None

    for start, (gv, hv) in _scan((g, h), spec):
        j = first_hit(gv, hv)
        if j is not None:
            return _point(spec, start + j)
    rng = np.random.default_rng(seed)
    lo, hi = np.array(spec.bounds).T
    samples = rng.uniform(lo, hi, size=(n_samples, g.n))
    j = first_hit(evaluate_many(g, samples), evaluate_many(h, samples))
    return None if j is None else samples[j].copy()


def s1_empirical(f: QuadForm, gamma: float, g: QuadForm, h: QuadForm,
                 spec: GridSpec, tol: float = 1e-8) -> bool:
    """True iff no grid-feasible point has f < gamma - tol."""
    res = grid_min(f, g, h, spec)
    return res.min_value is None or res.min_value >= gamma - tol


def probe_unbounded(f: QuadForm, g: QuadForm, h: QuadForm, spec: GridSpec) -> Optional[np.ndarray]:
    """A feasible grid point with f below -1e6, enlarging the box x8 per
    round for four rounds, or None.  Evidence (not proof) of unboundedness."""
    current = spec
    for _ in range(4):
        current = current.scaled(8.0)
        res = grid_min(f, g, h, current)
        if res.min_value is not None and res.min_value < -1e6:
            return res.argmin
    return None
