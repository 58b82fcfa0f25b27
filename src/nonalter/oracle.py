"""Brute-force ground truth for desk-scale problems (n <= 3).

Everything here is a test fixture, not a solver: exhaustive grid
minimization, sign-pattern witness search, and empirical checking of
"no feasible point beats gamma".  All outputs are bit-for-bit
deterministic for a fixed spec and seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Tuple

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
            if not lo < hi:
                raise ValueError("grid bounds need lo < hi")
        if self.resolution < 3:
            raise ValueError("resolution must be at least 3")
        if self.eps < 0:
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


@lru_cache(maxsize=8)
def _grid_points_cached(bounds: Tuple[Tuple[float, float], ...], resolution: int) -> np.ndarray:
    axes = [np.linspace(lo, hi, resolution) for lo, hi in bounds]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=1)
    pts.setflags(write=False)
    return pts


def grid_points(spec: GridSpec) -> np.ndarray:
    """All grid points in lexicographic (row-major) order, shape (N, n)."""
    return _grid_points_cached(spec.bounds, spec.resolution)


def grid_min(f: QuadForm, g: QuadForm, h: QuadForm, spec: GridSpec) -> OracleResult:
    """Minimum of f over grid points with g <= eps and h <= eps.

    Ties break to the lexicographically smallest grid point.
    """
    _check_dim(f.n)
    pts = grid_points(spec)
    feasible = (evaluate_many(g, pts) <= spec.eps) & (evaluate_many(h, pts) <= spec.eps)
    count = int(feasible.sum())
    if count == 0:
        return OracleResult(None, None, 0, spec.spacing)
    fv = evaluate_many(f, pts[feasible])
    j = int(np.argmin(fv))
    return OracleResult(float(fv[j]), pts[feasible][j].copy(), count, spec.spacing)


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

    def match(pts: np.ndarray) -> Optional[np.ndarray]:
        gv, hv = evaluate_many(g, pts), evaluate_many(h, pts)
        mask = np.ones(len(pts), dtype=bool)
        for vals, s in ((gv, signs[0]), (hv, signs[1])):
            cut = margin if s == ">" else -margin
            mask &= vals > cut if s == ">" else vals >= cut
        if mask.any():
            return pts[int(np.flatnonzero(mask)[0])].copy()
        return None

    hit = match(grid_points(spec))
    if hit is not None:
        return hit
    rng = np.random.default_rng(seed)
    lo = np.array([b[0] for b in spec.bounds])
    hi = np.array([b[1] for b in spec.bounds])
    samples = rng.uniform(lo, hi, size=(n_samples, g.n))
    return match(samples)


def s1_empirical(f: QuadForm, gamma: float, g: QuadForm, h: QuadForm,
                 spec: GridSpec, tol: float = 1e-8) -> bool:
    """True iff no grid-feasible point has f < gamma - tol."""
    _check_dim(f.n)
    pts = grid_points(spec)
    feasible = (evaluate_many(g, pts) <= spec.eps) & (evaluate_many(h, pts) <= spec.eps)
    if not feasible.any():
        return True
    return bool(np.min(evaluate_many(f, pts[feasible])) >= gamma - tol)


def probe_unbounded(
    f: QuadForm,
    g: QuadForm,
    h: QuadForm,
    spec: GridSpec,
    threshold: float = -1e6,
    enlargements: int = 4,
) -> Optional[np.ndarray]:
    """A feasible grid point with f below ``threshold``, enlarging the box x8
    per round, or None.  Evidence (not proof) of unboundedness."""
    _check_dim(f.n)
    current = spec
    for _ in range(enlargements):
        current = current.scaled(8.0)
        pts = grid_points(current)
        feasible = (evaluate_many(g, pts) <= current.eps) & (
            evaluate_many(h, pts) <= current.eps
        )
        if not feasible.any():
            continue
        fv = evaluate_many(f, pts[feasible])
        j = int(np.argmin(fv))
        if fv[j] < threshold:
            return pts[feasible][j].copy()
    return None
