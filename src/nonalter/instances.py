"""Seeded random instance families for demos and randomized testing.

Two constructive families are guaranteed (up to rare numerical borderline
cases) to land in the solvable arrangement class:

* interval: an indefinite base quadratic squeezed between two levels,
  ``g = q0 - u <= 0`` and ``h = l - q0 <= 0`` with l < u;
* shell: two concentric positive-definite ellipsoids, feasible between
  the inner boundary and the outer one.

`random_triple` draws unconstrained coefficient noise for weak-duality
style checks over arbitrary arrangements.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from .quad_core import QuadForm


def random_symmetric(rng: np.random.Generator, n: int) -> np.ndarray:
    M = rng.normal(size=(n, n))
    return (M + M.T) / 2.0


def random_quadform(rng: np.random.Generator, n: int, convex: bool = False) -> QuadForm:
    if convex:
        M = rng.normal(size=(n, n))
        A = M @ M.T / n + 0.2 * np.eye(n)
    else:
        A = random_symmetric(rng, n)
    return QuadForm(A, rng.normal(size=n), float(rng.normal()))


def _indefinite_base(rng: np.random.Generator, n: int) -> QuadForm:
    for _ in range(64):
        A = random_symmetric(rng, n)
        ev = np.linalg.eigvalsh(A)
        if ev[0] < -0.05 and ev[-1] > 0.05:
            return QuadForm(A, rng.normal(size=n), float(rng.normal()))
    raise RuntimeError("failed to draw an indefinite quadratic")  # pragma: no cover


def interval_instance(rng: np.random.Generator, n: int = 2) -> Tuple[QuadForm, QuadForm]:
    """Constraints l <= q0 <= u around an indefinite base quadratic."""
    q0 = _indefinite_base(rng, n)
    x_bar = rng.normal(scale=1.5, size=n)
    v0 = q0(x_bar)
    l = v0 - float(rng.uniform(0.5, 3.0))
    u = v0 + float(rng.uniform(0.5, 3.0))
    g = q0 - u
    h = (-1.0) * q0 + l
    return g, h


def shell_instance(rng: np.random.Generator, n: int = 2) -> Tuple[QuadForm, QuadForm]:
    """Feasible shell between two concentric ellipsoid boundaries."""
    M = rng.normal(size=(n, n))
    P2 = M @ M.T / n + 0.3 * np.eye(n)
    r2 = float(rng.uniform(0.5, 3.0))
    P1 = random_symmetric(rng, n) * 0.2
    P1 = P2 + P1 @ P1.T  # outer shape dominates the inner one up to scaling
    ratio = float(np.max(np.linalg.eigvalsh(np.linalg.solve(P2, P1))))
    r1 = r2 * ratio * float(rng.uniform(1.15, 2.5))
    t = rng.normal(scale=1.0, size=n)
    g = QuadForm(P1, -P1 @ t, float(t @ P1 @ t) - r1)  # (x-t)'P1(x-t) <= r1
    h = QuadForm(-P2, P2 @ t, r2 - float(t @ P2 @ t))  # (x-t)'P2(x-t) >= r2
    return g, h


def random_nonalter_instance(
    rng: np.random.Generator, n: int = 2, convex_objective_prob: float = 0.6
) -> Tuple[QuadForm, QuadForm, QuadForm]:
    """One (f, g, h) from the constructive families, with a random objective."""
    g, h = interval_instance(rng, n) if rng.uniform() < 0.5 else shell_instance(rng, n)
    f = random_quadform(rng, n, convex=rng.uniform() < convex_objective_prob)
    return f, g, h


def random_triple(rng: np.random.Generator, n: int = 2) -> Tuple[QuadForm, QuadForm, QuadForm]:
    """Fully random objective and constraints, any arrangement class."""
    return (
        random_quadform(rng, n),
        random_quadform(rng, n),
        random_quadform(rng, n),
    )
