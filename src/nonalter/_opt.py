"""Deterministic one-dimensional maximizers for concave functions.

Concave functions of one multiplier show up everywhere in this package
(dual functions, minimum-eigenvalue pencils).  They are unimodal on their
effective domain, which is always an interval; golden-section search plus a
bisection step to locate the domain edges is robust even when the function
is nonsmooth or jumps to -inf outside its domain.
"""

from __future__ import annotations

import math
from typing import Callable, Optional, Tuple

import numpy as np

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_INV_PHI2 = (3.0 - math.sqrt(5.0)) / 2.0

NEG_INF = -np.inf


def golden_max(fn: Callable[[float], float], lo: float, hi: float, iters: int = 80) -> Tuple[float, float]:
    """Golden-section maximization of a unimodal function on [lo, hi].

    Endpoints are evaluated as well, so boundary maxima are found exactly.
    """
    a, b = float(lo), float(hi)
    if not b > a:
        return a, fn(a)
    h = b - a
    c = a + _INV_PHI2 * h
    d = a + _INV_PHI * h
    yc, yd = fn(c), fn(d)
    for _ in range(iters):
        if yc >= yd:
            b, d, yd = d, c, yc
            h = b - a
            c = a + _INV_PHI2 * h
            yc = fn(c)
        else:
            a, c, yc = c, d, yd
            h = b - a
            d = a + _INV_PHI * h
            yd = fn(d)
        if h <= 1e-14 * (1.0 + abs(a) + abs(b)):
            break
    candidates = [(lo, fn(lo)), (hi, fn(hi)), (c, yc), (d, yd)]
    x, y = max(candidates, key=lambda t: (t[1], -abs(t[0])))
    return x, y


def _bisect_edge(fn, finite_x: float, infinite_x: float, iters: int = 48) -> float:
    """Boundary of the finite region between a finite and an infinite probe."""
    a, b = finite_x, infinite_x
    for _ in range(iters):
        mid = 0.5 * (a + b)
        if fn(mid) > NEG_INF:
            a = mid
        else:
            b = mid
    return a


def maximize_on_interval(
    fn: Callable[[float], float],
    lo: float,
    hi: float,
    probes: int = 33,
    iters: int = 80,
    edge_iters: int = 48,
) -> Tuple[Optional[float], float]:
    """Maximize a concave (hence unimodal) ``fn`` over [lo, hi].

    ``fn`` may return -inf outside its effective domain, which must be an
    interval.  Returns (argmax, value); argmax is None when every probe is
    infinite.
    """
    xs = np.linspace(lo, hi, probes)
    ys = np.array([fn(x) for x in xs])
    finite = ys > NEG_INF
    if not finite.any():
        return None, NEG_INF
    idx = np.flatnonzero(finite)
    left, right = xs[idx[0]], xs[idx[-1]]
    if idx[0] > 0:
        left = _bisect_edge(fn, xs[idx[0]], xs[idx[0] - 1], edge_iters)
    if idx[-1] < len(xs) - 1:
        right = _bisect_edge(fn, xs[idx[-1]], xs[idx[-1] + 1], edge_iters)
    x, y = golden_max(fn, left, right, iters=iters)
    j = int(np.argmax(ys))
    if ys[j] > y:
        x, y = float(xs[j]), float(ys[j])
    return x, y


def map_ray(u: float) -> float:
    """Monotone map of [0, 1) onto [0, inf): u -> u / (1 - u)."""
    return u / (1.0 - u)


def map_line(v: float) -> float:
    """Monotone map of (-1, 1) onto R: v -> v / (1 - v^2)."""
    return v / (1.0 - v * v)


def maximize_concave_ray(
    fn: Callable[[float], float],
    probes: int = 33,
    iters: int = 80,
    u_max: float = 1.0 - 1e-9,
) -> Tuple[Optional[float], float]:
    """Maximize concave ``fn`` over lambda >= 0 through the u/(1-u) map."""
    u, y = maximize_on_interval(lambda u: fn(map_ray(u)), 0.0, u_max, probes, iters)
    return (None, NEG_INF) if u is None else (map_ray(u), y)


def maximize_concave_line(
    fn: Callable[[float], float],
    probes: int = 65,
    iters: int = 80,
    v_max: float = 1.0 - 1e-9,
) -> Tuple[Optional[float], float]:
    """Maximize concave ``fn`` over all of R through the v/(1-v^2) map."""
    v, y = maximize_on_interval(lambda v: fn(map_line(v)), -v_max, v_max, probes, iters)
    return (None, NEG_INF) if v is None else (map_line(v), y)
