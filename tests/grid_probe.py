"""A sampling reference for the dual's phase I: psi on a fixed multiplier grid.

The grid is 64 x 64 pairs of u = lam / (1 + lam) on [0, 1 - 1/1024], plus
rays along both axes and the diagonal, in units set by the quadratic parts
(:func:`probe_units`): about 4,200 evaluations of the closed form.  A
finite psi at some pair decides that the dual is not -inf everywhere; no
finite pair decides nothing.
"""

from typing import Optional, Tuple

import numpy as np

from nonalter.quad_core import QuadForm, quad_inf

PROBE_U = np.linspace(0.0, 1.0 - 1.0 / 1024.0, 64)
PROBE_LAMBDAS = PROBE_U / (1.0 - PROBE_U)
AXIS_LAMBDAS = np.geomspace(1e-3, 1e8, 34)


def probe_pairs():
    """The grid's multiplier pairs, as two arrays."""
    lam = PROBE_LAMBDAS
    zeros = np.zeros_like(AXIS_LAMBDAS)
    return (np.concatenate([np.repeat(lam, lam.size), AXIS_LAMBDAS, zeros, AXIS_LAMBDAS]),
            np.concatenate([np.tile(lam, lam.size), zeros, AXIS_LAMBDAS, AXIS_LAMBDAS]))


def probe_units(f: QuadForm, q: QuadForm) -> float:
    """The multiplier of q that one probe unit stands for: max|f.A| / max|q.A|,
    or 1 where either quadratic part vanishes."""
    a, b = float(np.abs(f.A).max()), float(np.abs(q.A).max())
    return a / b if a > 0.0 and b > 0.0 else 1.0


def probe(f: QuadForm, g: QuadForm, h: QuadForm, lam1: np.ndarray, lam2: np.ndarray):
    """psi at a stack of multiplier pairs, from one stacked closed form."""
    Q = f.A + lam1[:, None, None] * g.A + lam2[:, None, None] * h.A
    v = f.a + lam1[:, None] * g.a + lam2[:, None] * h.a
    return quad_inf(Q, v, f.a0 + lam1 * g.a0 + lam2 * h.a0).value


def grid_finite_point(f: QuadForm, g: QuadForm, h: QuadForm) -> Optional[Tuple[float, float, float]]:
    """(lam1, lam2, psi) at the grid's best finite pair, or None."""
    l1, l2 = probe_pairs()
    l1, l2 = l1 * probe_units(f, g), l2 * probe_units(f, h)
    psi = probe(f, g, h, l1, l2)
    if not (psi > -np.inf).any():
        return None
    k = int(np.argmax(psi))
    return float(l1[k]), float(l2[k]), float(psi[k])
