"""Host-speed calibration for the timed metrics.

Shared hosts change speed by tens of percent within minutes.  A fixed numpy
kernel, shaped like the dual's inner loop but running no library code, is
timed alongside the measurements; no change to the library can move it, so
its time follows the host alone.  Timed metrics are reported at reference
speed: a time t measured while a slice took c seconds is reported as
t * REF_S / c.
"""

import time

import numpy as np

REF_S = 0.03  # slice time that defines reference speed
REPS = 2000


def slice_seconds() -> float:
    """Seconds for one calibration slice."""
    M = np.random.default_rng(0).normal(size=(4, 3, 3))
    A, B, C = (m @ m.T for m in M[:3])
    v = M[3, 0]
    t0 = time.perf_counter()
    for k in range(REPS):
        Q = A + (k % 5) * 0.1 * B + (k % 3) * 0.1 * C
        w, V = np.linalg.eigh(Q)
        c = V.T @ v
        float(c @ (c / w))
    return time.perf_counter() - t0
