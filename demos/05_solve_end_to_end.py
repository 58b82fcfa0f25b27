#!/usr/bin/env python3
"""End to end: classify, reduce or dual-solve, recover, cross-check.

The orchestrator dispatches on the arrangement class: redundant or
degenerate constraints exit through single-constraint solves, and the
certified class goes through the two-multiplier dual plus solution
recovery.  Outside the class the dual still runs: when its minimizer is
feasible at the dual value, weak duality certifies it (ex23, cdt_s2,
hqpd_s5a, hqpd_s5b); only where it is not (ex22, with a duality gap) does
the report fall back to a brute-force estimate, clearly flagged as
non-certified.  Every recovered point carries its residuals in the report.
"""

import numpy as np

from nonalter import corpus, grid_min, solve_nonalter
from nonalter.oracle import GridSpec

print(__doc__)

for name in corpus.NAMES:
    f, g, h, meta = corpus.load(name)
    rep = solve_nonalter(f, g, h)
    line = f"{name:12s} [{rep.classification.overall_class.value:22s}] {rep.status:13s}"
    if rep.nu_star is not None:
        line += f" value = {rep.nu_star:.9g}"
    if rep.x_star is not None:
        line += f" at {np.round(rep.x_star, 6)}"
    if not rep.certified:
        line += "  (not certified)"
    print(line)
    if rep.residuals is not None:
        fr, gr, hr = rep.residuals
        print(f"{'':12s} residuals: f-nu = {fr:.2e}, g = {gr:.2e}, h = {hr:.2e}")

# Cross-check one certified solve against the brute-force grid.
print("\ncross-check on the elliptic shell:")
f, g, h, _ = corpus.load("ex25a")
rep = solve_nonalter(f, g, h)
o = grid_min(f, g, h, GridSpec.cube(2, resolution=801, eps=0.0))
print(f"  certified value {rep.nu_star:.9g} at {np.round(rep.x_star, 6)}")
print(f"  grid minimum    {o.min_value:.9g} at {o.argmin} "
      f"(agrees within one grid step)")

# The pathway trace records which case of the dispatch fired.
print("\npathway for the degenerate one-variable pattern:")
from nonalter.quad_core import QuadForm

f1 = QuadForm([[1.0]], [0.0], 0.0)        # x^2
g1 = QuadForm([[-1.0]], [0.0], 1.0)       # -x^2 + 1 <= 0
h1 = QuadForm([[0.0]], [0.5], -1.0)       # x - 1 <= 0
rep = solve_nonalter(f1, g1, h1)
for step in rep.pathway:
    print("  ", step)
print(f"  value = {rep.nu_star} at x = {rep.x_star}  "
      "(the isolated point x = 1 and the halfspace both reach 1)")
