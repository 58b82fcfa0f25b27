"""Independent check of each report, from the problem data and the report alone.

The check reads the problem document and the JSON text the request printed;
it calls no solver code.  Strong duality for these problems is an S-lemma
statement (Pólik & Terlaky, SIAM Review 49, 2007), so every certificate is
checked as one: a primal point that is feasible and reaches the value, and a
multiplier combination that bounds the value from below.

Each report gets one outcome:

* ``pass``: every claim the report makes was verified;
* ``unverified``: the report claims a certified result the check cannot
  confirm;
* ``refuted``: the check contradicts the report;
* ``failure``: the request raised or reported ``numerical_failure``.

Everything but ``pass`` counts as failed.  ``refuted`` also makes the run
incorrect.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

TOL = 1e-6  # relative tolerance on values and feasibility
PSD_TOL = 1e-8  # relative tolerance on smallest eigenvalues
UNBOUNDED_BELOW = -1e6  # value that counts as evidence of unboundedness


class Quad:
    """q(x) = x'Ax + 2a'x + a0, read straight from a problem document."""

    def __init__(self, d: dict):
        self.A = np.asarray(d["A"], dtype=float)
        self.A = (self.A + self.A.T) / 2.0
        self.a = np.asarray(d["a"], dtype=float)
        self.a0 = float(d["a0"])

    def __call__(self, x: np.ndarray) -> float:
        return float(x @ self.A @ x + 2.0 * self.a @ x + self.a0)

    def scale_at(self, x: np.ndarray) -> float:
        """Size of the terms summed in q(x), the yardstick for its rounding."""
        r = float(np.linalg.norm(x))
        return 1.0 + np.abs(self.A).max() * r * r + 2.0 * np.abs(self.a).max() * r + abs(self.a0)

    def lift(self) -> np.ndarray:
        n = len(self.a)
        M = np.empty((n + 1, n + 1))
        M[0, 0] = self.a0
        M[0, 1:] = self.a
        M[1:, 0] = self.a
        M[1:, 1:] = self.A
        return M


def _num(v) -> Optional[float]:
    """A JSON number, with the report's "inf"/"-inf"/"nan" strings decoded."""
    if v is None:
        return None
    return float(v)


def _close(x: float, y: float, scale: float) -> bool:
    return abs(x - y) <= TOL * (1.0 + abs(x) + abs(y) + scale)


def quad_inf(Q: np.ndarray, v: np.ndarray, s: float) -> float:
    """inf_x x'Qx + 2v'x + s, or -inf."""
    w, V = np.linalg.eigh(Q)
    big = max(1.0, float(np.abs(w).max(initial=0.0)))
    if w[0] < -PSD_TOL * big:
        return -math.inf
    c = V.T @ v
    zero = w <= PSD_TOL * big
    if zero.any() and float(np.linalg.norm(c[zero])) > 1e-8 * (1.0 + float(np.linalg.norm(v))):
        return -math.inf
    return float(s - np.sum(c[~zero] ** 2 / w[~zero]))


def _positive_combination(g: Quad, h: Optional[Quad]) -> bool:
    """S-lemma certificate of infeasibility: some (1-t)g + t*h, t in [0, 1],
    is bounded below by a positive constant, so g and h are never both <= 0."""
    gn = max(float(np.abs(g.lift()).max()), 1e-300)
    if h is None:
        return quad_inf(g.A / gn, g.a / gn, g.a0 / gn) > PSD_TOL
    hn = max(float(np.abs(h.lift()).max()), 1e-300)

    def psi(t: float) -> float:
        return quad_inf((1 - t) * g.A / gn + t * h.A / hn,
                        (1 - t) * g.a / gn + t * h.a / hn,
                        (1 - t) * g.a0 / gn + t * h.a0 / hn)

    ts = np.linspace(0.0, 1.0, 201)
    vals = [psi(t) for t in ts]
    j = int(np.argmax(vals))
    if vals[j] > PSD_TOL:
        return True
    if vals[j] == -math.inf:
        return False
    # psi is concave: golden-section search in the two cells around the best.
    lo, hi = ts[max(j - 1, 0)], ts[min(j + 1, len(ts) - 1)]
    r = (math.sqrt(5) - 1) / 2
    for _ in range(60):
        m1, m2 = hi - r * (hi - lo), lo + r * (hi - lo)
        if psi(m1) < psi(m2):
            lo = m1
        else:
            hi = m2
    return psi(0.5 * (lo + hi)) > PSD_TOL


def _unbounded_evidence(f: Quad, g: Quad, h: Optional[Quad]) -> bool:
    """A feasible point with f below -1e6 times the data scale, on rays from
    the origin along eigenvectors of the data and seeded random directions."""
    n = len(f.a)
    mats = [f.A, g.A] + ([h.A] if h is not None else [])
    mats += [f.A + m for m in mats[1:]]
    dirs = [np.linalg.eigh(m)[1].T for m in mats]
    rnd = np.random.default_rng(0).normal(size=(64, n))
    dirs.append(rnd / np.linalg.norm(rnd, axis=1, keepdims=True))
    dirs = np.vstack(dirs)
    dirs = np.vstack([dirs, -dirs])
    limit = UNBOUNDED_BELOW * (1.0 + float(np.abs(f.lift()).max()))
    for t in np.geomspace(1.0, 1e8, 33):
        for x in t * dirs:
            if g(x) <= 0 and (h is None or h(x) <= 0) and f(x) < limit:
                return True
    return False


def _dual_certificate(f: Quad, g: Quad, h: Quad, best: dict, nu: float) -> bool:
    """The slack Z = M(f) - gamma*E00 + l1*M(g) + l2*M(h) is PSD and gamma = nu."""
    l1, l2, gamma = _num(best["lambda1"]), _num(best["lambda2"]), _num(best["gamma"])
    if min(l1, l2) < 0:
        return False
    Z = f.lift() + l1 * g.lift() + l2 * h.lift()
    Z[0, 0] -= gamma
    w = np.linalg.eigvalsh(Z)
    psd = w[0] >= -PSD_TOL * (1.0 + float(np.abs(w).max()))
    return bool(psd) and _close(gamma, nu, 0.0)


def _feasible(q: Quad, x: np.ndarray) -> bool:
    return q(x) <= TOL * q.scale_at(x)


def check_solve(doc: dict, payload: dict) -> str:
    """Outcome of a ``solve`` report (the ``nonalter solve`` JSON payload)."""
    f, g, h = Quad(doc["f"]), Quad(doc["g"]), Quad(doc["h"])
    rep = payload["report"]
    status = rep["status"]
    name = doc.get("meta", {}).get("name")
    if name in CORPUS_VERDICTS and not CORPUS_VERDICTS[name](rep["classification"]):
        return "refuted"
    if status == "numerical_failure":
        return "failure"
    if not rep["certified"]:
        if status != "estimate_only":
            return "pass"
        dual, nu = rep.get("dual"), _num(rep["nu_star"])
        dual_value = _num(dual.get("value")) if dual else None
        if dual_value is None or not math.isfinite(dual_value):
            return "pass"
        # Weak duality: every dual value bounds the grid estimate from below.
        return "pass" if dual_value <= nu + TOL * (1.0 + abs(nu)) else "refuted"
    if status == "infeasible":
        return "pass" if _positive_combination(g, h) else "unverified"
    if status == "unbounded":
        return "pass" if _unbounded_evidence(f, g, h) else "unverified"
    if status != "solved" or rep["x_star"] is None:
        return "unverified"
    x = np.asarray(rep["x_star"], dtype=float)
    nu = _num(rep["nu_star"])
    if not (_feasible(g, x) and _feasible(h, x) and _close(f(x), nu, f.scale_at(x))):
        return "refuted"
    dual = rep.get("dual")
    if dual is not None and dual.get("best") is not None:
        if not _dual_certificate(f, g, h, dual["best"], nu):
            return "refuted"
    return "pass"


def check_qp1qc(doc: dict, payload: dict) -> str:
    """Outcome of a ``solve --single-constraint`` report: min f s.t. g <= 0."""
    f, g = Quad(doc["f"]), Quad(doc["g"])
    res = payload["single_constraint"]
    status = res["status"]
    if status == "numerical_failure":
        return "failure"
    if status == "infeasible":
        return "pass" if _positive_combination(g, None) else "unverified"
    if status == "unbounded_below":
        return "pass" if _unbounded_evidence(f, g, None) else "unverified"
    if status != "attained":
        return "unverified"
    x = np.asarray(res["x"], dtype=float)
    lam, value = _num(res["lam"]), _num(res["value"])
    if lam < 0 or not _feasible(g, x) or not _close(f(x), value, f.scale_at(x)):
        return "refuted"
    # f + lam*g is bounded below by f(x) everywhere: the one-dimensional
    # dual value at lam equals the primal value, which proves optimality.
    psi = quad_inf(f.A + lam * g.A, f.a + lam * g.a, f.a0 + lam * g.a0)
    if not _close(psi, f(x), f.scale_at(x) + lam * g.scale_at(x)):
        return "refuted"
    return "pass"


def _feasible_witness(q1: Quad, q2: Quad, w) -> bool:
    if w is None:
        return True
    x = np.asarray(w, dtype=float)
    return _feasible(q1, x) and _feasible(q2, x)


def check_classify(doc: dict, payload: dict) -> str:
    """Outcome of a ``classify`` report: corpus verdicts and feasible witnesses."""
    g, h = Quad(doc["g"]), Quad(doc["h"])
    rep = payload["classification"]
    name = doc.get("meta", {}).get("name")
    if name in CORPUS_VERDICTS and not CORPUS_VERDICTS[name](rep):
        return "refuted"
    # Assumption 3 holds with a point of D; assumption 1 may hold with a
    # strict interior point.  Either witness must be feasible.
    for key in ("a3", "a1"):
        v = rep[key]
        if v["verdict"] == "holds" and not _feasible_witness(g, h, v.get("witness")):
            return "refuted"
    return "pass"


def _verdict(rep: dict, k: int) -> str:
    return rep[f"a{k}"]["verdict"]


# Acceptance criterion 1: the corpus verdicts every commit must reproduce.
CORPUS_VERDICTS = {
    "ex22": lambda r: _verdict(r, 2) == "fails",
    "ex23": lambda r: all(i["status"] == "refuted_witness" for i in r["inclusions"])
    and r["overall_class"] == "outside_non_alter",
    "ex24": lambda r: _verdict(r, 2) == "holds",
    "ex25a": lambda r: r["overall_class"] == "non_alter" and r["in_nonalter"] == "holds",
    "ex25b": lambda r: r["in_nonalter"] == "holds",
    "cdt_s2": lambda r: r["overall_class"] == "outside_non_alter",
    "hqpd_s5a": lambda r: _verdict(r, 1) == "fails" and _verdict(r, 2) == "holds",
    "hqpd_s5b": lambda r: _verdict(r, 1) == "holds" and _verdict(r, 2) == "fails",
}

CHECKS = {"solve": check_solve, "classify": check_classify, "qp1qc": check_qp1qc}
