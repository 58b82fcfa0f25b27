"""Seeded request schedules for the four benchmark workloads.

A request is a ``Request(label, kind, doc)``: ``kind`` names the CLI path
it follows (``solve``, ``classify`` or ``qp1qc``) and ``doc`` is a problem
document in the schema of ``nonalter.problem_io``.  A schedule is at most
one large *head* request, sent once before the timed window, and a *cycle*
that repeats inside the window.  A traced run sends the head, any
``traced_extra`` requests and one cycle.  The kinds, sizes and order of the
requests are fixed; the seed chooses the numbers inside the cycle requests,
so two seeds give runs of the same shape and different data.  Head and extra
requests are the same instances for every seed.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from nonalter import corpus
from nonalter.instances import (
    interval_instance,
    random_nonalter_instance,
    random_quadform,
    random_triple,
)
from nonalter.quad_core import QuadForm

WORKLOADS = ("solve_inclass", "solve_outside", "classify_only", "single_constraint")

# Cycles pre-generated per run: about as many requests as a timed window sends
# on the reference host.  The window wraps around to the first cycle if it
# gets through all of them; the requests it does not reach run after it.
CYCLES = {"solve_inclass": 2, "solve_outside": 2, "classify_only": 5, "single_constraint": 48}
HEAD_SEED = 0  # head and warm-up requests are drawn from this seed whatever --seed is


@dataclass(frozen=True)
class Request:
    label: str
    kind: str
    doc: dict


@dataclass(frozen=True)
class Schedule:
    head: Tuple[Request, ...]
    cycles: Tuple[Tuple[Request, ...], ...]
    warmup: Request
    traced_extra: Tuple[Request, ...] = ()

    def window_order(self) -> List[Request]:
        """Cycle requests in the order the timed window sends them."""
        return [r for c in self.cycles for r in c]

    def traced_order(self) -> List[Request]:
        """The fixed request list of a traced run: head, extra, one cycle."""
        return list(self.head) + list(self.traced_extra) + list(self.cycles[0])

    def documents(self) -> List[dict]:
        """The documents a set-up probe parses: warm-up, head and the first
        cycle, the same amount of parsing however many cycles a run holds."""
        return [r.doc for r in [self.warmup, *self.head, *self.cycles[0]]]

    def digest(self) -> str:
        text = json.dumps(
            [[r.label, r.kind, r.doc] for r in [self.warmup, *self.head] + self.window_order()],
            sort_keys=True,
        )
        return hashlib.sha256(text.encode()).hexdigest()


def _qdict(q: QuadForm) -> dict:
    return {"A": q.A.tolist(), "a": q.a.tolist(), "a0": q.a0}


def _doc(f: QuadForm, g: QuadForm, h: QuadForm, name: str) -> dict:
    return {"n": f.n, "f": _qdict(f), "g": _qdict(g), "h": _qdict(h), "meta": {"name": name}}


def corpus_doc(name: str) -> dict:
    doc = json.loads(corpus.corpus_path(name).read_text(encoding="utf-8"))
    doc.setdefault("meta", {})["name"] = name
    return doc


def _scaled_f(doc: dict, k: int) -> dict:
    """The same problem with the objective multiplied by 10**k."""
    if k == 0:
        return doc
    s = 10.0 ** k
    f = doc["f"]
    out = dict(doc)
    out["f"] = {
        "A": [[s * v for v in row] for row in f["A"]],
        "a": [s * v for v in f["a"]],
        "a0": s * f["a0"],
    }
    out["meta"] = {**doc.get("meta", {}), "f_scale": s}
    return out


def _inclass(rng, n: int, name: str) -> dict:
    # Convex objectives, so that a request's cost does not hinge on whether a
    # nonconvex objective happens to be unbounded (which skips the dual's
    # refinement and the recovery).
    f, g, h = random_nonalter_instance(rng, n, convex_objective_prob=1.0)
    return _doc(f, g, h, name)


def _inclass_unbounded(rng, n: int, name: str) -> dict:
    """An interval pair l <= q0 <= u (unbounded, since q0 is indefinite) under a
    concave objective: the dual is infeasible everywhere and the oracle's
    unboundedness probe runs."""
    g, h = interval_instance(rng, n)
    f = QuadForm(-float(rng.uniform(0.5, 2.0)) * np.eye(n), rng.normal(size=n), float(rng.normal()))
    return _doc(f, g, h, name)


def _triple(rng, n: int, name: str) -> dict:
    f, g, h = random_triple(rng, n)
    return _doc(f, g, h, name)


def _outside(rng, n: int, name: str) -> dict:
    """``random_triple`` with a convex objective.  Almost every such pair lies
    outside the class, and a convex f keeps the dual finite at lambda = 0, so
    every request runs classification, the full dual maximization and the grid
    oracle instead of stopping early on an unbounded objective."""
    f = random_quadform(rng, n, convex=True)
    return _doc(f, random_quadform(rng, n), random_quadform(rng, n), name)


def _trust_region_pair(rng, n: int, hard: bool, name: str) -> dict:
    """min f s.t. g <= 0 with g convex and {g <= 0} nonempty (it holds c).

    Hard-case pairs use a ball constraint and an objective whose linear term
    is orthogonal to the eigenvector of the smallest eigenvalue, with the
    regular part of the step strictly inside the ball, so the optimal
    multiplier makes f.A + lam*g.A singular (Moré & Sorensen 1983).
    """
    c = rng.normal(size=n)
    r = float(rng.uniform(0.5, 2.0))
    if hard:
        P = np.eye(n)
        Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        d = np.sort(rng.normal(size=n))
        d[0] = -abs(d[0]) - 0.5
        if n > 1:
            d[1:] = np.maximum(d[1:], d[0] + 0.5)
        A = (Q * d) @ Q.T
        z = np.concatenate([[0.0], rng.normal(size=n - 1)])
        z *= 0.25 * r / max(float(np.linalg.norm(z)), 1e-300)
        b = Q @ ((d - d[0]) * z)  # (A - d0 I)^+ b = Q z, of norm r/4
        f0 = float(rng.normal())
        f = QuadForm(A, b - A @ c, float(c @ A @ c - 2 * b @ c + f0))
    else:
        M = rng.normal(size=(n, n))
        P = M @ M.T / n + 0.2 * np.eye(n)
        f = random_quadform(rng, n)
    g = QuadForm(P, -P @ c, float(c @ P @ c) - r * r)  # (x-c)'P(x-c) <= r^2
    h = QuadForm.constant(n, -1.0)  # unused by the single-constraint path
    return _doc(f, g, h, name)


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def _cap(n: int, tiny: bool) -> int:
    return min(n, 2) if tiny else n


def build_schedule(workload: str, seed: int, tiny: bool = False) -> Schedule:
    """The request schedule of one workload for one seed.

    ``tiny`` keeps the shape but drops head and extra requests, caps every
    size at n = 2 and keeps four requests of one cycle; the self-tests use it.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    make = {
        "solve_inclass": _solve_inclass,
        "solve_outside": _solve_outside,
        "classify_only": _classify_only,
        "single_constraint": _single_constraint,
    }[workload]
    head, extra, cycle_fn, warmup = make(tiny)
    n_cycles = 1 if tiny else CYCLES[workload]
    cycles = tuple(tuple(cycle_fn(_rng(seed, 1 + i)))[: 4 if tiny else None] for i in range(n_cycles))
    if tiny:
        head, extra = (), ()
    return Schedule(tuple(head), cycles, warmup, tuple(extra))


def _solve_inclass(tiny: bool):
    # The n = 50 solve takes 10 to 13 s, half a window, so it runs only in
    # traced runs; before the window of a timed run it would change no
    # end-to-end metric and add its time to every run.
    extra = [Request("r50", "solve", _inclass(_rng(HEAD_SEED, 0), 50, "r50"))]

    def cycle(rng):
        # (slot, k): f is scaled by 10**k.  The 10**4 requests reach the
        # lambda <= 1023 multiplier cap.  The scaled slots are fixed, so every
        # run has the same share of them; the seed draws the random problems.
        # Fixed corpus problems make up most of the middle of the latency
        # distribution, which keeps the median from following the seed.
        slots = (("ex24", 0), ("r2", 0), ("ex25a", 0), ("ex24", 4), ("r10", 0),
                 ("gtrs", 0), ("r2", 2), ("u2", 0), ("gtrs", 2), ("r20", 0),
                 ("ex25a", 2), ("r2", 4), ("r10", 0))
        for s, k in slots:
            if s == "u2":
                doc = _inclass_unbounded(rng, 2, s)
            elif s.startswith("r"):
                doc = _inclass(rng, _cap(int(s[1:]), tiny), s)
            else:
                doc = corpus_doc(s)
            yield Request(s if k == 0 else f"{s}x1e{k}", "solve", _scaled_f(doc, k))

    return [], extra, cycle, Request("qp1qc_embed", "solve", corpus_doc("qp1qc_embed"))


def _solve_outside(tiny: bool):
    head = [Request("t3", "solve", _outside(_rng(HEAD_SEED, 0), 3, "t3"))]

    def cycle(rng):
        for name in ("ex22", "ex23", "cdt_s2", "hqpd_s5a", "hqpd_s5b"):
            yield Request(name, "solve", corpus_doc(name))
            yield Request("t2", "solve", _outside(rng, 2, "t2"))

    return head, [], cycle, Request("qp1qc_embed", "solve", corpus_doc("qp1qc_embed"))


def _classify_only(tiny: bool):
    def cycle(rng):
        for name in corpus.NAMES:
            yield Request(name, "classify", corpus_doc(name))
        # One n = 3 pair per cycle of 19: its grid search takes about 1 s,
        # three times the others, so a run has 4 to 8 of them and the tail
        # sample (the 11th slowest) always falls among the next group.
        for n in (2, 6, 2, 6, 3, 2, 6, 2, 6):
            yield Request(f"t{n}", "classify", _triple(rng, _cap(n, tiny), f"t{n}"))

    return [], [], cycle, Request("ex24", "classify", corpus_doc("ex24"))


def _single_constraint(tiny: bool):
    def cycle(rng):
        # Five of eight requests at n = 2 keep the median inside one size.
        for n, hard in ((2, False), (2, True), (2, False), (10, False),
                        (2, False), (10, True), (2, False), (50, False)):
            n = _cap(n, tiny)
            label = f"p{n}{'h' if hard else ''}"
            yield Request(label, "qp1qc", _trust_region_pair(rng, n, hard, label))

    warm = _trust_region_pair(_rng(HEAD_SEED, 0), 2, False, "p2")
    return [], [], cycle, Request("p2", "qp1qc", warm)
