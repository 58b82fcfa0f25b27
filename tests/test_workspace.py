"""The per-request workspace: what a request leaves behind, and calls nested in it."""

import gc

import numpy as np

from nonalter import corpus
from nonalter.classify import (
    check_assumption1,
    check_assumption2,
    check_assumption3,
    check_assumption4,
    check_assumption5,
    check_inclusion_zeroset,
    classify_problem,
)
from nonalter.instances import random_nonalter_instance, random_triple
from nonalter.problem_io import dumps_report
from nonalter.qp1qc import solve_qp1qc
from nonalter.quad_core import EigenDecomp, QuadForm, UnconstrainedMin, Workspace, _PencilSolve
from nonalter.solve import solve_nonalter


def _instances():
    """(f, g, h) data: the corpus, then seeded draws at n = 2, 3, 6."""
    out = [corpus.load(name)[:3] for name in corpus.NAMES]
    for n in (2, 3, 6):
        rng = np.random.default_rng(40 + n)
        out += [random_nonalter_instance(rng, n) for _ in range(4)]
        out += [random_triple(rng, n) for _ in range(2)]
    return [[(q.A.copy(), q.a.copy(), q.a0) for q in triple] for triple in out]


def test_requests_leave_no_cycles():
    # Reference counting frees every quadratic, decomposition, pencil solve
    # and minimum of a request when it returns: with the collector off,
    # nothing of them is left for it to find.
    data = _instances()
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        for i in range(200):
            f, g, h = (QuadForm(*q) for q in data[i % len(data)])
            if i % 2:
                classify_problem(g, h, 1e-9)
            else:
                solve_nonalter(f, g, h)
        gc.collect()
        left = {type(obj).__name__ for obj in gc.garbage}
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    kinds = {cls.__name__ for cls in (QuadForm, EigenDecomp, _PencilSolve, UnconstrainedMin)}
    assert not kinds & left, kinds & left


def test_nested_calls_report_as_alone():
    # A public call inside another request's workspace, after that request's
    # work, gives the report it gives as a request of its own, whatever the
    # orientation in which it asks for the pencils of (g, h): each read is a
    # function of the data, not of the order of the checks.  The checkers
    # of (g, h) share that request's candidate set.  -h is asked for as
    # built in the call and as built outside any request, which the
    # workspace does not know as h's negation.
    def calls(f, g, h, neg_h):
        return [
            classify_problem(g, h, 1e-9),
            classify_problem(h, g, 1e-9),
            check_assumption1(g, h),
            check_assumption2(g, h)[0],
            check_assumption3(g, h),
            check_inclusion_zeroset(g, h, +1),
            check_assumption4(g, h),
            check_assumption5(h, g),
            solve_qp1qc(f, g),
            solve_qp1qc(h, g),
            solve_qp1qc(g, h),
            solve_qp1qc(-h, g),
            solve_qp1qc(neg_h, g),
        ]

    for data in _instances():
        f, g, h = (QuadForm(*q) for q in data)
        neg_h = -h
        alone = [dumps_report(r) for r in calls(f, g, h, neg_h)]
        with Workspace():
            solve_nonalter(f, g, h)
            nested = [dumps_report(r) for r in calls(f, g, h, neg_h)]
        assert nested == alone
