"""The inertia short cuts give exactly what the computations they skip give.

Classification skips a canonical reduction where g.A's inertia has no k = 1
(:func:`nonalter.canonical._negative_count`), and classification and the
single-constraint solve skip an unconstrained minimum that the
decomposition already shows unbounded below
(:func:`nonalter.quad_core._curves_down`).  Patching both helpers to answer
"not settled" runs the full computations, which the short cuts must match
bit for bit.  ``evaluate`` reads a finite contiguous float64 vector without
the conversion and checks of ``_to_vector``, which must not change a value
or an exception.
"""

from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nonalter.classify as classify
import nonalter.qp1qc as qp1qc
from nonalter import corpus
from nonalter.canonical import _negative_count, canonical_reduce
from nonalter.instances import random_triple
from nonalter.problem_io import dumps_report
from nonalter.quad_core import (
    RANK_RTOL,
    QuadForm,
    Workspace,
    _to_vector,
    eig_of,
    evaluate,
    sym_eigen,
)


def _triples():
    out = [corpus.load(name)[:3] for name in corpus.NAMES]
    for n in range(1, 7):
        rng = np.random.default_rng(900 + n)
        out += [random_triple(rng, n) for _ in range(40)]
    return out


TRIPLES = _triples()


@contextmanager
def _full_path():
    """Every short cut off: the helpers leave each answer to the full computation."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(classify, "_negative_count", lambda g: 1)
        mp.setattr(classify, "_curves_down", lambda q: False)
        mp.setattr(qp1qc, "_curves_down", lambda q: False)
        yield


def _both_paths(fn, *args):
    """(short cut, full path) of fn(*args), each in a fresh workspace; a
    full path that raises ValueError gives the exception."""
    with Workspace():
        short = fn(*args)
    with _full_path(), Workspace():
        try:
            full = fn(*args)
        except ValueError as exc:
            full = exc
    return short, full


def _zero_sets_agree(g, h):
    for q in (g, h):
        for tol in (1e-9, 1e-8):
            short, full = _both_paths(lambda q: [classify._zero_set_empty(p, tol) for p in (q, -q)], q)
            assert short == full


def _patterns_agree(g, h):
    for p, q in ((g, h), (h, g)):
        short, full = _both_paths(classify._affine_companion, p, q)
        if short is None:
            assert full is None or isinstance(full, ValueError)
            continue
        (change, form, cbar), (change_f, form_f, cbar_f) = short, full
        assert form == form_f and np.array_equal(cbar, cbar_f)
        assert np.array_equal(change.T, change_f.T) and np.array_equal(change.t, change_f.t)
        assert change.s == change_f.s


def _single_constraint_solves_agree(f, g, h):
    for obj, con in ((f, g), (f, h), (g, h), (h, g)):
        for sign in (1, -1):
            short, full = _both_paths(
                lambda p, q: dumps_report(qp1qc.solve_qp1qc(p if sign > 0 else -p, q)), obj, con)
            assert short == full


def _classifications_agree(g, h):
    short, full = _both_paths(lambda g, h: dumps_report(classify.classify_problem(g, h, 1e-8)), g, h)
    if isinstance(full, ValueError):  # only the reduction of a near-constant g raises
        assert "constant quadratic" in str(full)
    else:
        assert short == full


def test_negative_count_is_the_reductions_k():
    # A quadratic the reduction refuses as constant has no negative eigenvalue.
    for _, g, h in TRIPLES:
        for q in (g, h):
            with Workspace():
                try:
                    k = canonical_reduce(q)[1].k
                except ValueError:
                    k = 0
                assert _negative_count(q) == k


@pytest.mark.parametrize("check", [_zero_sets_agree, _patterns_agree, _classifications_agree])
def test_pair_short_cuts_match_the_full_path(check):
    for _, g, h in TRIPLES:
        check(g, h)


def test_single_constraint_short_cut_matches_the_full_path():
    for f, g, h in TRIPLES:
        _single_constraint_solves_agree(f, g, h)


@st.composite
def near_cut_quadratics(draw):
    """A quadratic on R^n whose A has one eigenvalue within 10x of the
    rank cutoff RANK_RTOL * (1 + max|lam|), of either sign."""
    coefficient = st.integers(-40, 40).map(lambda k: k / 10.0)
    n = draw(st.integers(1, 4))
    big = draw(st.lists(coefficient, min_size=n - 1, max_size=n - 1))
    factor = draw(st.floats(0.1, 10.0)) * draw(st.sampled_from((-1.0, 1.0)))
    lam = np.array(big + [factor * RANK_RTOL * (1.0 + max(map(abs, big), default=0.0))])
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    V, _ = np.linalg.qr(rng.normal(size=(n, n)))
    a = draw(st.lists(coefficient, min_size=n, max_size=n))
    return QuadForm((V * lam) @ V.T, a, draw(coefficient))


@settings(max_examples=60, deadline=None)
@given(near_cut_quadratics(), st.integers(0, 2**32 - 1), st.booleans())
def test_short_cuts_match_near_the_cutoff(q, seed, first):
    rng = np.random.default_rng(seed)
    other = QuadForm(rng.normal(size=(q.n, q.n)), rng.normal(size=q.n), float(rng.normal()))
    f = QuadForm(rng.normal(size=(q.n, q.n)), rng.normal(size=q.n), 0.0)
    g, h = (q, other) if first else (other, q)
    _zero_sets_agree(g, h)
    _patterns_agree(g, h)
    _single_constraint_solves_agree(f, g, h)
    _classifications_agree(g, h)
    # The decomposition read without validation is sym_eigen's of the
    # canonical member of q and -q, negated for the other.
    with Workspace() as ws:
        c, s = ws.canonical(q)
        for lifted in (False, True):
            ref = sym_eigen(ws.matrix(c, lifted))
            ed, ref = eig_of(q, lifted), ref.negated() if s < 0 else ref
            assert np.array_equal(ed.values, ref.values) and np.array_equal(ed.vectors, ref.vectors)


def _evaluate_through_to_vector(q, x):
    """evaluate as it was: every input converted and checked first."""
    x = _to_vector(x, q.n)
    return float(x @ q.A @ x + 2.0 * (q.a @ x) + q.a0)


def _outcome(fn, *args):
    """The value's repr, exact for every float and nan, or the ValueError."""
    try:
        return repr(fn(*args))
    except ValueError as exc:
        return type(exc), str(exc)


class TestEvaluate:
    Q = QuadForm([[2.0, -1.0, 0.5], [-1.0, 0.25, 0.0], [0.5, 0.0, -3.0]], [0.3, -1.5, 2.0], -0.7)
    ROWS = np.arange(12.0).reshape(4, 3) / 7.0

    @pytest.mark.parametrize("x", [
        [1.0, -2.0, 0.5], [1, 2, 3], (0.1, 0.2, 0.3),
        np.array([1.5, -0.25, 3.0]), np.array([1.5, -0.25, 3.0], dtype=np.float32),
        np.array([1, 2, 3]), ROWS[2], ROWS[:, 1], ROWS[::-1, 0][:3],
        [1e200, 1e200, 1e200], np.array([1e-320, 0.0, -1e-320]),
    ])
    def test_values_match(self, x):
        with np.errstate(over="ignore", invalid="ignore"):
            assert _outcome(evaluate, self.Q, x) == _outcome(_evaluate_through_to_vector, self.Q, x)

    @pytest.mark.parametrize("x", [
        [1.0, 2.0], np.zeros(4), np.zeros((1, 3)), 1.0, np.float64(2.0), np.array(2.0),
        np.array([np.nan, 0.0, 0.0]), np.array([0.0, np.inf, 0.0]), np.array([0.0, 0.0, -np.inf]),
        [np.nan, 1.0, 1.0], np.array([np.inf, 0.0, 0.0], dtype=np.float32),
    ])
    def test_exceptions_match(self, x):
        want = _outcome(_evaluate_through_to_vector, self.Q, x)
        assert isinstance(want, tuple) and _outcome(evaluate, self.Q, x) == want

    def test_one_dimensional_scalars(self):
        q = QuadForm([[2.0]], [0.5], 1.0)
        for x in (3, 3.0, np.float64(3.0), np.array(3.0), np.array([3.0]), [3]):
            assert evaluate(q, x) == _evaluate_through_to_vector(q, x) == 22.0
