"""Verdicts and values under a symmetry of the problem: swapping g and h.

The swap permutes the four zero-set inclusions, (I1, I2, I3, I4) of (g, h)
being (I3, I4, I1, I2) of (h, g), and leaves the rest of the arrangement as
it is.  Every read of a request is a function of the data, not of the order
in which the checks ask for it, so the multipliers and witnesses of the two
orders agree bit for bit.
"""

import numpy as np
import pytest

from nonalter import corpus
from nonalter.classify import classify_problem
from nonalter.instances import random_triple
from nonalter.solve import solve_nonalter

#: Inclusion i of (g, h) is inclusion _SWAP[i] of (h, g).
_SWAP = (2, 3, 0, 1)


def _triples():
    """(name, (f, g, h)): the corpus, then 20 seeded draws at each of n = 2, 3, 6."""
    out = [(name, corpus.load(name)[:3]) for name in corpus.NAMES]
    for n in (2, 3, 6):
        rng = np.random.default_rng(900 + n)
        out += [(f"triple{n}_{i}", random_triple(rng, n)) for i in range(20)]
    return out


_TRIPLES = _triples()


def _bits(x):
    return None if x is None else np.asarray(x, dtype=float).tobytes()


def _verdicts(rep):
    return rep.overall_class, rep.in_nonalter, [rep.assumption(k).verdict for k in range(1, 6)]


@pytest.mark.parametrize("name, triple", _TRIPLES, ids=[name for name, _ in _TRIPLES])
def test_swap_permutes_the_inclusions(name, triple):
    _, g, h = triple
    gh, hg = classify_problem(g, h, 1e-8), classify_problem(h, g, 1e-8)
    assert _verdicts(gh) == _verdicts(hg)
    for i, j in enumerate(_SWAP):
        a, b = gh.inclusions[i], hg.inclusions[j]
        assert a.status is b.status, i
        assert _bits(a.lam) == _bits(b.lam), (i, a.lam, b.lam)
        assert _bits(a.witness) == _bits(b.witness), (i, a.witness, b.witness)
    lam = [(rep.a3.certificate or {}).get("lam") for rep in (gh, hg)]
    assert _bits(lam[0]) == _bits(lam[1]), lam


@pytest.mark.parametrize("name", corpus.NAMES)
def test_swap_keeps_the_solve(name):
    f, g, h, _ = corpus.load(name)
    gh, hg = solve_nonalter(f, g, h), solve_nonalter(f, h, g)
    assert (gh.status, gh.certified) == (hg.status, hg.certified)
    if gh.nu_star is None or hg.nu_star is None:
        assert gh.nu_star is hg.nu_star
    else:
        assert hg.nu_star == pytest.approx(gh.nu_star, rel=1e-12, abs=0.0)
