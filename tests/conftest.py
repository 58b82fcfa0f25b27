import numpy as np
import pytest

from nonalter.instances import random_quadform
import nonalter.quad_core as quad_core
from nonalter.quad_core import QuadForm


def poly1(axx=0.0, bx=0.0, c=0.0) -> QuadForm:
    """q(x) = axx*x^2 + bx*x + c on R^1."""
    return QuadForm([[axx]], [bx / 2.0], c)


def poly2(axx=0.0, axy=0.0, ayy=0.0, bx=0.0, by=0.0, c=0.0) -> QuadForm:
    """q(x, y) = axx*x^2 + axy*xy + ayy*y^2 + bx*x + by*y + c."""
    return QuadForm([[axx, axy / 2.0], [axy / 2.0, ayy]], [bx / 2.0, by / 2.0], c)


def poly3(diag, lin=(0.0, 0.0, 0.0), c=0.0) -> QuadForm:
    return QuadForm(np.diag(diag), np.asarray(lin) / 2.0, c)


def trust_region_pair(rng, n: int, hard: bool):
    """min f s.t. (x-c)'P(x-c) <= r^2 with P positive definite.

    In the hard case P = I and the linear term of f is orthogonal to the
    eigenvector of f's smallest eigenvalue d0, with the regular part of the
    step of norm r/4, so the optimal multiplier is -d0 and makes the Hessian
    of the Lagrangian singular (Moré and Sorensen, 1983).
    """
    c = rng.normal(size=n)
    r = float(rng.uniform(0.5, 2.0))
    if hard:
        P = np.eye(n)
        U, _ = np.linalg.qr(rng.normal(size=(n, n)))
        d = np.sort(rng.normal(size=n))
        d[0] = -abs(d[0]) - 0.5
        d[1:] = np.maximum(d[1:], d[0] + 0.5)
        A = (U * d) @ U.T
        z = np.concatenate([[0.0], rng.normal(size=n - 1)])
        z *= 0.25 * r / np.linalg.norm(z)
        b = U @ ((d - d[0]) * z)
        f = QuadForm(A, b - A @ c, float(c @ A @ c - 2 * b @ c))
    else:
        M = rng.normal(size=(n, n))
        P = M @ M.T / n + 0.2 * np.eye(n)
        f = random_quadform(rng, n)
        d = None
    g = QuadForm(P, -P @ c, float(c @ P @ c) - r * r)
    return f, g, (None if d is None else -d[0])


@pytest.fixture()
def rng(request):
    # Seed from the test name (stable hash) so every test draws the same
    # deterministic stream regardless of execution order or process.
    import zlib

    seed = zlib.crc32(request.node.name.encode())
    return np.random.default_rng(seed)


@pytest.fixture()
def workspace():
    """One request's workspace, open for the whole test: internal reads
    called one by one share their work as inside a public call."""
    with quad_core.Workspace() as ws:
        yield ws


@pytest.fixture()
def eig_calls(monkeypatch):
    """A one-element list counting np.linalg.eigh/eigvalsh calls; reset it by hand."""
    count = [0]
    for name in ("eigh", "eigvalsh"):
        orig = getattr(np.linalg, name)

        def counted(*args, _orig=orig, **kwargs):
            count[0] += 1
            return _orig(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return count


@pytest.fixture()
def work_counts(monkeypatch):
    """Counts of pencil root solves (``solves``) and of unconstrained minima
    computed (``minima``); reset them by hand."""
    counts = {"solves": 0, "minima": 0}
    for name, key in (("_solve_pencil", "solves"), ("_unconstrained_min", "minima")):
        def counted(*args, _orig=getattr(quad_core, name), _key=key):
            counts[_key] += 1
            return _orig(*args)

        monkeypatch.setattr(quad_core, name, counted)
    return counts
