import numpy as np
import pytest

from nonalter.quad_core import QuadForm


def poly1(axx=0.0, bx=0.0, c=0.0) -> QuadForm:
    """q(x) = axx*x^2 + bx*x + c on R^1."""
    return QuadForm([[axx]], [bx / 2.0], c)


def poly2(axx=0.0, axy=0.0, ayy=0.0, bx=0.0, by=0.0, c=0.0) -> QuadForm:
    """q(x, y) = axx*x^2 + axy*xy + ayy*y^2 + bx*x + by*y + c."""
    return QuadForm([[axx, axy / 2.0], [axy / 2.0, ayy]], [bx / 2.0, by / 2.0], c)


def poly3(diag, lin=(0.0, 0.0, 0.0), c=0.0) -> QuadForm:
    return QuadForm(np.diag(diag), np.asarray(lin) / 2.0, c)


@pytest.fixture()
def rng(request):
    # Seed from the test name (stable hash) so every test draws the same
    # deterministic stream regardless of execution order or process.
    import zlib

    seed = zlib.crc32(request.node.name.encode())
    return np.random.default_rng(seed)


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
