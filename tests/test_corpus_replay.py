"""`classify` and `solve --format json` on every corpus instance reproduce
the reports committed in ``tests/data/corpus_reports.json``.

Strings, booleans, nulls and integers (statuses, classes, verdicts,
``certified``, ``attained``, evaluation counts) must match exactly; floats
within 1e-9 relative, or 1e-12 absolute near zero, so the last bits of a
BLAS build do not matter.
"""

import contextlib
import io
import json
import math
from pathlib import Path

import pytest

from nonalter import corpus
from nonalter.cli import run

EXPECTED = json.loads((Path(__file__).parent / "data" / "corpus_reports.json").read_text())


def _mismatches(got, want, path="$"):
    """Paths where ``got`` differs from ``want`` beyond the tolerance."""
    if isinstance(want, float) and isinstance(got, (int, float)) and not isinstance(got, bool):
        close = got == want or math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-12)
        return [] if close else [f"{path}: {got!r} != {want!r}"]
    if type(got) is not type(want):
        return [f"{path}: {got!r} != {want!r}"]
    if isinstance(want, dict):
        if got.keys() != want.keys():
            return [f"{path}: keys {sorted(got)} != {sorted(want)}"]
        return [m for k in want for m in _mismatches(got[k], want[k], f"{path}.{k}")]
    if isinstance(want, list):
        if len(got) != len(want):
            return [f"{path}: length {len(got)} != {len(want)}"]
        return [m for i, (a, b) in enumerate(zip(got, want)) for m in _mismatches(a, b, f"{path}[{i}]")]
    return [] if got == want else [f"{path}: {got!r} != {want!r}"]


def test_every_instance_is_recorded():
    assert sorted(EXPECTED) == sorted(corpus.NAMES)


@pytest.mark.parametrize("command", ["classify", "solve"])
@pytest.mark.parametrize("name", corpus.NAMES)
def test_report_matches(name, command):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run([command, str(corpus.corpus_path(name)), "--format", "json"])
    want = EXPECTED[name][command]
    assert code == want["exit"]
    assert _mismatches(json.loads(out.getvalue()), want["report"]) == []


def test_tolerance_is_tight():
    assert _mismatches({"x": 1.0, "s": "holds"}, {"x": 1.0 + 1e-10, "s": "holds"}) == []
    assert _mismatches({"x": 1.0}, {"x": 1.0 + 1e-8}) != []
    assert _mismatches({"x": 1e-13}, {"x": 0.0}) == []
    assert _mismatches({"s": "holds"}, {"s": "fails"}) != []
    assert _mismatches({"b": True}, {"b": 1.0}) != []
    assert _mismatches({"n": 2}, {"n": 3}) != []
