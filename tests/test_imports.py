"""What a request's path loads, and the public namespace of the package.

The module sets are read in fresh interpreters, so no other test's imports
leak into them; they count modules, not seconds.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import nonalter
from nonalter.corpus import corpus_path

SRC = Path(nonalter.__file__).resolve().parent.parent
EX24 = str(corpus_path("ex24"))

PUBLIC = [
    "AffineChange", "ArrangementClass", "ArrangementReport", "AssumptionVerdict",
    "CanonicalForm", "DualPoint", "DualSolveResult", "EigenDecomp", "FormTag", "GridSpec",
    "InclusionStatus", "InclusionVerdict", "NoSublevelPoint", "OracleResult", "PsdStatus",
    "PsdVerdict", "Qp1qcResult", "QuadForm", "ReducedProblem", "SeparationCertificate",
    "SolveReport", "Verdict", "canonical_reduce", "check_assumption1", "check_assumption2",
    "check_assumption3", "check_assumption4", "check_assumption5", "check_inclusion_zeroset",
    "classify_problem", "companion_in_basis", "detect_separation_by_hyperplane", "evaluate",
    "find_witness", "grid_min", "lagrangian_dual_value", "lift", "nonneg_everywhere",
    "null_basis", "parse_problem", "pencil_psd_search", "problem_to_dict", "psd_status",
    "pseudo_inverse", "recover_solution", "restrict_affine", "s1_empirical", "sdp_certificate",
    "side_of_sublevel", "slater_two_sided", "solve_dual_2d", "solve_nonalter",
    "solve_on_affine_subspace", "solve_qp1qc", "sym_eigen", "unconstrained_min",
]


def loaded_after(code: str) -> set:
    """The nonalter modules a fresh interpreter holds after running ``code``."""
    script = (code + "\nimport sys\n"
              "print(' '.join(m for m in sys.modules if m.split('.')[0] == 'nonalter'))\n")
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    r = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    return set(r.stdout.splitlines()[-1].split())


def loaded_by_cli(*argv: str) -> set:
    return loaded_after(
        "import contextlib, io\nfrom nonalter import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert cli.run({list(argv)!r}) == 0\n"
    )


class TestModuleSets:
    def test_import_loads_the_package_alone(self):
        assert loaded_after("import nonalter") == {"nonalter"}

    def test_parse_path(self):
        assert loaded_after("from nonalter.problem_io import parse_problem_dict") == {
            "nonalter", "nonalter.problem_io", "nonalter.quad_core"}

    def test_classify_runs_no_dual_solve_or_oracle(self):
        mods = loaded_by_cli("classify", EX24)
        assert "nonalter.classify" in mods
        assert not mods & {"nonalter.duality", "nonalter.solve", "nonalter.oracle"}

    def test_single_constraint_solve_runs_no_classification(self):
        mods = loaded_by_cli("solve", EX24, "--single-constraint")
        assert "nonalter.qp1qc" in mods
        assert "nonalter.classify" not in mods

    def test_reduce_runs_no_classification(self):
        mods = loaded_by_cli("reduce", EX24)
        assert "nonalter.canonical" in mods
        assert "nonalter.classify" not in mods

    def test_submodules_resolve_as_attributes(self):
        # The README's nonalter.corpus.load(name), after a bare import.
        mods = loaded_after(
            "import nonalter\n"
            "assert nonalter.corpus.load('ex24')[1].n == 2\n"
            "assert nonalter.instances.random_quadform\n"
            "assert nonalter.cli.run\n"
        )
        assert {"nonalter.corpus", "nonalter.instances", "nonalter.cli"} <= mods


class TestNamespace:
    def test_all(self):
        assert nonalter.__all__ == PUBLIC

    @pytest.mark.parametrize("name", PUBLIC)
    def test_name_is_the_defining_modules_object(self, name):
        obj = getattr(nonalter, name)
        assert obj.__module__.startswith("nonalter.")
        assert getattr(sys.modules[obj.__module__], name) is obj
        # Resolved once, then a plain attribute of the package.
        assert vars(nonalter)[name] is obj

    def test_star_import_binds_all(self):
        ns = {}
        exec("from nonalter import *", ns)
        assert set(ns) - {"__builtins__"} == set(PUBLIC)

    def test_dir_lists_every_public_name(self):
        assert set(PUBLIC) <= set(dir(nonalter))

    @pytest.mark.parametrize("name", ["no_such_name", "no.such.name", ""])
    def test_unknown_name(self, name):
        with pytest.raises(AttributeError) as info:
            getattr(nonalter, name)
        assert str(info.value) == f"module 'nonalter' has no attribute {name!r}"
        assert not hasattr(nonalter, name)
