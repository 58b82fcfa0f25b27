"""Arrangement-aware global solver for two-constraint quadratic programs.

The package classifies a pair of quadratic constraints by how their level
sets are arranged, computes the optimal value of ``min f`` over
``{g <= 0} intersect {h <= 0}`` through a two-multiplier semidefinite dual
when the arrangement allows it, recovers an optimal point, and ships a
brute-force oracle to validate every result at desk scale.

Importing the package loads no submodule: each public name and each
submodule (``nonalter.corpus``, ``nonalter.cli``, ...) is imported on first
access (PEP 562), so a caller pays only for the code its path runs.
"""

import importlib

__version__ = "0.1.0"

# Each public name under the submodule that defines it.
_EXPORTS = {
    "canonical": ("AffineChange", "CanonicalForm", "FormTag", "canonical_reduce",
                  "companion_in_basis"),
    "classify": ("ArrangementClass", "ArrangementReport", "AssumptionVerdict",
                 "InclusionStatus", "InclusionVerdict", "SeparationCertificate", "Verdict",
                 "check_assumption1", "check_assumption2", "check_assumption3",
                 "check_assumption4", "check_assumption5", "check_inclusion_zeroset",
                 "classify_problem", "detect_separation_by_hyperplane",
                 "pencil_psd_search", "slater_two_sided"),
    "duality": ("DualPoint", "DualSolveResult", "lagrangian_dual_value", "sdp_certificate",
                "solve_dual_2d"),
    "oracle": ("GridSpec", "OracleResult", "find_witness", "grid_min", "s1_empirical"),
    "problem_io": ("parse_problem", "problem_to_dict"),
    "qp1qc": ("Qp1qcResult", "solve_on_affine_subspace", "solve_qp1qc"),
    "quad_core": ("EigenDecomp", "PsdStatus", "PsdVerdict", "QuadForm", "evaluate", "lift",
                  "nonneg_everywhere", "null_basis", "pseudo_inverse", "psd_status",
                  "restrict_affine", "sym_eigen", "unconstrained_min"),
    "solve": ("NoSublevelPoint", "ReducedProblem", "SolveReport", "recover_solution",
              "side_of_sublevel", "solve_nonalter"),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_SOURCE)


def __getattr__(name):
    if name in _SOURCE:
        value = getattr(importlib.import_module(f"{__name__}.{_SOURCE[name]}"), name)
        globals()[name] = value
        return value
    if "." not in name:
        try:
            # Importing a submodule binds it on the package as well.
            return importlib.import_module(f"{__name__}.{name}")
        except ModuleNotFoundError as exc:
            if exc.name != f"{__name__}.{name}":
                raise
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))
