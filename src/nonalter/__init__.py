"""Arrangement-aware global solver for two-constraint quadratic programs.

The package classifies a pair of quadratic constraints by how their level
sets are arranged, computes the optimal value of ``min f`` over
``{g <= 0} intersect {h <= 0}`` through a two-multiplier semidefinite dual
when the arrangement allows it, recovers an optimal point, and ships a
brute-force oracle to validate every result at desk scale.
"""

from .canonical import (
    AffineChange,
    CanonicalForm,
    FormTag,
    canonical_reduce,
    companion_in_basis,
)
from .classify import (
    ArrangementClass,
    ArrangementReport,
    AssumptionVerdict,
    InclusionStatus,
    InclusionVerdict,
    SeparationCertificate,
    Verdict,
    check_assumption1,
    check_assumption2,
    check_assumption3,
    check_assumption4,
    check_assumption5,
    check_inclusion_zeroset,
    classify_problem,
    detect_separation_by_hyperplane,
    pencil_psd_search,
    slater_two_sided,
)
from .duality import (
    DualPoint,
    DualSolveResult,
    lagrangian_dual_value,
    sdp_certificate,
    solve_dual_2d,
)
from .oracle import GridSpec, OracleResult, find_witness, grid_min, s1_empirical
from .problem_io import parse_problem, problem_to_dict
from .qp1qc import Qp1qcResult, solve_on_affine_subspace, solve_qp1qc
from .quad_core import (
    EigenDecomp,
    PsdStatus,
    PsdVerdict,
    QuadForm,
    evaluate,
    lift,
    nonneg_everywhere,
    null_basis,
    pseudo_inverse,
    psd_status,
    restrict_affine,
    sym_eigen,
    unconstrained_min,
)
from .solve import (
    NoSublevelPoint,
    ReducedProblem,
    SolveReport,
    recover_solution,
    side_of_sublevel,
    solve_nonalter,
)

__version__ = "0.1.0"

__all__ = [
    "AffineChange",
    "ArrangementClass",
    "ArrangementReport",
    "AssumptionVerdict",
    "CanonicalForm",
    "DualPoint",
    "DualSolveResult",
    "EigenDecomp",
    "FormTag",
    "GridSpec",
    "InclusionStatus",
    "InclusionVerdict",
    "NoSublevelPoint",
    "OracleResult",
    "PsdStatus",
    "PsdVerdict",
    "Qp1qcResult",
    "QuadForm",
    "ReducedProblem",
    "SeparationCertificate",
    "SolveReport",
    "Verdict",
    "canonical_reduce",
    "check_assumption1",
    "check_assumption2",
    "check_assumption3",
    "check_assumption4",
    "check_assumption5",
    "check_inclusion_zeroset",
    "classify_problem",
    "companion_in_basis",
    "detect_separation_by_hyperplane",
    "evaluate",
    "find_witness",
    "grid_min",
    "lagrangian_dual_value",
    "lift",
    "nonneg_everywhere",
    "null_basis",
    "parse_problem",
    "pencil_psd_search",
    "problem_to_dict",
    "psd_status",
    "pseudo_inverse",
    "recover_solution",
    "restrict_affine",
    "s1_empirical",
    "sdp_certificate",
    "side_of_sublevel",
    "slater_two_sided",
    "solve_dual_2d",
    "solve_nonalter",
    "solve_on_affine_subspace",
    "solve_qp1qc",
    "sym_eigen",
    "unconstrained_min",
]
