"""Command-line interface: classify, solve, oracle, reduce, check, witness.

Exit codes: 0 success, 1 other invalid input (for example a constant g for
``reduce``), 2 malformed input (a flag value out of range included), 3
infeasible, 4 unbounded or dual-infeasible, 5 undetermined or numerical
failure (a LAPACK routine that did not converge also exits 5, with
``error: numerical failure``), 141 standard output closed before the report
was written.

Each subcommand imports the library modules its path runs, and no others.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from typing import Optional, Sequence

import numpy as np

from .problem_io import ProblemFormatError, dumps_report, parse_problem

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_PARSE = 2
EXIT_INFEASIBLE = 3
EXIT_UNBOUNDED = 4
EXIT_UNDETERMINED = 5
EXIT_PIPE = 141  # 128 + SIGPIPE, what a shell reports for a writer killed by a closed pipe

_SOLVE_EXIT = {
    "solved": EXIT_OK,
    "estimate_only": EXIT_OK,
    "infeasible": EXIT_INFEASIBLE,
    "unbounded": EXIT_UNBOUNDED,
    "dual_infeasible": EXIT_UNBOUNDED,
    "undetermined": EXIT_UNDETERMINED,
    "numerical_failure": EXIT_UNDETERMINED,
}


def _tolerance(text: str) -> float:
    """The value of --tol or --eps: a finite number >= 0."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value >= 0.0):
        raise argparse.ArgumentTypeError(f"must be a finite number >= 0, not {text!r}")
    return value


def _count(text: str) -> int:
    """The value of --samples or --seed: an integer >= 0."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"must be an integer >= 0, not {text!r}")
    return int(text)


_FLAGS = {
    "--seed": dict(type=_count, default=0),
    "--bounds": dict(type=float, nargs=2, default=(-10.0, 10.0), metavar=("LO", "HI")),
    "--grid-res": dict(type=int, default=401),
}


def _add_common(p: argparse.ArgumentParser, *flags: str, tol: Optional[float] = None):
    """The problem path, --format, --tol when ``tol`` gives its default, and
    the named ``flags``: each subcommand takes only the flags it reads."""
    p.add_argument("problem", help="path to a problem JSON file")
    p.add_argument("--format", choices=("text", "json"), default="text")
    if tol is not None:
        p.add_argument("--tol", type=_tolerance, default=tol)
    for flag in flags:
        p.add_argument(flag, **_FLAGS[flag])


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="nonalter",
        description="Classify and solve quadratic programs with two quadratic constraints",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="full arrangement report")
    _add_common(p, tol=1e-9)

    p = sub.add_parser("check", help="run a single assumption checker")
    p.add_argument("--assumption", type=int, required=True, choices=(1, 2, 3, 4, 5))
    _add_common(p, tol=1e-9)

    p = sub.add_parser("solve", help="classify, reduce or dual-solve, recover a point")
    _add_common(p, tol=1e-8)
    p.add_argument("--trace", action="store_true", help="dual iterates as JSON lines on stderr")
    p.add_argument("--single-constraint", action="store_true",
                   help="solve min f s.t. g <= 0, ignoring h")

    p = sub.add_parser("oracle", help="brute-force grid minimization (n <= 3)")
    _add_common(p, "--bounds", "--grid-res")
    p.add_argument("--eps", type=_tolerance, default=1e-6, help="feasibility slack")

    p = sub.add_parser("reduce", help="canonical form of g and the companion h")
    _add_common(p)

    p = sub.add_parser("witness", help="search a sign pattern such as g>0,h>=0")
    _add_common(p, "--seed", "--bounds", "--grid-res")
    p.add_argument("--pattern", default="g>0,h>=0",
                   help="comma-separated pair from {g,h}x{>0,>=0}")
    p.add_argument("--eps", type=_tolerance, default=1e-9, help="strict/weak margin")
    p.add_argument("--samples", type=_count, default=10_000,
                   help="random samples after the grid scan (0: the grid only)")
    return ap


def _emit(args, payload: dict, text_lines: Sequence[str]) -> None:
    if args.format == "json":
        print(dumps_report(payload))
    else:
        for line in text_lines:
            print(line)


def _fmt_vec(x) -> str:
    return "(" + ", ".join(f"{v:.10g}" for v in np.asarray(x).ravel()) + ")"


def _cmd_classify(args) -> int:
    from .classify import classify_problem

    f, g, h, meta = parse_problem(args.problem)
    report = classify_problem(g, h, args.tol)
    payload = {"meta": meta, "classification": report}
    lines = [f"class: {report.overall_class.value}",
             f"in_nonalter: {report.in_nonalter.value}"]
    for k in range(1, 6):
        v = report.assumption(k)
        lines.append(f"assumption {k}: {v.verdict.value} ({v.note})")
    for note in report.notes:
        lines.append(f"note: {note}")
    _emit(args, payload, lines)
    return EXIT_OK


def _cmd_check(args) -> int:
    from .classify import (
        check_assumption1,
        check_assumption2,
        check_assumption3,
        check_assumption4,
        check_assumption5,
    )

    f, g, h, meta = parse_problem(args.problem)
    k = args.assumption
    if k == 2:
        verdict, inclusions = check_assumption2(g, h, args.tol)
        payload = {"assumption": k, "verdict": verdict, "inclusions": inclusions}
    else:
        checker = {1: check_assumption1, 3: check_assumption3,
                   4: lambda g, h, t: check_assumption4(g, h), 5: check_assumption5}[k]
        verdict = checker(g, h, args.tol)
        payload = {"assumption": k, "verdict": verdict}
    lines = [f"assumption {k}: {verdict.verdict.value}", f"note: {verdict.note}"]
    if verdict.witness is not None:
        lines.append(f"witness: {_fmt_vec(verdict.witness)}")
    _emit(args, payload, lines)
    return EXIT_OK


def _cmd_solve(args) -> int:
    f, g, h, meta = parse_problem(args.problem)
    if args.single_constraint:
        from .qp1qc import solve_qp1qc

        res = solve_qp1qc(f, g, args.tol)
        payload = {"meta": meta, "single_constraint": res}
        lines = [f"status: {res.status}"]
        if res.value is not None:
            lines.append(f"value: {res.value:.12g}")
        if res.x is not None:
            lines.append(f"x*: {_fmt_vec(res.x)}  lambda*: {res.lam:.12g}")
        _emit(args, payload, lines)
        return {"attained": EXIT_OK, "unattained": EXIT_OK,
                "infeasible": EXIT_INFEASIBLE, "unbounded_below": EXIT_UNBOUNDED,
                "numerical_failure": EXIT_UNDETERMINED}[res.status]

    from .solve import solve_nonalter

    report = solve_nonalter(f, g, h, args.tol, collect_trace=args.trace)
    if args.trace and report.dual is not None and report.dual.trace:
        for entry in report.dual.trace:
            print(dumps_report(entry).replace("\n", " "), file=sys.stderr)
    payload = {"meta": meta, "report": report}
    lines = [f"status: {report.status}",
             f"class: {report.classification.overall_class.value}",
             f"certified: {report.certified}"]
    if report.nu_star is not None:
        lines.append(f"nu*: {report.nu_star:.12g}")
    if report.dual is not None and report.dual.best is not None:
        b = report.dual.best
        lines.append(
            f"dual point: gamma={b.gamma:.12g} lambda1={b.lambda1:.12g} "
            f"lambda2={b.lambda2:.12g} slack_min_eig={b.slack_min_eig:.3g}"
        )
    if report.x_star is not None:
        lines.append(f"x*: {_fmt_vec(report.x_star)}")
        r = report.residuals
        lines.append(f"residuals: f-nu*={r[0]:.3g} g={r[1]:.6g} h={r[2]:.6g}")
    elif report.status == "solved":
        lines.append("x*: not attained")
    if report.side:
        lines.append(f"side: {report.side}")
    for step in report.pathway:
        lines.append(f"pathway: {step}")
    _emit(args, payload, lines)
    return _SOLVE_EXIT[report.status]


def _grid(args, n: int, eps: float = 1e-6):
    """The grid of --bounds and --grid-res; one GridSpec rejects is malformed input."""
    from .oracle import GridSpec

    try:
        return GridSpec.cube(n, *args.bounds, args.grid_res, eps)
    except ValueError as exc:
        raise ProblemFormatError(f"--bounds, --grid-res: {exc}") from None


def _cmd_oracle(args) -> int:
    from .oracle import grid_min

    f, g, h, meta = parse_problem(args.problem)
    lo, hi = args.bounds
    spec = _grid(args, f.n, args.eps)
    res = grid_min(f, g, h, spec)
    payload = {"meta": meta, "oracle": res,
               "grid": {"bounds": [lo, hi], "resolution": args.grid_res, "eps": args.eps}}
    lines = []
    if res.feasible_count == 0:
        lines.append("no feasible grid point")
        if args.eps <= 1e-6:
            lines.append(
                "hint: the feasible set may have zero volume; retry with a larger --eps"
            )
    else:
        lines.append(f"min: {res.min_value:.12g} at {_fmt_vec(res.argmin)}")
        lines.append(f"feasible grid points: {res.feasible_count}")
    lines.append(f"spacing: {_fmt_vec(res.spacing)}")
    _emit(args, payload, lines)
    return EXIT_OK if res.feasible_count else EXIT_INFEASIBLE


def _cmd_reduce(args) -> int:
    from .canonical import canonical_reduce, companion_in_basis

    f, g, h, meta = parse_problem(args.problem)
    change, form = canonical_reduce(g)
    comp = companion_in_basis(h, change)
    payload = {"meta": meta, "form": form, "change": change, "companion": comp}
    lines = [f"form: {form.tag.value}",
             f"k={form.k} m={form.m} delta={form.delta} theta={form.theta} "
             f"eta={form.eta} c'={form.cprime:.12g}",
             f"s: {change.s:.12g}",
             f"T: {np.array2string(change.T, precision=10)}",
             f"t: {_fmt_vec(change.t)}"]
    if form.condition_warning:
        lines.append(f"warning: {form.condition_warning}")
    lines.append(f"companion in basis: A={np.array2string(comp.A, precision=10)} "
                 f"a={_fmt_vec(comp.a)} a0={comp.a0:.12g}")
    _emit(args, payload, lines)
    return EXIT_OK


def _cmd_witness(args) -> int:
    from .oracle import find_witness

    f, g, h, meta = parse_problem(args.problem)
    parts = [p.strip() for p in args.pattern.split(",")]
    if len(parts) != 2:
        raise ProblemFormatError("pattern must have two comma-separated conditions")
    signs = []
    order = []
    for part in parts:
        for name, q in (("g", g), ("h", h)):
            for op in (">=", ">"):
                if part == f"{name}{op}0":
                    order.append(q)
                    signs.append(op)
                    break
            else:
                continue
            break
        else:
            raise ProblemFormatError(f"cannot parse pattern condition {part!r}")
    spec = _grid(args, g.n)
    w = find_witness(order[0], order[1], (signs[0], signs[1]), spec,
                     seed=args.seed, n_samples=args.samples, margin=args.eps)
    payload = {"meta": meta, "pattern": args.pattern,
               "witness": None if w is None else w}
    lines = ["witness: none" if w is None else f"witness: {_fmt_vec(w)}"]
    _emit(args, payload, lines)
    return EXIT_OK


_COMMANDS = {
    "classify": _cmd_classify,
    "check": _cmd_check,
    "solve": _cmd_solve,
    "oracle": _cmd_oracle,
    "reduce": _cmd_reduce,
    "witness": _cmd_witness,
}


def run(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ProblemFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except np.linalg.LinAlgError as exc:
        # A ValueError subclass, but an internal failure, not bad input.
        print(f"error: numerical failure: {exc}", file=sys.stderr)
        return EXIT_UNDETERMINED
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


def main() -> None:
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed the pipe (``| head``): point stdout at devnull so
        # the flush at interpreter exit cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_PIPE
    sys.exit(code)


if __name__ == "__main__":
    main()
