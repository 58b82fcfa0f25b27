import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nonalter import corpus, quad_core
from nonalter.classify import (
    check_assumption1,
    check_assumption2,
    check_assumption3,
    check_assumption4,
    check_assumption5,
)
from nonalter.cli import run
from nonalter.duality import DualPoint, sdp_certificate
from nonalter.problem_io import (
    ProblemFormatError,
    dumps_report,
    parse_problem,
    parse_problem_dict,
    problem_to_dict,
)
from nonalter.quad_core import QuadForm


def write_problem(tmp_path, doc, name="problem.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def simple_doc():
    return {
        "n": 1,
        "f": {"A": [[1.0]], "a": [-2.0], "a0": 4.0},
        "g": {"A": [[1.0]], "a": [0.0], "a0": -1.0},
        "h": {"A": [[0.0]], "a": [0.0], "a0": -1.0},
    }


class TestParseProblem:
    def test_shifted_square(self, tmp_path):
        f, g, h, _ = parse_problem(write_problem(tmp_path, simple_doc()))
        assert f([2.0]) == pytest.approx(0.0)  # (x-2)^2
        assert f([0.0]) == pytest.approx(4.0)

    def test_missing_role(self, tmp_path):
        doc = simple_doc()
        del doc["h"]
        with pytest.raises(ProblemFormatError):
            parse_problem(write_problem(tmp_path, doc))

    def test_asymmetry_rejected(self, tmp_path):
        doc = {
            "n": 2,
            "f": {"A": [[0.0, 1.0], [0.0, 0.0]], "a": [0.0, 0.0], "a0": 0.0},
            "g": {"A": [[1.0, 0.0], [0.0, 1.0]], "a": [0.0, 0.0], "a0": -1.0},
            "h": {"A": [[0.0, 0.0], [0.0, 0.0]], "a": [0.0, 0.0], "a0": -1.0},
        }
        with pytest.raises(ProblemFormatError, match="asymmetric"):
            parse_problem(write_problem(tmp_path, doc))

    def test_tiny_asymmetry_symmetrized(self):
        doc = simple_doc()
        doc["n"] = 2
        eps = 1e-10
        doc["f"] = {"A": [[1.0, eps], [0.0, 1.0]], "a": [0.0, 0.0], "a0": 0.0}
        doc["g"] = {"A": [[1.0, 0.0], [0.0, 1.0]], "a": [0.0, 0.0], "a0": -1.0}
        doc["h"] = {"A": [[0.0, 0.0], [0.0, 0.0]], "a": [0.0, 0.0], "a0": -1.0}
        f, _, _, _ = parse_problem_dict(doc)
        assert f.A[0, 1] == pytest.approx(eps / 2)
        assert f.A[0, 1] == f.A[1, 0]

    def test_round_trip(self, tmp_path):
        f, g, h, meta = corpus.load("ex25a")
        doc = problem_to_dict(f, g, h, meta)
        f2, g2, h2, _ = parse_problem_dict(doc)
        assert np.array_equal(f2.A, f.A) and np.array_equal(f2.a, f.a)
        assert f2.a0 == f.a0
        assert np.array_equal(g2.A, g.A) and np.array_equal(h2.A, h.A)

    def test_parsed_quadratic_equals_constructed(self):
        # Parsing validates once and builds the quadratic from its own
        # arrays: the same symmetrized, read-only data as the public
        # constructor.
        rng = np.random.default_rng(4)
        A = rng.normal(size=(4, 4))
        A = (A + A.T) / 2.0
        A[0, 1] += 1e-12  # round-off asymmetry, symmetrized on load
        doc = {"n": 4}
        for role in "fgh":
            doc[role] = {"A": A.tolist(), "a": rng.normal(size=4).tolist(), "a0": 0.5}
        f, _, _, _ = parse_problem_dict(doc)
        want = QuadForm(doc["f"]["A"], doc["f"]["a"], doc["f"]["a0"])
        assert np.array_equal(f.A, want.A) and np.array_equal(f.a, want.a) and f.a0 == want.a0
        assert np.array_equal(f.A, f.A.T) and type(f.a0) is float
        assert not f.A.flags.writeable and not f.a.flags.writeable

    @pytest.mark.parametrize("field", ["n", "f.a0", "g.a0", "h.a0", "f.A", "g.a", "last", "nested"])
    def test_boolean_rejected(self, tmp_path, capsys, field):
        # JSON true is not the integer 1, nor the number 1.0.
        doc = simple_doc()
        if field == "n":
            doc["n"] = True
        elif field == "last":
            # The last entry of a 50 x 50 matrix.
            n = 50
            doc = {"n": n}
            for role in "fgh":
                doc[role] = {"A": np.eye(n).tolist(), "a": [0.0] * n, "a0": -1.0}
            doc["g"]["A"][n - 1][n - 1] = True
        elif field == "nested":
            doc["h"]["A"] = [[0.0, [1.0, [True]]]]
        else:
            role, key = field.split(".")
            doc[role][key] = {"A": [[True]], "a": [True], "a0": True}[key]
        with pytest.raises(ProblemFormatError, match="must be"):
            parse_problem_dict(doc)
        assert run(["solve", write_problem(tmp_path, doc)]) == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("value, kind", [("1", "string"), (None, "null")])
    @pytest.mark.parametrize("field", ["f.a0", "g.a", "last", "nested"])
    def test_non_number_rejected(self, tmp_path, capsys, field, value, kind):
        # numpy and float() read the string "1" as the number 1.
        doc = simple_doc()
        if field == "last":
            # The last entry of a 50 x 50 matrix.
            n = 50
            doc = {"n": n}
            for role in "fgh":
                doc[role] = {"A": np.eye(n).tolist(), "a": [0.0] * n, "a0": -1.0}
            doc["g"]["A"][n - 1][n - 1] = value
        elif field == "nested":
            doc["h"]["A"] = [[0.0, [1.0, [value]]]]
        else:
            role, key = field.split(".")
            doc[role][key] = {"a": [value], "a0": value}[key]
        with pytest.raises(ProblemFormatError, match=f"must be numeric, not {kind}"):
            parse_problem_dict(doc)
        assert run(["solve", write_problem(tmp_path, doc)]) == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("key, value", [
        ("a0", [4]), ("a0", []), ("a0", [1, 2]), ("a0", {}), ("a", 5), ("a", [[0.0]]),
        ("A", 4), ("A", []), ("A", [[1.0], [[2.0]]]),
    ])
    def test_misshapen_field_rejected(self, tmp_path, capsys, key, value):
        # Numbers alone pass the type check; a0 must be one of them, and A
        # and a must have the shape n gives.
        doc = simple_doc()
        doc["f"][key] = value
        with pytest.raises(ProblemFormatError):
            parse_problem_dict(doc)
        assert run(["solve", write_problem(tmp_path, doc)]) == 2
        assert capsys.readouterr().out == ""

    @settings(max_examples=300, deadline=None)
    @given(key=st.sampled_from(["A", "a", "a0"]), value=st.recursive(
        st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
        lambda children: st.lists(children, max_size=3) | st.dictionaries(st.text(max_size=2), children),
        max_leaves=8,
    ))
    def test_any_json_field_parses_or_is_rejected(self, key, value):
        # Whatever JSON value a field holds, parsing returns or raises
        # ProblemFormatError (exit 2); no other exception escapes.
        doc = simple_doc()
        doc["f"][key] = value
        try:
            parse_problem_dict(doc)
        except ProblemFormatError:
            pass

    @pytest.mark.parametrize("role, key, value", [
        ("f", "A", [[float("nan")]]), ("g", "a", [float("inf")]), ("h", "a0", float("-inf")),
        ("f", "A", [[0.0, float("nan")], [0.0, 1.0]]), ("g", "A", [[0.0, float("-inf")], [0.0, 1.0]]),
    ], ids=["nan-A", "inf-a", "-inf-a0", "nan-asymmetric-A", "inf-asymmetric-A"])
    def test_non_finite_rejected(self, tmp_path, capsys, role, key, value):
        # Python's json reads the tokens NaN, Infinity and -Infinity.  A
        # non-finite asymmetric matrix is reported as non-finite.
        doc = simple_doc()
        if key == "A" and len(value) == 2:
            doc["n"] = 2
            for r in "fgh":
                doc[r] = {"A": np.eye(2).tolist(), "a": [0.0, 0.0], "a0": -1.0}
        doc[role][key] = value
        path = write_problem(tmp_path, doc)
        with pytest.raises(ProblemFormatError, match="non-finite"):
            parse_problem(path)
        assert run(["solve", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and f"field {role!r} contains non-finite numbers" in captured.err

    @pytest.mark.parametrize("key", ["A", "a0"])
    def test_integer_beyond_float_range_rejected(self, tmp_path, capsys, key):
        # Python's json reads a 401-digit integer exactly; no float holds it.
        doc = simple_doc()
        doc["f"][key] = [[10**400]] if key == "A" else 10**400
        assert run(["solve", write_problem(tmp_path, doc)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "int too large to convert to float" in captured.err

    def test_malformed_json_exit_code(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert run(["classify", str(path)]) == 2

    def test_missing_file_exit_code(self):
        assert run(["solve", "/nonexistent/problem.json"]) == 2

    def test_directory_exit_code(self, tmp_path, capsys):
        assert run(["classify", str(tmp_path)]) == 2
        assert "unreadable file" in capsys.readouterr().err

    def test_non_utf8_file_exit_code(self, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        path.write_bytes(json.dumps(simple_doc()).encode() + b" \xe9")
        assert run(["solve", str(path)]) == 2
        assert "unreadable file" in capsys.readouterr().err

    def test_invalid_valid_file_exit_code(self, tmp_path, capsys):
        # A well-formed file whose g is constant cannot be reduced: that is
        # not malformed input, so it exits 1 rather than 2.
        doc = simple_doc()
        doc["g"] = {"A": [[0.0]], "a": [0.0], "a0": -1.0}
        assert run(["reduce", write_problem(tmp_path, doc)]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("command", ["classify", "solve", "reduce"])
    def test_numerical_failure_exit_code(self, command, capsys, monkeypatch):
        # LinAlgError subclasses ValueError, but a LAPACK routine that does
        # not converge is an internal failure, not invalid input: exit 5.
        def no_convergence(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(quad_core, "_eigh", no_convergence)
        assert run([command, str(corpus.corpus_path("ex24"))]) == 5
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: numerical failure: ")
        assert "did not converge" in captured.err

    @pytest.mark.parametrize("argv", [
        ["reduce", "--tol", "1e-3"], ["reduce", "--seed", "1"], ["reduce", "--bounds", "-1", "1"],
        ["reduce", "--grid-res", "11"], ["classify", "--grid-res", "11"],
        ["check", "--assumption", "2", "--grid-res", "11"], ["solve", "--grid-res", "11"],
        ["oracle", "--tol", "1e-3"], ["oracle", "--seed", "1"], ["witness", "--tol", "1e-3"],
        ["classify", "--bounds", "-10", "10"], ["check", "--assumption", "2", "--bounds", "-10", "10"],
        ["solve", "--bounds", "-10", "10"], ["classify", "--seed", "1"],
        ["check", "--assumption", "2", "--seed", "1"], ["solve", "--seed", "1"],
    ])
    def test_unread_flags_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            run(argv + [str(corpus.corpus_path("ex24"))])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["solve", "--tol", "nan"], ["solve", "--tol", "-1"], ["solve", "--tol", "inf"],
        ["solve", "--tol", "abc"], ["classify", "--tol", "nan"],
        ["check", "--assumption", "1", "--tol=-1e-9"],
        ["oracle", "--eps", "nan"], ["oracle", "--eps=-inf"],
        ["witness", "--eps", "nan"], ["witness", "--eps", "-1"],
    ])
    def test_bad_tolerances_rejected(self, argv, capsys):
        # A tolerance must be a finite number >= 0: anything else is
        # malformed input, not a question to answer.
        with pytest.raises(SystemExit) as exc:
            run(argv + [str(corpus.corpus_path("ex24"))])
        assert exc.value.code == 2
        assert "must be a finite number >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (["oracle", "--bounds", "0", "inf"], "grid bounds need finite lo < hi"),
        (["witness", "--bounds", "-1", "1e400"], "grid bounds need finite lo < hi"),
        (["oracle", "--bounds", "nan", "1"], "grid bounds need finite lo < hi"),
        (["oracle", "--bounds", "5", "1"], "grid bounds need finite lo < hi"),
        (["witness", "--bounds", "1", "1"], "grid bounds need finite lo < hi"),
        (["oracle", "--grid-res", "1"], "resolution must be at least 3"),
        (["witness", "--grid-res", "2.5"], "argument --grid-res: invalid int value"),
        (["witness", "--samples", "-1"], "argument --samples: must be an integer >= 0"),
        (["witness", "--seed", "-1"], "argument --seed: must be an integer >= 0"),
        (["witness", "--seed", "x"], "argument --seed: must be an integer >= 0"),
    ])
    def test_bad_grid_flags_rejected(self, argv, message, capsys):
        # A bad value of the oracle's or the witness search's flags is
        # malformed input, and the message names the flag.
        path = str(corpus.corpus_path("ex24"))
        try:
            code = run(argv + [path])
        except SystemExit as exc:
            code = exc.code
        err = capsys.readouterr().err
        assert code == 2
        assert argv[1] in err and message in err

    def test_zero_samples_search_the_grid_only(self, capsys):
        argv = ["witness", str(corpus.corpus_path("cdt_s2")), "--pattern", "g>0,h>0"]
        assert run(argv + ["--samples", "0", "--grid-res", "5"]) == 0
        assert "witness: (-10, -10)" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["classify", "solve"])
    def test_zero_tolerance_accepted(self, command, capsys):
        assert run([command, "--tol", "0", str(corpus.corpus_path("ex24"))]) == 0


class TestCommands:
    def test_solve_shell(self, capsys):
        code = run(["solve", str(corpus.corpus_path("ex25a"))])
        out = capsys.readouterr().out
        assert code == 0
        assert "status: solved" in out
        assert "nu*: 2" in out

    def test_solve_infeasible_exit_code(self, tmp_path, capsys):
        doc = simple_doc()
        doc["g"] = {"A": [[0.0]], "a": [0.0], "a0": 1.0}  # g == 1
        assert run(["solve", write_problem(tmp_path, doc)]) == 3

    def test_solve_unbounded_exit_code(self, tmp_path, capsys):
        doc = simple_doc()
        doc["f"] = {"A": [[0.0]], "a": [0.5], "a0": 0.0}  # f = x
        doc["g"] = {"A": [[0.0]], "a": [0.5], "a0": -1.0}  # x <= 1
        doc["h"] = {"A": [[0.0]], "a": [1.0], "a0": -1.0}  # 2x <= 1 (parallel)
        assert run(["solve", write_problem(tmp_path, doc)]) == 4

    def test_classify_crossing_disks(self, capsys):
        code = run(["classify", str(corpus.corpus_path("cdt_s2"))])
        out = capsys.readouterr().out
        assert code == 0
        assert "outside_non_alter" in out

    def test_check_single_assumption(self, capsys):
        code = run(["check", "--assumption", "2", str(corpus.corpus_path("ex24"))])
        out = capsys.readouterr().out
        assert code == 0 and "holds" in out

    @pytest.mark.parametrize("name", ["ex24", "ex22"])
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_check_reports_the_checker(self, capsys, k, name):
        # Each --assumption k prints the report of the checker called
        # directly at the subcommand's default tolerance.
        path = str(corpus.corpus_path(name))
        assert run(["check", "--assumption", str(k), path, "--format", "json"]) == 0
        _, g, h, _ = parse_problem(path)
        if k == 2:
            verdict, inclusions = check_assumption2(g, h, 1e-9)
            payload = {"assumption": k, "verdict": verdict, "inclusions": inclusions}
        else:
            checkers = {1: check_assumption1, 3: check_assumption3, 5: check_assumption5}
            verdict = check_assumption4(g, h) if k == 4 else checkers[k](g, h, 1e-9)
            payload = {"assumption": k, "verdict": verdict}
        assert capsys.readouterr().out == dumps_report(payload) + "\n"

    def test_reduce(self, capsys):
        code = run(["reduce", str(corpus.corpus_path("ex22"))])
        out = capsys.readouterr().out
        assert code == 0 and "form1" in out

    def test_near_constant_constraint(self, tmp_path, capsys):
        # g = 1 + 2e-12*x1 has a linear term below the rank cutoff: the
        # reduction refuses it, and every other subcommand answers.
        doc = {
            "n": 2,
            "f": {"A": [[1.0, 0.0], [0.0, 1.0]], "a": [0.0, 0.0], "a0": 0.0},
            "g": {"A": [[0.0, 0.0], [0.0, 0.0]], "a": [1e-12, 0.0], "a0": 1.0},
            "h": {"A": [[1.0, 0.0], [0.0, -1.0]], "a": [0.0, 0.0], "a0": -1.0},
        }
        path = write_problem(tmp_path, doc)
        assert run(["classify", path]) == 0
        assert "assumption 5: holds (pattern not applicable)" in capsys.readouterr().out.splitlines()
        assert run(["check", "--assumption", "5", path]) == 0
        assert capsys.readouterr().out.splitlines() == ["assumption 5: holds", "note: pattern not applicable"]
        assert run(["solve", path]) == 5  # undetermined: assumption 3 is
        assert "class: undetermined" in capsys.readouterr().out.splitlines()
        assert run(["reduce", path]) == 1
        assert "cannot reduce a constant quadratic" in capsys.readouterr().err

    def test_oracle(self, capsys):
        code = run(["oracle", str(corpus.corpus_path("ex25a")), "--grid-res", "201"])
        out = capsys.readouterr().out
        assert code == 0 and "min: 2.0" in out

    def test_oracle_warns_on_thin_feasible_set(self, capsys):
        code = run(["oracle", str(corpus.corpus_path("hqpd_s5a")), "--grid-res", "400"])
        out = capsys.readouterr().out
        assert code == 3
        assert "--eps" in out

    def test_witness(self, capsys):
        code = run(["witness", str(corpus.corpus_path("cdt_s2")),
                    "--pattern", "g>0,h>=0", "--grid-res", "101"])
        out = capsys.readouterr().out
        assert code == 0 and "witness: (" in out

    def test_witness_none(self, capsys):
        code = run(["witness", str(corpus.corpus_path("ex24")),
                    "--pattern", "g>0,h>=0", "--grid-res", "101"])
        out = capsys.readouterr().out
        assert code == 0 and "witness: none" in out

    def test_single_constraint_flag(self, capsys):
        code = run(["solve", str(corpus.corpus_path("qp1qc_embed")), "--single-constraint"])
        out = capsys.readouterr().out
        assert code == 0 and "value: 1" in out

    def test_single_constraint_unattained(self, tmp_path, capsys):
        # min x1^2 subject to 1 - x1*x2 <= 0: the infimum 0 is not attained.
        doc = {
            "n": 2,
            "f": {"A": [[1.0, 0.0], [0.0, 0.0]], "a": [0.0, 0.0], "a0": 0.0},
            "g": {"A": [[0.0, -0.5], [-0.5, 0.0]], "a": [0.0, 0.0], "a0": 1.0},
            "h": {"A": [[0.0, 0.0], [0.0, 0.0]], "a": [0.0, 0.0], "a0": -1.0},
        }
        code = run(["solve", write_problem(tmp_path, doc), "--single-constraint"])
        out = capsys.readouterr().out
        assert code == 0 and out.splitlines() == ["status: unattained", "value: 0"]


class TestJsonReports:
    def test_replayable_dual_certificate(self, capsys):
        code = run(["solve", str(corpus.corpus_path("ex24")), "--format", "json"])
        out = capsys.readouterr().out
        assert code == 0
        doc = json.loads(out)
        best = doc["report"]["dual"]["best"]
        f, g, h, _ = corpus.load("ex24")
        replay = sdp_certificate(
            f, g, h,
            DualPoint(best["lambda1"], best["lambda2"], best["gamma"], 0.0),
        )
        assert replay.slack_min_eig == pytest.approx(best["slack_min_eig"], abs=1e-10)

    def test_dual_infeasible_band_reports_its_certificate(self, tmp_path, capsys):
        # f = -|x|^2 on the band 1 <= x1^2 - x2^2 <= 2: the JSON report carries
        # the dual's certificate and phase I's count, which a finite dual's
        # report (ex24 above) leaves out.
        doc = {"n": 2, "f": {"A": [[-1, 0], [0, -1]], "a": [0, 0], "a0": 0},
               "g": {"A": [[1, 0], [0, -1]], "a": [0, 0], "a0": -2},
               "h": {"A": [[-1, 0], [0, 1]], "a": [0, 0], "a0": 1}}
        code = run(["solve", write_problem(tmp_path, doc), "--format", "json"])
        assert code == 4
        dual = json.loads(capsys.readouterr().out)["report"]["dual"]
        assert dual["status"] == "dual_infeasible_everywhere" and dual["phase_one"] >= 1
        w, V = np.array(dual["certificate"]["weights"]), np.array(dual["certificate"]["vectors"])
        Y = (V * w) @ V.T
        assert np.sum(Y * -np.eye(2)) == pytest.approx(dual["certificate"]["value"], abs=1e-12)
        assert abs(np.sum(Y * np.diag([1.0, -1.0]))) <= 1e-12
        run(["solve", str(corpus.corpus_path("ex24")), "--format", "json"])
        finite = json.loads(capsys.readouterr().out)["report"]["dual"]
        assert "certificate" not in finite and "phase_one" not in finite

    def test_classification_payload(self, capsys):
        code = run(["classify", str(corpus.corpus_path("hqpd_s5a")), "--format", "json"])
        doc = json.loads(capsys.readouterr().out)
        cls = doc["classification"]
        assert cls["a1"]["verdict"] == "fails"
        assert cls["a2"]["verdict"] == "holds"

    def test_byte_identical_runs(self):
        cmd = [sys.executable, "-m", "nonalter.cli", "solve",
               str(corpus.corpus_path("ex25a")), "--format", "json"]
        r1 = subprocess.run(cmd, capture_output=True)
        r2 = subprocess.run(cmd, capture_output=True)
        assert r1.returncode == 0
        assert r1.stdout == r2.stdout

    def test_closed_stdout_exits_141_without_traceback(self):
        # The reader is gone before the report is written: the read end of
        # the pipe is closed before the process starts.
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            r = subprocess.run([sys.executable, "-m", "nonalter.cli", "classify",
                                str(corpus.corpus_path("ex22")), "--format", "json"],
                               stdout=write_end, stderr=subprocess.PIPE)
        finally:
            os.close(write_end)
        assert r.returncode == 141
        assert r.stderr == b""
