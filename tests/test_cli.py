import json
import os
import subprocess
import sys

import numpy as np
import pytest

from nonalter import corpus
from nonalter.cli import run
from nonalter.duality import DualPoint, sdp_certificate
from nonalter.problem_io import (
    ProblemFormatError,
    parse_problem,
    parse_problem_dict,
    problem_to_dict,
)


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

    @pytest.mark.parametrize("argv", [
        ["reduce", "--tol", "1e-3"], ["reduce", "--seed", "1"], ["reduce", "--bounds", "-1", "1"],
        ["reduce", "--grid-res", "11"], ["classify", "--grid-res", "11"],
        ["check", "--assumption", "2", "--grid-res", "11"], ["solve", "--grid-res", "11"],
        ["oracle", "--tol", "1e-3"], ["oracle", "--seed", "1"], ["witness", "--tol", "1e-3"],
        ["classify", "--bounds", "-10", "10"], ["check", "--assumption", "2", "--bounds", "-10", "10"],
        ["solve", "--bounds", "-10", "10"],
    ])
    def test_unread_flags_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            run(argv + [str(corpus.corpus_path("ex24"))])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


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

    def test_reduce(self, capsys):
        code = run(["reduce", str(corpus.corpus_path("ex22"))])
        out = capsys.readouterr().out
        assert code == 0 and "form1" in out

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
               str(corpus.corpus_path("ex25a")), "--format", "json", "--seed", "0"]
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
