"""Self-tests of the benchmark.  Run: ``python3 perfbench/selftest.py``.

* A tiny run of every workload, timed and traced, emits every metric that
  ``BENCHMARK.json`` names, with its unit.
* The checker flags corrupted reports: nu* shifted, x* moved off the
  feasible set, a single-constraint value shifted.
* The same seed produces the same instances, compared by digest, and the
  same ``attempted`` and ``failed`` counts whatever the window's length.
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

from check import Quad, check_qp1qc, check_solve  # noqa: E402
from nonalter.problem_io import dumps_report, parse_problem_dict  # noqa: E402
from nonalter.qp1qc import solve_qp1qc  # noqa: E402
from nonalter.solve import solve_nonalter  # noqa: E402
from workloads import WORKLOADS, build_schedule, corpus_doc  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(workload: str, trace: int, seconds: int = 1) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", str(seconds), "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace {trace} exited {proc.returncode}: {proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


class TinyRuns(unittest.TestCase):
    def test_every_metric_with_its_unit(self):
        for workload in WORKLOADS:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    res = bench(workload, trace)
                    self.assertEqual(set(res), {"correct", "attempted", "failed", "metrics"})
                    self.assertGreaterEqual(res["attempted"], 1)
                    want = {m["name"]: m["unit"] for m in SPEC[key]}
                    got = {k: v["unit"] for k, v in res["metrics"].items()}
                    self.assertEqual(got, want)

    def test_counts_follow_the_seed_not_the_window(self):
        # The tiny in-class schedule holds an f x 1e4 request, which fails.
        short, long = bench("solve_inclass", 0, seconds=1), bench("solve_inclass", 0, seconds=5)
        self.assertGreater(short["failed"], 0)
        self.assertEqual((short["attempted"], short["failed"]), (long["attempted"], long["failed"]))


def _round_trip(payload) -> dict:
    return json.loads(dumps_report(payload))


class CheckerFlagsCorruption(unittest.TestCase):
    def setUp(self):
        self.doc = corpus_doc("gtrs")
        f, g, h, meta = parse_problem_dict(self.doc)
        self.payload = _round_trip({"meta": meta, "report": solve_nonalter(f, g, h, 1e-8)})
        self.assertEqual(check_solve(self.doc, self.payload), "pass")

    def test_shifted_value(self):
        bad = json.loads(json.dumps(self.payload))
        bad["report"]["nu_star"] += 1e-3 * (1.0 + abs(bad["report"]["nu_star"]))
        self.assertEqual(check_solve(self.doc, bad), "refuted")

    def test_point_off_the_feasible_set(self):
        g, h = Quad(self.doc["g"]), Quad(self.doc["h"])
        x = np.asarray(self.payload["report"]["x_star"], dtype=float)
        step = np.ones_like(x)
        while g(x + step) <= 1e-3 and h(x + step) <= 1e-3:
            step *= 2.0
        bad = json.loads(json.dumps(self.payload))
        bad["report"]["x_star"] = (x + step).tolist()
        self.assertEqual(check_solve(self.doc, bad), "refuted")

    def test_single_constraint_value(self):
        doc = build_schedule("single_constraint", 3).cycles[0][1].doc  # a hard-case pair
        f, g, _, meta = parse_problem_dict(doc)
        payload = _round_trip({"meta": meta, "single_constraint": solve_qp1qc(f, g, 1e-8)})
        self.assertEqual(check_qp1qc(doc, payload), "pass")
        payload["single_constraint"]["value"] -= 1e-2
        self.assertEqual(check_qp1qc(doc, payload), "refuted")


class SeededInstances(unittest.TestCase):
    def test_same_seed_same_digest(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                a = build_schedule(workload, 11).digest()
                self.assertEqual(a, build_schedule(workload, 11).digest())
                self.assertNotEqual(a, build_schedule(workload, 12).digest())


if __name__ == "__main__":
    unittest.main()
