"""Benchmark of the nonalter library: one workload, one seed, one run.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload solve_inclass --seed 1 --seconds 25 --trace 0

``--trace 0`` runs the timed closed loop and reports the end-to-end metrics;
``--trace 1`` runs a fixed request list twice, untraced and traced, and
reports the per-layer metrics and the tracing overhead.  The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``attempted`` counts the distinct requests of the
seed's schedule, each checked on every execution; a request has failed when
any of its executions fails a check.  The lines before the last print every
metric by name and unit, the environment, and the share of failed requests.  The full result
is also written to ``.perfbench/result-<workload>-trace<0|1>.json``.

The workload runs in a fresh interpreter (``worker.py``), so peak memory and
the oracle's grid cache never carry over from another workload.  Set-up time
is measured in further fresh interpreters (``setup_probe.py``).  Timed
metrics are reported at reference host speed (``calibration.py``).  This
process imports neither numpy nor nonalter.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"
WORKLOADS = ("solve_inclass", "solve_outside", "classify_only", "single_constraint")
SETUP_PROBES = 7
WORKER_TIMEOUT_S = 150
PROBE_TIMEOUT_S = 10
TAIL_BEYOND = 10

# One client thread; BLAS and OpenMP pools pinned to one thread, which stays
# within the machine's processor count.
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

END_TO_END_UNITS = {"latency_p50_s": "s", "latency_tail_s": "s", "requests_per_s": "1/s",
                    "peak_rss_mb": "MB", "setup_s": "s"}


def unit_of(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac"):
        return "ratio"
    if name.endswith(".bytes"):
        return "bytes"
    return "count"


def tail(latencies):
    """(value, rank, n): the highest order statistic with TAIL_BEYOND samples
    beyond it, never below the median.  Below 2 * TAIL_BEYOND + 1 samples
    that is the first order statistic at or above the median."""
    xs = sorted(latencies)
    n = len(xs)
    rank = max(n - TAIL_BEYOND, math.ceil((n + 1) / 2))
    return xs[rank - 1], rank, n


def child(script: str, args, timeout: float) -> str:
    env = {**os.environ, **THREAD_ENV}
    proc = subprocess.run(
        [sys.executable, str(HERE / script), *map(str, args)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise RuntimeError(f"{script} exited with code {proc.returncode}")
    return proc.stdout


def setup_probes(docs: str):
    """(import-plus-parse seconds, the same at reference speed) per fresh interpreter."""
    return [tuple(map(float, child("setup_probe.py", [docs], PROBE_TIMEOUT_S).split()))
            for _ in range(SETUP_PROBES)]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="small requests and a short schedule, for the self-tests")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "nonalter" / "__init__.py").is_file():
        print(f"error: no nonalter sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    worker_args = [args.workload, args.seed, args.seconds, args.trace]
    if args.tiny:
        worker_args.append("--tiny")
    try:
        res = json.loads(child("worker.py", worker_args, WORKER_TIMEOUT_S).strip().splitlines()[-1])
        if not args.trace:
            res["setup_probes"] = setup_probes(res["docs"])
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    outcomes = res["outcomes"]
    attempted = sum(outcomes.values())
    failed = attempted - outcomes["pass"]
    correct = outcomes["refuted"] == 0 and res["warmup"]["refuted"] == 0
    if args.trace:
        metrics = res["metrics"]
    else:
        lat = res["latencies"]
        tail_value, rank, n = tail(lat)
        res["tail_rank"] = {"rank": rank, "samples": n, "percentile": 100.0 * rank / n}
        res["raw"] = raw = {
            "latency_p50_s": statistics.median(lat),
            "latency_tail_s": tail_value,
            "requests_per_s": res["requests_per_s"],
            "setup_s": statistics.median(t for t, _ in res["setup_probes"]),
        }
        # At reference host speed: the window scaled by the mean of its
        # calibration slices, each set-up probe by a slice in its own interpreter.
        speed = res["speed"]
        metrics = {
            "latency_p50_s": raw["latency_p50_s"] * speed,
            "latency_tail_s": raw["latency_tail_s"] * speed,
            "requests_per_s": raw["requests_per_s"] / speed,
            "peak_rss_mb": res["peak_rss_mb"],
            "setup_s": statistics.median(t for _, t in res["setup_probes"]),
        }
    units = {k: unit_of(k) for k in metrics}

    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"result-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(res, indent=1), encoding="utf-8")

    print(f"env: {json.dumps(res['env'], sort_keys=True)}")
    print(f"workload {args.workload} seed {args.seed}: {attempted} distinct requests, "
          f"outcomes {outcomes}, failed_frac {failed / attempted:.4f} ({failed}/{attempted})")
    if args.trace:
        print(f"traced {res['traced_s']:.3f} s, untraced {res['untraced_s']:.3f} s, "
              f"{res['spans']} spans")
        print("layer shares: " + ", ".join(f"{k} {v:.1%}" for k, v in res["shares"].items()))
        for label, shares in res["shares_by_label"].items():
            top = list(shares.items())[:3]
            print(f"  {label}: " + ", ".join(f"{k} {v:.1%}" for k, v in top))
    else:
        t = res["tail_rank"]
        print(f"latency_tail_s is rank {t['rank']} of {t['samples']} "
              f"(p{t['percentile']:.1f}); setup_s is the median of {SETUP_PROBES} interpreters")
        print(f"times at reference speed (host speed factor {res['speed']:.4f}); raw: "
              + ", ".join(f"{k} {v:.6g}" for k, v in res["raw"].items()))
        print(f"{len(lat)} requests in the window, {res['run_after_window']} "
              f"not reached by it run after it")
        for label, dt in res["head_latencies"].items():
            print(f"head request {label} (before the window): {dt:.3f} s")
    for k, v in metrics.items():
        print(f"  {k} = {v:.6g} {units[k]}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
