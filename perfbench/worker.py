"""One workload in one fresh interpreter: ``run.py`` starts this file.

Usage: ``python3 perfbench/worker.py WORKLOAD SEED SECONDS TRACE [--tiny]``.
Prints one JSON object on its last line of standard output.

A single closed-loop client sends each request only after the previous one
has completed.  A request follows the path of a CLI subcommand: parse the
problem document, call the layer's entry point, serialize the report.  One
untimed warm-up request runs first, on every commit the same.  Reports are
checked after the timed loop, so checking does not count as request time.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import nonalter  # noqa: E402
from nonalter import classify, oracle, problem_io, qp1qc, solve  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))

import calibration  # noqa: E402
from check import CHECKS  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import Schedule, build_schedule  # noqa: E402

OUT_DIR = ROOT / ".perfbench"
CAL_EVERY_S = 1.0  # one calibration slice per second of the timed window
SOLVE_TOL = 1e-8  # the CLI default of `nonalter solve`
CLASSIFY_TOL = 1e-9  # the CLI default of `nonalter classify`


def execute(req) -> str:
    """One request along its CLI path; returns the printed JSON report."""
    f, g, h, meta = problem_io.parse_problem_dict(req.doc)
    if req.kind == "solve":
        payload = {"meta": meta, "report": solve.solve_nonalter(f, g, h, SOLVE_TOL)}
    elif req.kind == "classify":
        payload = {"meta": meta, "classification": classify.classify_problem(g, h, CLASSIFY_TOL)}
    else:
        payload = {"meta": meta, "single_constraint": qp1qc.solve_qp1qc(f, g, SOLVE_TOL)}
    return problem_io.dumps_report(payload)


def attempt(req):
    """(latency in seconds, printed report or None if the request raised)."""
    t0 = time.perf_counter()
    try:
        text = execute(req)
    except Exception as exc:  # a raising request is counted as failed
        print(f"request {req.label} raised {exc!r}", file=sys.stderr)
        text = None
    return time.perf_counter() - t0, text


SEVERITY = ("pass", "unverified", "failure", "refuted")


def outcome(req, text) -> str:
    return "failure" if text is None else CHECKS[req.kind](req.doc, json.loads(text))


def judge(results):
    """Counts of check outcomes over (request, report texts) pairs.

    Each request counts once, by the worst outcome among its executions, so
    the counts depend on the schedule (the seed) and not on how many times
    the timed window happened to repeat a request.  Identical report texts
    are checked once.
    """
    outcomes = dict.fromkeys(SEVERITY, 0)
    for req, texts in results:
        outcomes[max((outcome(req, t) for t in set(texts)), key=SEVERITY.index)] += 1
    return outcomes


def clear_caches() -> None:
    """Drop the oracle's grid cache so each pass builds its grids itself."""
    cached = getattr(oracle, "_grid_points_cached", None)
    if cached is not None and hasattr(cached, "cache_clear"):
        cached.cache_clear()


def timed_run(schedule: Schedule, seconds: float) -> dict:
    """The head requests, then cycle requests until ``seconds`` have passed.

    The head runs before the window: it is checked and its latency is
    recorded, but window metrics leave it out.  It takes half a window or
    more, and its time follows the host's memory bandwidth more than the
    code, so inside the window it would set the throughput on its own.
    The request in flight when the window closes completes but counts toward
    throughput only by the share of it that fell inside the window, so the
    rate does not jump by a whole request with the exact end time.
    Calibration slices run three times before the window and once per
    second inside it, between requests; throughput leaves their time out.

    The window wraps around to the first cycle request when it has sent them
    all.  Cycle requests it did not reach run after it, untimed, so every
    request of the schedule is checked on every run: ``attempted`` and
    ``failed`` follow from the seed alone, not from the host's speed.
    """
    head = [(req, *attempt(req)) for req in schedule.head]
    order = schedule.window_order()
    texts = [[] for _ in order]
    latencies = []
    cal_before = [calibration.slice_seconds() for _ in range(3)]
    cal_inside = []
    i = 0
    start = time.perf_counter()
    while (sent := time.perf_counter() - start) < seconds:
        if sent >= CAL_EVERY_S * len(cal_inside):
            cal_inside.append(calibration.slice_seconds())
            continue
        last_sent = sent
        dt, text = attempt(order[i])
        latencies.append(dt)
        texts[i].append(text)
        i = (i + 1) % len(order)
    inside = len(latencies) - 1 + min(1.0, (seconds - last_sent) / latencies[-1])
    after = [j for j, t in enumerate(texts) if not t]
    for j in after:
        texts[j].append(attempt(order[j])[1])
    results = [(req, [text]) for req, _, text in head] + list(zip(order, texts))
    return {"head_latencies": {req.label: dt for req, dt, _ in head},
            "latencies": latencies, "requests_per_s": inside / (seconds - sum(cal_inside)),
            "calibration_s": cal_before + cal_inside,
            "speed": calibration.REF_S / statistics.fmean(cal_before + cal_inside),
            "labels": [order[j % len(order)].label for j in range(len(latencies))],
            "run_after_window": len(after), "outcomes": judge(results)}


def traced_run(schedule: Schedule, spans_path: Path) -> dict:
    """Warm-up, traced, then untraced over the same fixed list.

    The first pass, over the cycle only, warms the interpreter for every
    kind of request of the list; the overhead is the traced pass minus the
    last untraced one.  The grid cache is cleared before each measured pass.
    """
    order = schedule.traced_order()
    for req in schedule.cycles[0]:
        attempt(req)

    clear_caches()
    tracer = Tracer()
    tracer.install()
    results = []
    try:
        t0 = time.perf_counter()
        for i, req in enumerate(order):
            tracer.request = i
            idx = tracer.open("request", "request")
            try:
                _, text = attempt(req)
            finally:
                tracer.close(idx)
            results.append((req, [text]))
        traced = time.perf_counter() - t0
    finally:
        tracer.uninstall()

    clear_caches()
    t0 = time.perf_counter()
    for req in order:
        attempt(req)
    untraced = time.perf_counter() - t0

    labels = [r.label for r in order]
    tracer.write(spans_path, labels)
    metrics = tracer.layer_metrics()
    metrics["trace.overhead_s"] = traced - untraced
    by_label = {}
    for label in dict.fromkeys(labels):
        ids = {i for i, lb in enumerate(labels) if lb == label}
        by_label[label] = tracer.layer_shares(ids)
    return {"metrics": metrics, "requests": len(order), "untraced_s": untraced, "traced_s": traced,
            "shares": tracer.layer_shares(), "shares_by_label": by_label,
            "outcomes": judge(results), "spans": len(tracer.spans)}


def environment(seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    threads = {k: os.environ.get(k) for k in
               ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": threads,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": cpu,
        "seed": seed,
        "commit": git_commit(),
    }


def git_commit():
    """HEAD of the checkout when it is a git work tree, read without git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text(encoding="utf-8").strip()
        for line in (ROOT / ".git" / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def main(argv) -> int:
    workload, seed, seconds, trace = argv[0], int(argv[1]), float(argv[2]), int(argv[3])
    tiny = "--tiny" in argv[4:]
    if not Path(nonalter.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"imported nonalter from {nonalter.__file__}, not from this checkout",
              file=sys.stderr)
        return 2
    schedule = build_schedule(workload, seed, tiny)
    OUT_DIR.mkdir(exist_ok=True)
    docs_path = OUT_DIR / f"docs-{workload}.json"
    docs_path.write_text(json.dumps(schedule.documents()), encoding="utf-8")

    _, warm = attempt(schedule.warmup)
    out = {"workload": workload, "env": environment(seed), "docs": str(docs_path),
           "digest": schedule.digest(), "warmup": judge([(schedule.warmup, [warm])])}
    if trace:
        out.update(traced_run(schedule, OUT_DIR / f"spans-{workload}.json"))
    else:
        out.update(timed_run(schedule, seconds))
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
