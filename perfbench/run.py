"""Benchmark entry point: ``python3 perfbench/run.py --workload W --seed S
--seconds T --trace 0|1``, run from the root of a checkout.

Each workload runs in its own worker process (``worker.py``).  With
``--trace 0`` the workload is set up ``SETUP_REPEATS`` times in all, in
workers started before and after the one that runs it, and the median
set-up time is reported; the running worker runs the workload's
fixed number of whole cycles of jobs, sized to take well under
``--seconds`` (a run still going at ``DEADLINE_FACTOR * --seconds`` stops,
and the jobs it did not reach count as failed).  The end-to-end metrics
come from every job's time at the reference speed (see ``worker.py``).
With ``--trace 1`` one worker runs one cycle twice untraced and once traced,
and the per-layer metrics come from the traced one.  The last line of
standard output is the result object; the line before it carries the
detail (which tail percentile, sample counts, shares, wall-clock figures,
canaries).
"""

from __future__ import annotations

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
import time

import worker

SETUP_REPEATS = 5
SETUP_REFERENCE_SAMPLES = 15
SETUP_LIMIT_S = 20
# beyond the run's deadline: the canaries; a worker still running after
# that is killed
WORKER_GRACE_S = 30
HERE = os.path.dirname(os.path.abspath(__file__))
STATE = ".perfbench"  # scratch space inside the checkout
WORKLOAD_NAMES = ("conjugacy", "rewriting", "acceptance")


def read_line(proc: subprocess.Popen, deadline: float) -> str | None:
    while True:
        left = deadline - time.monotonic()
        if left <= 0:
            return None
        ready, _, _ = select.select([proc.stdout], [], [], left)
        if ready:
            line = proc.stdout.readline()
            return line if line else None


def finish(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.wait()
    proc.stdout.close()


def run_worker(workload: str, seed: int, seconds: float, trace: int, extra: list[str],
               tag: str, limit: float):
    """Start a worker; returns (set-up seconds at the reference speed,
    result dict or None).  No result comes back from a worker that is
    killed at ``limit`` seconds or dies."""
    workdir = os.path.join(STATE, f"{workload}-{seed}-{os.getpid()}-{tag}")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--workdir", workdir] + extra
    # the host's speed just before the set-up: a set-up is too short and
    # too far from the run's jobs to share their scale
    speed = worker.REFERENCE_NOMINAL_S / statistics.median(
        worker.reference_s() for _ in range(SETUP_REFERENCE_SAMPLES))
    t0 = time.monotonic()
    deadline = t0 + limit
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        line = read_line(proc, deadline)
        if line is None or line.strip() != "ready":
            return None, None
        setup = (time.monotonic() - t0) * speed
        result = None
        while True:
            line = read_line(proc, deadline)
            if line is None:
                break
            if line.startswith("result "):
                result = json.loads(line[len("result "):])
        return setup, result
    finally:
        finish(proc)


def tail(times: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, as
    (value, percentile).  Below 21 samples that percentile would sit under
    the median, so the median is reported instead."""
    ordered = sorted(times)
    n = len(ordered)
    if n < 21:
        return statistics.median(ordered), 50.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join("src", "relfree", "cli.py")):
        print("run from the root of a relfree checkout: src/relfree is missing",
              file=sys.stderr)
        return 2
    os.makedirs(STATE, exist_ok=True)

    def start(extra, tag, limit):
        return run_worker(args.workload, args.seed, args.seconds, args.trace,
                          extra, tag, limit)

    def set_up(count: int, tag: str) -> list[float] | None:
        setups = [start(["--setup-only"], f"{tag}{i}", SETUP_LIMIT_S)[0]
                  for i in range(count)]
        return None if None in setups else setups

    # set-up only workers before and after the run, so that the set-up
    # samples span the run's time and not one moment of the host
    extra = 0 if args.trace else SETUP_REPEATS - 1
    before = set_up(extra // 2, "b")
    if before is None:
        print("set-up failed", file=sys.stderr)
        return 1
    spans = os.path.join(STATE, f"spans-{args.workload}-{args.seed}.tsv")
    setup, result = start(["--spans", spans] if args.trace else [], "run",
                          SETUP_LIMIT_S + worker.DEADLINE_FACTOR * args.seconds
                          + WORKER_GRACE_S)
    if result is None:
        print("the worker ended without a result", file=sys.stderr)
        return 1
    after = set_up(extra - extra // 2, "a")
    if after is None:
        print("set-up failed", file=sys.stderr)
        return 1
    setups = before + [setup] + after

    records = result["records"]
    attempted = len(records)
    failed = sum(1 for _, _, status in records if status.startswith("failed"))
    undecided = sum(1 for _, _, status in records if status == "undecided")
    wall = [seconds for _, seconds, _ in records]
    # wall time -> time at the reference speed, by the run's median loop time
    speed = worker.REFERENCE_NOMINAL_S / statistics.median(result["reference_s"])
    scaled = [seconds * speed for seconds in wall]
    detail = {"workload": args.workload, "seed": args.seed, "jobs": attempted,
              "cycles": result["cycles"], "kinds": result["kinds"],
              "failed_share": failed / attempted, "undecided_share": undecided / attempted,
              "reference_scale": speed, "setup_samples_s": setups,
              "canaries": result["canaries"],
              "failures": sorted({f"{k}: {s}" for k, _, s in records
                                  if s.startswith("failed")})}
    if args.trace:
        k = result["kinds"]  # cycles: warm-up, untraced, traced
        untraced = k / sum(scaled[k:2 * k])
        traced = k / sum(scaled[2 * k:])
        metrics = dict(result["layers"])
        metrics["run.failed_share"] = failed / attempted
        metrics["run.undecided_share"] = undecided / attempted
        metrics["trace.untraced_jobs_per_s"] = untraced
        metrics["trace.traced_jobs_per_s"] = traced
        metrics["trace.overhead_jobs_per_s"] = untraced - traced
        metrics["src.lines"] = result["canaries"]["src_lines"]
        detail["untraced_layers"] = result["missing"]
        out = {name: {"value": value, "unit": _unit(name)} for name, value in metrics.items()}
    else:
        tail_value, percentile = tail(scaled)
        detail["job_tail_percentile"] = percentile
        detail["wall_s"] = result["wall_s"]
        detail["wall_job_p50_s"] = statistics.median_high(wall)
        detail["wall_job_tail_s"] = tail(wall)[0]
        detail["wall_jobs_per_s"] = attempted / sum(wall)
        out = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            # the upper of the two middle samples: a measured job time, never
            # the mean of the slowest fast job and the fastest slow one
            "job_p50_s": {"value": statistics.median_high(scaled), "unit": "s"},
            "job_tail_s": {"value": tail_value, "unit": "s"},
            "jobs_per_s": {"value": attempted / sum(scaled), "unit": "1/s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }
    print("detail " + json.dumps(detail))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": out}))
    return 0


def _unit(name: str) -> str:
    if name.endswith("self_s"):
        return "s"
    if name.endswith("_share") or name.endswith("ratio"):
        return "share"
    if name.endswith("jobs_per_s"):
        return "1/s"
    if name == "src.lines":
        return "lines"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
