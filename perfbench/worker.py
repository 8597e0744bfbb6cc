"""One workload in its own process: set up, run whole cycles of jobs, report.

Started by ``run.py`` (and by ``probes.py``) from the root of a checkout.
The process caps its own address space, so a job that runs out of memory
raises ``MemoryError`` and is recorded as failed; a job that overruns the
per-job time limit is stopped by an interval timer and recorded the same
way.  It prints ``ready`` once the inputs exist (the parent times set-up up
to that line) and, unless ``--setup-only``, one ``result <json>`` line at
the end.

Between jobs the worker times a short fixed loop of plain Python that does
not touch the package (``reference_s``), three times after every job.  The shared
host these figures come from runs the same code up to 50 % slower for
seconds to a minute at a time; CPU time slows down with it (the host loses
speed, not scheduled time), so neither the least nor the median of a run's
repetitions is steady from one run to the next.  The loop slows down with
the host, and ``run.py`` scales a run's job times by ``REFERENCE_NOMINAL_S``
over the median loop time of that run.  One loop time is too noisy to scale
one job by; the median over a run is not.  The program under test cannot
change the loop, so a slower program still reads slower.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import os
import resource
import shutil
import signal
import sys
import time

ADDRESS_SPACE_CAP = 2 << 30   # bytes
JOB_LIMIT_S = 60
# a run whose cycles have not ended DEADLINE_FACTOR * --seconds after its
# first job stops there, and the jobs it did not reach count as failed
DEADLINE_FACTOR = 2.5
REFERENCE_NOMINAL_S = 0.002   # the loop's median time on the host measured
REFERENCE_REPEATS = 3         # loop timings after every job


class JobTimeout(BaseException):
    """Raised by the interval timer; a BaseException so that no
    ``except Exception`` inside the package swallows it."""


def _on_alarm(signum, frame):
    raise JobTimeout()


def reference_s() -> float:
    """One timing of a fixed loop over rotations of a run-length word:
    tuple building, list slicing and comparison, the kind of work the
    package does on words.  The garbage collector is off meanwhile, so the
    size of the package's heap does not enter the loop's time."""
    gc.disable()
    try:
        t0 = time.perf_counter()
        word = [((i * 7919) % 5 + 1, i % 3 - 1) for i in range(4000)]
        least = word
        for k in range(0, len(word), 97):
            rotation = word[k:] + word[:k]
            if rotation < least:
                least = rotation
        return time.perf_counter() - t0
    finally:
        gc.enable()


def run_job(job, limit: float, tracer=None, job_id=0) -> tuple[float, str]:
    """Time one job and check its output; returns (seconds, status)."""
    if tracer is not None:
        tracer.job = job_id
    if limit <= 0:
        return 0.0, "failed: run deadline passed before the job"
    gc.collect()  # every job starts from the same collector state, untimed
    signal.setitimer(signal.ITIMER_REAL, limit)
    t0 = time.perf_counter()
    try:
        result = job.call()
        seconds = time.perf_counter() - t0
    except JobTimeout:
        return time.perf_counter() - t0, "failed: timeout"
    except MemoryError:
        return time.perf_counter() - t0, "failed: out of memory"
    except Exception as exc:  # a crash of the program under test is a failed job
        return time.perf_counter() - t0, f"failed: {type(exc).__name__}: {exc}"[:200]
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    try:
        return seconds, job.check(result)
    except Exception as exc:
        return seconds, f"failed: check raised {type(exc).__name__}: {exc}"[:200]


def run_cycle(jobs, records: list, reference: list, deadline: float, tracer=None) -> None:
    """Run every job once, appending (kind, seconds, status) to ``records``
    and loop times after each job to ``reference``."""
    for job in jobs:
        limit = min(JOB_LIMIT_S, deadline - time.perf_counter())
        seconds, status = run_job(job, limit, tracer, len(records))
        records.append((job.kind, seconds, status))
        reference.extend(reference_s() for _ in range(REFERENCE_REPEATS))


def canaries(workdir: str) -> dict:
    """Byte-stable outputs and the size of the package, outside any timing."""
    import workloads

    lines = 0
    for root, _, files in os.walk(os.path.join("src", "relfree")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(root, name), encoding="utf-8") as fh:
                    lines += sum(1 for _ in fh)
    code, out = workloads.run_cli(["report", "--output", "kv"])
    path = os.path.join(workdir, "canary-pres.txt")
    workloads.run_cli(["graded", "build", "--rank", "2", "--pair-budget", "1",
                       "--h", "20", "--d", "2", "--n", "3", "--out", path])
    with open(path, "rb") as fh:
        pres_hash = hashlib.sha256(fh.read()).hexdigest()
    return {"src_lines": lines,
            "report_kv_sha256": hashlib.sha256(out.encode()).hexdigest(),
            "report_exit": code,
            "graded_build_20_2_3_sha256": pres_hash}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, help="a workload or a status probe")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--spans", help="write the traced spans here")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_CAP, ADDRESS_SPACE_CAP))
    signal.signal(signal.SIGALRM, _on_alarm)
    sys.path.insert(0, "src")
    os.makedirs(args.workdir)
    try:
        import workloads

        probe = args.workload in workloads.PROBES
        make, cycles = workloads.PROBES.get(args.workload) \
            or workloads.WORKLOADS[args.workload]
        plan = make(args.seed, args.workdir, 1 if args.trace else cycles)
        print("ready", flush=True)
        if args.setup_only:
            return 0
        # the inputs live for the whole run; frozen, they are not traversed by
        # the collections that run inside the jobs, as in a fresh process
        gc.collect()
        gc.freeze()
        result = {"kinds": len(plan[0])}
        records: list = []
        reference: list = []
        deadline = time.perf_counter() + DEADLINE_FACTOR * args.seconds
        if args.trace:
            result.update(traced(plan[0], records, reference, deadline, args.spans))
        else:
            result.update(closed_loop(plan, records, reference, deadline))
        result["records"] = records
        result["reference_s"] = reference
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if not probe:
            result["canaries"] = canaries(args.workdir)
        print("result " + json.dumps(result), flush=True)
        return 0
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)


def closed_loop(plan, records: list, reference: list, deadline: float) -> dict:
    """Every cycle of the plan in turn, one client, no think time.  Jobs that
    the deadline cuts off are still recorded, as failed, so every run has
    the same number of samples."""
    start = time.perf_counter()
    for jobs in plan:
        run_cycle(jobs, records, reference, deadline)
    return {"cycles": len(plan), "wall_s": time.perf_counter() - start}


def traced(jobs, records: list, reference: list, deadline: float,
           spans_path: str | None) -> dict:
    """The cycle twice untraced (the first pays the first-call costs), then
    once more with every layer wrapped."""
    import tracer as tracing

    for _ in range(2):
        run_cycle(jobs, records, reference, deadline)
    tr = tracing.Tracer()
    tr.install()
    try:
        run_cycle(jobs, records, reference, deadline, tr)
    finally:
        tr.uninstall()
    if spans_path:
        tr.write(spans_path)
    return {"cycles": 3, "layers": tracing.layer_metrics(tr.summary()),
            "missing": tr.missing}


if __name__ == "__main__":
    with contextlib.suppress(BrokenPipeError):
        sys.exit(main())
