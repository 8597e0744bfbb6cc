"""Status probes for cases that did not finish when the benchmark was made.

    python3 perfbench/probes.py [--out FILE]

run from the root of a checkout, apart from the timed workloads.  Each probe
(``workloads.PROBES``) is a one-job workload run once in its own worker
process, under the worker's per-job time limit and address-space cap, and
is recorded as ``ok``, ``dnf`` (time limit), ``oom`` (the cap was hit),
``refused`` (the program declined: exit 3 or a budget error) or ``error``,
with its wall time and the worker's peak resident memory.  A later change
that makes one of them finish shows up as a change of status.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import run
import worker

# a job's status in the worker -> the probe's status
STATUS = {"ok": "ok", "undecided": "refused", "failed: timeout": "dnf",
          "failed: out of memory": "oom"}


def run_probe(name: str) -> dict:
    t0 = time.monotonic()
    _, result = run.run_worker(name, 0, worker.JOB_LIMIT_S, 0, [], "probe",
                               run.SETUP_LIMIT_S + worker.JOB_LIMIT_S + run.WORKER_GRACE_S)
    if result is None:  # killed by the parent: the job outlived its own timer
        status, peak = "dnf", None
    else:
        (_, _, outcome), = result["records"]
        status, peak = STATUS.get(outcome, "error"), round(result["peak_rss_mb"], 1)
    return {"probe": name, "status": status, "wall_s": round(time.monotonic() - t0, 3),
            "peak_rss_mb": peak, "limit_s": worker.JOB_LIMIT_S,
            "address_space_cap_mb": worker.ADDRESS_SPACE_CAP >> 20}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", help="also write the JSON here")
    args = ap.parse_args()
    if not os.path.isfile(os.path.join("src", "relfree", "cli.py")):
        print("run from the root of a relfree checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, "src")
    import workloads

    os.makedirs(run.STATE, exist_ok=True)
    results = [run_probe(name) for name in workloads.PROBES]
    text = json.dumps(results, indent=1)
    print(text)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
