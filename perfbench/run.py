"""Benchmark entry point: one workload, measured in fresh processes.

Run from the root of a checkout::

    python3 perfbench/run.py --workload ref_ua741 --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.  It starts
``SETUPS - 1`` fresh processes that only set the workload up, then one fresh
process that sets up and runs the closed loop for ``--seconds`` (whole
rounds, at least one).  ``setup_s`` is the median over all ``SETUPS``
set-ups; the other metrics come from the measuring process.  Times are in
calibrated seconds (see ``worker.py``); the line before the result holds
the wall-clock figures too.  ``--trace 1``
runs the workload in one process, untraced and then traced on the same
inputs, and reports the per-layer metrics.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from layers import LAYERS  # noqa: E402
from measure import end_to_end, failed_ratio, median  # noqa: E402

WORKLOADS = ("ref_ua741", "ref_postlayout", "ensemble_inline",
             "ensemble_supervised")
#: Fresh processes whose set-up time ``setup_s`` is the median of.
SETUPS = 5
#: Wall-clock budget of the whole command.
BUDGET_S = 170.0
END_TO_END_UNITS = {"setup_s": "s", "throughput_per_s": "1/s",
                    "latency_s_p50": "s", "peak_rss_mb": "MiB"}


def child_environment():
    """The library from ``src``, BLAS on one thread, library defaults."""
    environment = {key: value for key, value in os.environ.items()
                   if not key.startswith("REPRO_")}
    environment.update({
        "PYTHONPATH": os.path.join(os.getcwd(), "src"),
        "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
        # Forked workers inherit the tracing wrappers and shared counters.
        "REPRO_MP_START": "fork",
    })
    return environment


def run_worker(args, deadline, setup_only=False):
    """Start ``worker.py`` in a fresh process and return its JSON record."""
    command = [sys.executable, os.path.join(HERE, "worker.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        command.append("--setup-only")
    started = time.perf_counter()
    command += ["--t0", repr(started)]
    remaining = deadline - started
    if remaining <= 0:
        raise RuntimeError("time budget exhausted before the run finished")
    # A session of its own, so a timeout can stop the worker's own workers.
    process = subprocess.Popen(command, env=child_environment(),
                               stdout=subprocess.PIPE, text=True,
                               start_new_session=True)
    try:
        output, __ = process.communicate(timeout=remaining)
    finally:
        if process.poll() is None:
            os.killpg(process.pid, signal.SIGKILL)
            process.wait()
    if process.returncode != 0:
        raise RuntimeError(f"worker exited with code {process.returncode}")
    return json.loads(output.strip().splitlines()[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not os.path.isfile(os.path.join("src", "repro", "__init__.py")):
        print("run.py: no src/repro here; run it from the root of a "
              "checkout of the repository", file=sys.stderr)
        return 2
    deadline = time.perf_counter() + BUDGET_S

    try:
        setups = ([] if args.trace else
                  [run_worker(args, deadline, setup_only=True)
                   for __ in range(SETUPS - 1)])
        record = run_worker(args, deadline)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError,
            IndexError) as error:
        print(f"run.py: {args.workload} failed: {error}", file=sys.stderr)
        return 1

    attempted = record["attempted"]
    failed = record["failed"]
    setups.append(record)
    details = {
        "unit": record["unit"],
        "operations": record["operations"],
        "failed_ratio": failed_ratio(failed, attempted),
        "setup_runs_s": [setup["setup_s"] for setup in setups],
        "setup_runs_wall_s": [setup["setup_wall_s"] for setup in setups],
        "checks": record["checks"],
        "errors": record["errors"],
    }
    if args.trace:
        details["silent_wrappers"] = record["silent_wrappers"]
        metrics = {name: {"value": record["per_layer"][name], "unit": unit}
                   for name, unit, *__ in LAYERS}
    else:
        sizes = record["block_size"], record["round_size"]
        summary = end_to_end([(calibrated, units)
                              for __, calibrated, units in record["ops"]],
                             *sizes)
        details.update(summary)
        details["wall"] = end_to_end([(latency, units)
                                      for latency, __, units in record["ops"]],
                                     *sizes)
        values = {"setup_s": median(details["setup_runs_s"]),
                  "throughput_per_s": summary["throughput_per_s"],
                  "latency_s_p50": summary["latency_s_p50"],
                  "peak_rss_mb": record["peak_rss_mb"]}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
    correct = record["checks_passed"] and not details.get("silent_wrappers")
    print(json.dumps({"workload": args.workload, "details": details}))
    print(json.dumps({"correct": bool(correct), "attempted": int(attempted),
                      "failed": int(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
