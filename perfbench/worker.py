"""Run one workload in this (fresh) process and print its record as JSON.

Started by ``run.py``; not meant to be run by hand.  ``--t0`` is the
``time.perf_counter()`` reading the parent took just before starting this
process (the clock is system-wide on Linux), so set-up time covers
interpreter start, imports, input generation and warm-up.

Times are also reported in *calibrated seconds*: a wall time scaled by
``CALIBRATION_REF_S`` over the time the host currently takes for a fixed
calibration kernel.  On a shared host the speed of all code drifts by a
quarter or more over minutes; the kernel drifts with it, so calibrated
seconds stay put while a change to the library still moves them fully.
"""

from __future__ import annotations

import argparse
import json
import resource
import time

import numpy as np

from layers import LAYER_TIMES, per_layer_record
from spans import Tracer, self_times
from workloads import WORKLOADS

#: Kernel time that makes one calibrated second one wall second (about the
#: kernel's time on a quiet 2-vCPU x86-64 host).
CALIBRATION_REF_S = 0.005
#: Share of an operation's latency spent timing the kernel after it.
CALIBRATION_SHARE = 0.02
#: Time spent timing the kernel after set-up.
SETUP_CALIBRATION_S = 0.1
_KERNEL_MATRIX = np.random.default_rng(0).standard_normal((40, 40)) + 0j


def _kernel():
    """Seconds one run of the calibration kernel takes: zgesv calls and an
    interpreter loop, the two kinds of work the workloads do."""
    began = time.perf_counter()
    for __ in range(40):
        np.linalg.solve(_KERNEL_MATRIX, _KERNEL_MATRIX)
    total = 0
    for value in range(20000):
        total += value * value
    return time.perf_counter() - began


def kernel_seconds(budget):
    """Mean kernel time over runs made until ``budget`` seconds (at least one)."""
    times = [_kernel()]
    while sum(times) < budget:
        times.append(_kernel())
    return sum(times) / len(times)


def peak_rss_mb():
    """Peak resident memory of this process plus its largest child, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def closed_loop(workload, seconds=None, operations=None, recorder=None):
    """Run operations back to back; one caller, no overlap.

    Runs operations ``0, 1, …`` until ``seconds`` have passed (at least one
    round, whole rounds only), or exactly ``operations`` operations.  The
    kernel is timed before the first operation and after each one; an
    operation's calibrated latency uses the mean of the kernel times on
    either side of it.  Returns the phase record; ``ops`` holds
    ``(latency, calibrated latency, units done)`` per operation.
    """
    whole = workload.ops_per_round
    calibrated = []
    operations_run = []
    done = failed = quarantined = 0
    errors = []
    before = kernel_seconds(0.0)
    started = time.perf_counter()
    count = 0
    while True:
        if operations is not None:
            if count >= operations:
                break
        elif (count and count % whole == 0
              and time.perf_counter() - started >= seconds):
            break
        item = workload.make_input(count)
        began = time.perf_counter()
        span = recorder.open("entry") if recorder is not None else None
        try:
            result = workload.run(item)
        except Exception as error:  # an operation failure is counted, not fatal
            result = None
            errors.append(f"{type(error).__name__}: {error}")
        finally:
            if span is not None:
                recorder.close(span)
        latency = time.perf_counter() - began
        after = kernel_seconds(CALIBRATION_SHARE * latency)
        calibrated.append(latency * CALIBRATION_REF_S / (0.5 * (before + after)))
        before = after
        if result is None:
            good, bad = 0, workload.units(item)
        else:
            good, bad = workload.outcome(item, result)
            quarantined += workload.quarantined(result)
            workload.check(item, result)
        done += good
        failed += bad
        operations_run.append((latency, calibrated[-1], good))
        count += 1
    return {"wall_s": time.perf_counter() - started, "operations": count,
            "calibrated": calibrated, "ops": operations_run, "done": done,
            "failed": failed, "quarantined": quarantined,
            "errors": errors[:5]}


def per_layer(tracer, phase, untraced_phase):
    """Per-operation layer metrics of a traced phase."""
    selfs, covered = self_times(tracer.recorder.spans)
    unknown = sorted(set(selfs) - set(LAYER_TIMES))
    if unknown:
        raise RuntimeError(f"spans without a metric: {unknown}")
    # Calibrated, so host drift between the two phases does not read as
    # tracing cost.
    overhead = (sum(phase["calibrated"]) / sum(untraced_phase["calibrated"])
                - 1.0)
    return per_layer_record(selfs, covered, phase["wall_s"],
                            tracer.recorder.totals(), phase["operations"],
                            phase["quarantined"], overhead)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, report the set-up time and stop")
    args = parser.parse_args()

    workload = WORKLOADS[args.workload](args.seed)
    try:
        workload.setup()
        wall = time.perf_counter() - args.t0
        record = {"setup_wall_s": wall,
                  "setup_s": wall * CALIBRATION_REF_S
                  / kernel_seconds(SETUP_CALIBRATION_S)}
        if args.setup_only:
            print(json.dumps(record))
            return
        if args.trace:
            plain = closed_loop(workload, seconds=args.seconds / 2.0)
            with Tracer(workload.patches()) as tracer:
                traced = closed_loop(workload,
                                     operations=plain["operations"],
                                     recorder=tracer.recorder)
            record["per_layer"] = per_layer(tracer, traced, plain)
            record["silent_wrappers"] = tracer.silent()
            phases = (plain, traced)
        else:
            plain = closed_loop(workload, seconds=args.seconds)
            record["peak_rss_mb"] = peak_rss_mb()
            record["ops"] = plain["ops"]
            phases = (plain,)
        ok, details = workload.verdict()
    finally:
        workload.close()
    record["attempted"] = sum(phase["done"] + phase["failed"]
                              for phase in phases)
    record["failed"] = sum(phase["failed"] for phase in phases)
    record["operations"] = sum(phase["operations"] for phase in phases)
    record["errors"] = [error for phase in phases for error in phase["errors"]]
    record["unit"] = workload.unit
    record["round_size"] = workload.ops_per_round
    record["block_size"] = workload.ops_per_round * workload.block_rounds
    record["checks_passed"] = ok
    record["checks"] = details
    print(json.dumps(record))


if __name__ == "__main__":
    main()
