"""Supervised multiprocess ensemble driver: fast *and* fault-tolerant.

The PR 5 engine is single-process, and the PR 7 resilience layer runs
quarantined ensembles serially so the report is deterministic — so the
system was either fast or fault-tolerant, never both.  This module removes
that trade-off: :func:`parallel_ensemble_sweep` shards the sample axis
across worker *processes* under a supervisor that keeps the run alive
through worker crashes and hangs, while keeping every result bit identical
to an uninterrupted single-process resilient run.

Determinism is structural, not statistical:

* element values are drawn **up front** from the seeded sampler and placed
  in shared memory; every worker sees the same bits;
* **shard boundaries are fixed** by ``shard_size`` alone — never by worker
  count, completion order, or failures — and the batched dense solver is
  batch-size invariant while the sparse path solves sample-by-sample, so
  a shard's response rows are bit-for-bit the rows of the full run;
* a re-dispatched shard re-runs the identical computation on identical
  inputs, so retries are invisible in the output;
* per-shard :class:`~repro.engine.resilience.SweepReport`s and streaming
  :class:`~repro.montecarlo.statistics.EnsembleStatistics` are folded **in
  fixed shard order** as each shard joins the contiguous completed prefix,
  regardless of which worker finished which shard when.

The supervisor distinguishes two failure planes:

* **infrastructure failure** — a worker process died (SIGKILL, OOM), hung
  past the shard deadline, went heartbeat-silent, or raised something that
  is not a :class:`~repro.errors.ReproError`.  The shard is re-dispatched
  to a healthy worker with bounded retries and backoff; the dead worker is
  replaced.  When the retry budget is exhausted the run aborts with a
  typed :class:`~repro.errors.ShardFailureError` carrying the shard index
  and the chronological attempt trail.
* **numerical failure** — the escalation chain inside a worker was
  exhausted for some sample.  Exactly as in-process: with
  ``on_failure="quarantine"`` the sample is masked NaN and recorded in the
  shard report; with ``"raise"`` the error aborts the ensemble.  Numerical
  failure never causes a shard re-run.

Workers send each completed shard's
:class:`~repro.engine.resilience.SweepReport` back with it; the supervisor
merges each shard's report exactly once, in plan order, so the run's report
records every escalation and quarantine no matter how many processes
solved it.

Supervision is one fixed policy: the timing and retry-budget constants
below.  ``REPRO_MP_START`` selects the multiprocessing start method
(``fork`` / ``spawn`` / ``forkserver``; default: the platform default), and
the caller's ``workers`` the worker count (default: the CPU count).
"""

from __future__ import annotations

import collections
import dataclasses
import math
import multiprocessing
import os
import pickle
import queue as queue_module
import signal
import threading
import time
from multiprocessing.sharedctypes import RawArray
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..errors import (FormulationError, ReproError, ShardFailureError,
                      SingularMatrixError)
from .engine import (EnsembleResult, _EnsembleFold, _ensemble_values,
                     _rebase_member_error, _reject_streaming_options,
                     ensemble_sweep)
from .space import ParameterSpace
from .statistics import EnsembleStatistics

__all__ = ["HEARTBEAT_INTERVAL", "HEARTBEAT_TIMEOUT", "SHARD_DEADLINE",
           "MAX_ATTEMPTS", "BACKOFF", "POLL_INTERVAL", "ParallelRunInfo",
           "ShardRun", "shard_plan", "run_shards", "parallel_ensemble_sweep"]

# The supervisor reads the six constants below each time it runs; it ships
# HEARTBEAT_INTERVAL to its workers in the payload, so a spawned worker
# beats at the supervisor's interval.

#: Seconds between worker heartbeats (a daemon thread in each worker stamps
#: ``time.monotonic()`` into a shared slot).
HEARTBEAT_INTERVAL = 0.25

#: A busy worker whose last heartbeat is older than this many seconds is
#: declared hung, killed and replaced; its shard is re-dispatched.
HEARTBEAT_TIMEOUT = 10.0

#: Wall-clock budget in seconds of one shard attempt; exceeding it counts as
#: a hang even if heartbeats still arrive.
SHARD_DEADLINE = 600.0

#: Total attempts per shard (first try + retries) before the run aborts
#: with :class:`~repro.errors.ShardFailureError`.
MAX_ATTEMPTS = 3

#: Seconds to wait before re-dispatching a failed shard, scaled by the
#: number of attempts already made.
BACKOFF = 0.25

#: Supervisor loop granularity in seconds.
POLL_INTERVAL = 0.01

#: Process-level fault plan installed by :func:`tests.faults.parallel_faults`:
#: ``{shard_index: action | [action_per_attempt, ...]}`` with actions
#: ``"kill"`` / ``"hang"`` / ``"crash"`` / ``"kill_after"`` (a bare string
#: applies to every attempt — a *poisoned* shard).  ``"kill_after"`` solves
#: the shard completely and SIGKILLs the worker *before reporting*, the
#: worst case for streaming accumulators: the re-dispatched attempt must
#: fold exactly once, never twice.  Shipped to workers inside the pickled
#: payload, so it works under fork and spawn alike.
_FAULT_PLAN: Optional[dict] = None


def _default_workers() -> int:
    """Worker processes when the caller does not say: the CPU count."""
    return max(1, os.cpu_count() or 1)


def _start_method() -> Optional[str]:
    """Start method from ``REPRO_MP_START`` (``None`` = platform default)."""
    method = os.environ.get("REPRO_MP_START", "").strip().lower()
    return method if method in ("fork", "spawn", "forkserver") else None


@dataclasses.dataclass
class ParallelRunInfo:
    """How a parallel ensemble was executed (attached to the result).

    ``attempts`` maps shard index → chronological attempt trail (strings);
    ``redispatches`` counts infrastructure re-runs (0 on a clean run);
    ``statistics`` is the streaming accumulator folded in fixed shard
    order, bit-identical to a checkpointed run of the same ``shard_size``.
    """

    workers: int
    shard_size: int
    shards: int
    redispatches: int
    attempts: Dict[int, List[str]]
    statistics: EnsembleStatistics


@dataclasses.dataclass
class ShardRun:
    """How :func:`run_shards` executed its plan.

    ``attempts`` maps shard index → chronological attempt trail (strings);
    ``redispatches`` counts infrastructure re-runs; ``workers`` is the
    worker count after clamping to the plan.  The results themselves live
    in the fold.
    """

    attempts: Dict[int, List[str]]
    redispatches: int
    workers: int


def shard_plan(samples, shard_size, first_sample=0) -> List[Tuple[int, int, int]]:
    """Fixed ``(shard_index, start, stop)`` boundaries over the sample axis.

    Boundaries depend only on ``shard_size`` — the same function cuts
    checkpointed, parallel and sequential runs, which is what makes their
    statistics streams bit-comparable.  ``first_sample`` lets a resumed
    checkpoint plan only its remaining tail while keeping global indices.
    """
    samples = int(samples)
    shard_size = int(shard_size)
    if shard_size <= 0:
        raise FormulationError(
            f"shard_size must be positive, got {shard_size}")
    plan = []
    for start in range(int(first_sample), samples, shard_size):
        stop = min(start + shard_size, samples)
        plan.append((start // shard_size, start, stop))
    return plan


def _plan_action(fault_plan, shard, attempt) -> Optional[str]:
    """The injected action for this (shard, attempt), if any."""
    if not fault_plan:
        return None
    spec = fault_plan.get(shard)
    if spec is None:
        return None
    if isinstance(spec, str):
        return spec
    index = attempt - 1
    if 0 <= index < len(spec):
        return spec[index]
    return None


def _solve_shard(job, values, weights, start, stop, threads):
    """Solve one shard: the per-shard call of both executors.

    A streaming run's shard folds itself here, in the process that solved
    it, so only its accumulators travel back.  A raise-mode error is
    re-based here too, so a worker forwards the member of the whole run.
    """
    try:
        return ensemble_sweep(
            job["circuit"], job["output"], job["frequencies"], job["space"],
            values=values[start:stop], method=job["method"], workers=threads,
            on_failure=job["on_failure"], shard_size=stop - start,
            weights=None if weights is None else weights[start:stop],
            **job["streaming"])
    except SingularMatrixError as error:
        _rebase_member_error(error, start)


# --------------------------------------------------------------------------- #
# worker side
# --------------------------------------------------------------------------- #


def _heartbeat_loop(slot, heartbeats, interval, stop_event):
    while not stop_event.wait(interval):
        heartbeats[slot] = time.monotonic()


def _worker_main(slot, payload, tasks, results, values_buffer,
                 responses_buffer, weights_buffer, heartbeats):
    """One worker process: pull shard tasks, solve, push results.

    Stored mode: the worker reads its sample rows from the shared values
    buffer and writes its response rows to a disjoint slice of the shared
    responses buffer *before* reporting completion, so a kill at any
    instant leaves either an unreported (re-runnable) shard or a fully
    written one.

    Streaming mode (no responses buffer): the worker folds its shard into
    fresh accumulators and ships them in the completion message.  A kill
    before the message leaves *no* trace — accumulators travel with the
    report, so a shard folds exactly once no matter how many attempts it
    took.
    """
    num_samples = payload["num_samples"]
    values = np.frombuffer(values_buffer, dtype=float).reshape(
        num_samples, payload["num_axes"])
    responses = None
    if responses_buffer is not None:
        responses = np.frombuffer(
            responses_buffer, dtype=np.complex128).reshape(
                num_samples, payload["num_points"])
    weights = None
    if weights_buffer is not None:
        weights = np.frombuffer(weights_buffer, dtype=float)[:num_samples]
    heartbeats[slot] = time.monotonic()
    stop_event = threading.Event()
    beat = threading.Thread(
        target=_heartbeat_loop,
        args=(slot, heartbeats, payload["heartbeat_interval"], stop_event),
        daemon=True)
    beat.start()
    fault_plan = payload["fault_plan"]
    while True:
        task = tasks.get()
        if task is None:
            return
        shard, start, stop, attempt = task
        action = _plan_action(fault_plan, shard, attempt)
        if action == "kill":
            os.kill(os.getpid(), signal.SIGKILL)
        if action == "hang":
            # Go silent: heartbeats stop, the task never completes.  The
            # supervisor must detect and kill us.
            stop_event.set()
            time.sleep(3600.0)
        try:
            if action == "crash":
                raise RuntimeError(
                    f"injected crash (shard {shard}, attempt {attempt})")
            shard_result = _solve_shard(payload, values, weights, start,
                                        stop, threads=1)
            if action == "kill_after":
                # The solve completed but the worker dies before any
                # write-back / report: the at-most-once worst case.
                os.kill(os.getpid(), signal.SIGKILL)
            if responses is not None:
                responses[start:stop] = shard_result.responses
            results.put(("done", slot, shard, attempt, shard_result.report,
                         shard_result.solver, shard_result.statistics,
                         shard_result.yields))
        except ReproError as error:
            # Numerical failure (raise mode): forward the typed error.
            try:
                pickle.dumps(error)
                message = error
            except Exception:
                message = f"{type(error).__name__}: {error}"
            results.put(("numerical", slot, shard, attempt, message))
        except BaseException as error:
            # Anything else is an infrastructure failure of this attempt.
            results.put(("infra", slot, shard, attempt,
                         f"{type(error).__name__}: {error}"))


# --------------------------------------------------------------------------- #
# supervisor side
# --------------------------------------------------------------------------- #


@dataclasses.dataclass
class _WorkerHandle:
    slot: int
    process: object
    tasks: object
    results: object
    shard: Optional[int] = None
    attempt: int = 0
    dispatched_at: float = 0.0


def _spawn_worker(context, slot, payload, values_buffer, responses_buffer,
                  weights_buffer, heartbeats) -> _WorkerHandle:
    tasks = context.Queue()
    results = context.Queue()
    process = context.Process(
        target=_worker_main,
        args=(slot, payload, tasks, results, values_buffer,
              responses_buffer, weights_buffer, heartbeats),
        daemon=True, name=f"repro-ensemble-worker-{slot}")
    # A fresh worker must not be declared hung before its first beat: the
    # silence check never fires on an infinite stamp, and the worker's first
    # beat overwrites it (set before the start, so it cannot overwrite the
    # beat).  The shard deadline still bounds a worker that never starts.
    heartbeats[slot] = math.inf
    process.start()
    return _WorkerHandle(slot=slot, process=process, tasks=tasks,
                         results=results)


def _stop_worker(handle) -> None:
    if handle.process.is_alive():
        handle.process.kill()
    handle.process.join(timeout=5.0)
    # Never let a dead worker's queues block interpreter shutdown.
    for channel in (handle.tasks, handle.results):
        try:
            channel.cancel_join_thread()
            channel.close()
        except Exception:
            pass


def _shutdown(handles) -> None:
    for handle in handles:
        try:
            handle.tasks.put_nowait(None)
        except Exception:
            pass
    deadline = time.monotonic() + 2.0
    for handle in handles:
        handle.process.join(timeout=max(0.0, deadline - time.monotonic()))
    for handle in handles:
        _stop_worker(handle)


def run_shards(circuit, output, frequencies, space, values, plan, *,
               method="auto", on_failure="quarantine",
               workers=None, on_shard_complete=None, fold=None,
               threads=1) -> ShardRun:
    """Execute a fixed shard plan and fold each shard in plan order.

    The one plan executor under :func:`parallel_ensemble_sweep` and
    :func:`~repro.montecarlo.checkpoint.checkpointed_ensemble_sweep`.
    ``workers=1`` runs the plan in-process (no subprocesses, no fault
    injection), each shard on ``threads`` solver threads (``None``: the
    engine default) — the bit-parity reference for every multi-worker run;
    more workers run it in supervised worker processes of one thread each.
    ``plan`` rows index into ``values``, so a resumed checkpoint can run
    just its remaining tail with global sample indices.

    ``fold`` (the driver's ``engine._EnsembleFold``) absorbs each shard as
    it joins the **contiguous** completed prefix of ``plan``: shards may
    finish out of order, but the fold only ever sees them in plan order.
    Without one, the run stores its responses.  A streaming fold's shards
    fold themselves where they were solved and ship only their
    accumulators, so no O(M×F) buffer exists; the fold's ``weights``
    (global indexing) reach the workers through shared memory.

    ``on_shard_complete()`` fires in the calling process after each shard
    is absorbed, when the fold holds exactly the contiguous prefix — which
    is what lets the checkpoint layer save deterministically mid-run.
    """
    values = np.ascontiguousarray(np.asarray(values, dtype=float))
    frequencies = np.asarray(frequencies, dtype=float)
    num_samples, num_axes = values.shape
    num_points = len(frequencies)
    if workers is None:
        workers = _default_workers()
    workers = max(1, min(int(workers), max(1, len(plan))))
    if fold is None:
        fold = _EnsembleFold(frequencies, num_samples)
    payload = {
        "circuit": circuit, "output": output, "frequencies": frequencies,
        "space": space, "method": method, "on_failure": on_failure,
        "streaming": fold.streaming_options(),
        "num_samples": num_samples, "num_axes": num_axes,
        "num_points": num_points,
        "heartbeat_interval": HEARTBEAT_INTERVAL,
        "fault_plan": _FAULT_PLAN,
    }

    attempts: Dict[int, List[str]] = collections.defaultdict(list)
    parked: Dict[int, EnsembleResult] = {}    # solved, awaiting the prefix
    prefix = 0

    def advance_prefix():
        nonlocal prefix
        while prefix < len(plan) and plan[prefix][0] in parked:
            shard, start, stop = plan[prefix]
            fold.absorb(parked.pop(shard), start, stop)
            prefix += 1
            if on_shard_complete is not None:
                on_shard_complete()

    if workers == 1:
        for shard, start, stop in plan:
            parked[shard] = _solve_shard(payload, values, fold.weights,
                                         start, stop, threads)
            attempts[shard].append("attempt 1 in-process: completed")
            advance_prefix()
        return ShardRun(attempts=dict(attempts), redispatches=0, workers=1)

    context = multiprocessing.get_context(_start_method())
    values_buffer = RawArray("d", max(1, num_samples * num_axes))
    np.frombuffer(values_buffer, dtype=float)[:values.size] = values.ravel()
    responses_buffer = responses = None
    if fold.responses is not None:
        # Streaming runs never allocate this O(M×F) buffer: accumulators
        # ride the result queue instead.
        responses_buffer = RawArray("d", max(1, 2 * num_samples * num_points))
        responses = np.frombuffer(
            responses_buffer, dtype=np.complex128,
            count=num_samples * num_points).reshape(num_samples, num_points)
    weights_buffer = None
    if fold.weights is not None:
        weights_buffer = RawArray("d", max(1, num_samples))
        np.frombuffer(weights_buffer,
                      dtype=float)[:num_samples] = fold.weights
    heartbeats = RawArray("d", workers)

    pending = collections.deque(shard for shard, _, __ in plan)
    ready_at: Dict[int, float] = {}
    attempt_counts: Dict[int, int] = collections.defaultdict(int)
    completed = set()
    redispatches = 0
    bounds = {shard: (start, stop) for shard, start, stop in plan}
    handles = [_spawn_worker(context, slot, payload, values_buffer,
                             responses_buffer, weights_buffer, heartbeats)
               for slot in range(workers)]
    failure: List[BaseException] = []

    def requeue(handle, reason):
        nonlocal redispatches
        shard = handle.shard
        handle.shard = None
        attempts[shard].append(reason)
        if attempt_counts[shard] >= MAX_ATTEMPTS:
            start, stop = bounds[shard]
            failure.append(ShardFailureError(
                f"shard {shard} (samples {start}:{stop}) failed "
                f"{attempt_counts[shard]} attempts: "
                f"{'; '.join(attempts[shard])}",
                shard=shard, start=start, stop=stop,
                attempts=attempts[shard]))
            return
        redispatches += 1
        ready_at[shard] = time.monotonic() + BACKOFF * attempt_counts[shard]
        pending.appendleft(shard)

    def replace(index, reason=None):
        handle = handles[index]
        if handle.shard is not None:
            requeue(handle, reason)
        _stop_worker(handle)
        handles[index] = _spawn_worker(context, handle.slot, payload,
                                       values_buffer, responses_buffer,
                                       weights_buffer, heartbeats)

    def dispatch():
        now = time.monotonic()
        for handle in handles:
            if handle.shard is not None or not pending:
                continue
            for candidate in list(pending):
                if ready_at.get(candidate, 0.0) > now:
                    continue
                pending.remove(candidate)
                attempt_counts[candidate] += 1
                start, stop = bounds[candidate]
                handle.shard = candidate
                handle.attempt = attempt_counts[candidate]
                handle.dispatched_at = now
                handle.tasks.put((candidate, start, stop, handle.attempt))
                break

    def handle_message(handle, message):
        kind, slot, shard, attempt, *rest = message
        if kind == "done":
            shard_report, shard_solver, shard_stats, shard_yield = rest
            if handle.shard == shard:
                handle.shard = None
            if shard not in completed:
                completed.add(shard)
                if shard in pending:      # late result beat a re-dispatch
                    pending.remove(shard)
                attempts[shard].append(
                    f"attempt {attempt} on worker {slot}: completed")
                start, stop = bounds[shard]
                parked[shard] = EnsembleResult(
                    frequencies=frequencies, values=values[start:stop],
                    responses=(None if responses is None
                               else responses[start:stop]),
                    space=space, output=output, solver=shard_solver,
                    report=shard_report, statistics=shard_stats,
                    yields=shard_yield)
                advance_prefix()
        elif kind == "numerical":
            error = rest[0]
            if not isinstance(error, BaseException):
                error = SingularMatrixError(str(error))
            failure.append(error)
        else:  # "infra": the worker survived but the attempt did not
            requeue(handle, f"attempt {attempt} on worker {slot}: "
                            f"uncaught worker exception ({rest[0]})")

    try:
        while len(completed) < len(plan) and not failure:
            dispatch()
            progressed = False
            for handle in handles:
                try:
                    message = handle.results.get_nowait()
                except queue_module.Empty:
                    continue
                except (EOFError, OSError):
                    continue
                progressed = True
                handle_message(handle, message)
                if failure:
                    break
            if failure:
                break
            now = time.monotonic()
            for index, handle in enumerate(handles):
                if handle.shard is not None:
                    if not handle.process.is_alive():
                        replace(index,
                                f"attempt {handle.attempt} on worker "
                                f"{handle.slot}: worker died (exit code "
                                f"{handle.process.exitcode})")
                    elif now - heartbeats[handle.slot] > HEARTBEAT_TIMEOUT:
                        replace(index,
                                f"attempt {handle.attempt} on worker "
                                f"{handle.slot}: heartbeat lost (worker "
                                "hung)")
                    elif now - handle.dispatched_at > SHARD_DEADLINE:
                        replace(index,
                                f"attempt {handle.attempt} on worker "
                                f"{handle.slot}: shard deadline exceeded")
                elif not handle.process.is_alive():
                    replace(index)
                if failure:
                    break
            if not progressed and not failure:
                time.sleep(POLL_INTERVAL)
    finally:
        _shutdown(handles)

    if failure:
        raise failure[0]
    return ShardRun(attempts=dict(attempts), redispatches=redispatches,
                    workers=workers)


# --------------------------------------------------------------------------- #
# the public driver
# --------------------------------------------------------------------------- #


def parallel_ensemble_sweep(circuit, output, frequencies, space=None, *,
                            values=None, samples=128, seed=0,
                            sampler="random", shard_size=32, workers=None,
                            method="auto", on_failure="quarantine",
                            store_responses=True, histogram_bins=None,
                            histogram_range=None, weights=None,
                            yield_specs=None) -> EnsembleResult:
    """Evaluate a tolerance ensemble across supervised worker processes.

    Drop-in alternative to :func:`~repro.montecarlo.engine.ensemble_sweep`
    for production sample counts: the sample axis is cut into fixed shards
    (:func:`shard_plan`) and distributed over ``workers`` processes through
    shared memory, under crash / hang supervision with bounded re-dispatch
    (see the module docstring for the failure taxonomy).

    The result — responses, quarantined indices, merged
    :class:`~repro.engine.resilience.SweepReport`, streaming statistics —
    is **bit-identical for every worker count**, including ``workers=1``
    (which runs in-process and is the reference the fault-injection tests
    compare against).

    Parameters beyond :func:`~repro.montecarlo.engine.ensemble_sweep`:

    sampler:
        Point set for the up-front draw: ``"random"``, ``"sobol"`` or
        ``"lhs"`` (ignored when ``values`` is given).
    shard_size:
        Samples per shard — the unit of distribution, re-dispatch and
        statistics folding.  Match a checkpointed run's ``shard_size`` for
        bit-identical statistics streams.
    workers:
        Worker processes (default: the CPU count).  ``1`` = sequential
        in-process execution.
    on_failure:
        Defaults to ``"quarantine"`` — the whole point of a supervised run
        is that neither a bad sample nor a bad worker kills it.
    store_responses, histogram_bins, histogram_range, weights, yield_specs:
        Streaming estimation controls, exactly as for
        :func:`~repro.montecarlo.engine.ensemble_sweep`: with
        ``store_responses=False`` workers fold their shards into
        accumulators and ship those instead of response rows (no O(M×F)
        shared buffer exists at all), the supervisor merges them **in fixed
        shard order**, and the result carries ``responses=None`` with
        ``statistics`` / ``yields`` populated — bit-identical to the
        sequential streaming run at the same ``shard_size``, for every
        worker count.

    Raises
    ------
    ShardFailureError
        When some shard exhausts its infrastructure retry budget.
    """
    if on_failure not in ("raise", "quarantine"):
        raise FormulationError(f"unknown failure mode {on_failure!r}")
    if space is None:
        space = ParameterSpace(circuit)
    frequencies = np.asarray(frequencies, dtype=float)
    values = _ensemble_values(space, values, samples, seed, sampler)
    if store_responses:
        _reject_streaming_options(histogram_bins, histogram_range, weights,
                                  yield_specs)
    plan = shard_plan(values.shape[0], shard_size)
    fold = _EnsembleFold(
        frequencies, values.shape[0], store_responses=store_responses,
        resilient=on_failure == "quarantine",
        histogram_bins=histogram_bins, histogram_range=histogram_range,
        weights=weights, yield_specs=yield_specs)
    run = run_shards(circuit, output, frequencies, space, values, plan,
                     method=method, on_failure=on_failure,
                     workers=workers, fold=fold)
    info = ParallelRunInfo(workers=run.workers, shard_size=int(shard_size),
                           shards=len(plan), redispatches=run.redispatches,
                           attempts=run.attempts, statistics=fold.statistics)
    return fold.result(values, space, output, parallel=info)
