"""Deterministic checkpoint / resume for long-running tolerance ensembles.

A 10⁵-sample Monte Carlo run is hours of solves; a crash at sample 99 000
should not restart at sample 0.  :func:`checkpointed_ensemble_sweep` cuts the
ensemble into fixed-size **shards** and serializes the run state after every
shard — atomically, via a temporary file and :func:`os.replace`, so a kill at
any instant leaves either the previous checkpoint or the new one, never a
torn file.

Determinism is the design constraint, not an afterthought:

* every sample's element values are drawn **up front** from the seeded
  generator (:meth:`~repro.montecarlo.space.ParameterSpace.sample_values`),
  so shard ``k`` sees exactly the values it would have seen in an
  uninterrupted run;
* the batched dense solver is batch-size invariant and the sparse path
  solves sample-by-sample, so a shard's response rows are bit-for-bit the
  rows of the full run;
* the streaming :class:`EnsembleStatistics` accumulators are updated once
  per shard in fixed shard order, so a resumed run replays the identical
  sequence of floating-point additions.

Together: **kill + resume is bit-identical** to never having been killed —
same responses, same statistics, same quarantine report.

Checkpoints carry the circuit fingerprint, the parameter-space key, the
sampler seed and the solve configuration; resuming against a mismatched
setup raises :class:`~repro.errors.CheckpointError` instead of silently
mixing two different runs.  The ``solver`` field is always ``"lapack"``: a
checkpoint an earlier release wrote with ``solver="lu"`` holds other bits
and is refused rather than resumed.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import zipfile
import zlib
from typing import Optional

import numpy as np

from ..engine.resilience import (SweepReport, report_from_json,
                                 report_to_json)
from ..errors import CheckpointError
from .engine import EnsembleResult, _EnsembleFold
from .space import ParameterSpace
# EnsembleStatistics grew histogram / weight extensions and moved to
# repro.montecarlo.statistics with the other streaming estimators; this
# re-export keeps every historical import path working.
from .statistics import EnsembleStatistics

__all__ = ["EnsembleStatistics", "CheckpointedRun",
           "checkpointed_ensemble_sweep", "checkpoint_info"]

#: On-disk format version; bumped on any incompatible layout change.
#: Streaming runs (``store_responses=False``) add *optional* fields —
#: weight totals, histogram counts — which absent readers simply ignore,
#: so the version stays 1.
_FORMAT_VERSION = 1

#: The dense solver every checkpoint records in its ``solver`` field.
_SOLVER = "lapack"


@dataclasses.dataclass
class CheckpointedRun:
    """Outcome of one :func:`checkpointed_ensemble_sweep` call.

    ``finished`` is False when ``max_shards`` stopped the run early (the
    checkpoint then holds everything needed to resume); ``ensemble`` is the
    full :class:`~repro.montecarlo.engine.EnsembleResult` once finished and
    ``None`` before.  ``resumed_from`` counts the samples that were already
    in the checkpoint when this call started.
    """

    finished: bool
    completed: int
    total: int
    resumed_from: int
    statistics: EnsembleStatistics
    report: Optional[SweepReport]
    path: str
    ensemble: Optional[EnsembleResult] = None


def _space_key_digest(space) -> str:
    """Content hash of the parameter space (names, nominals, tolerances)."""
    digest = hashlib.sha256()
    digest.update(repr(space.key()).encode("utf-8"))
    return digest.hexdigest()


def _save_checkpoint(path, *, fingerprint, space_digest, seed, samples,
                     shard_size, solver_used, method, on_failure,
                     frequencies, completed, responses, statistics, report,
                     store_responses=True):
    """Atomically write the run state: tmp file + :func:`os.replace`.

    Streaming runs persist accumulators only: ``responses`` is a zero-row
    array and the extra weight / histogram fields of the extended
    :class:`~repro.montecarlo.statistics.EnsembleStatistics` ride along so
    a resumed run restores the identical accumulator state.
    """
    temporary = os.fspath(path) + ".tmp"
    histogram = (statistics.histogram if statistics.histogram is not None
                 else np.zeros((0, 0)))
    with open(temporary, "wb") as handle:
        np.savez(
            handle,
            version=np.array(_FORMAT_VERSION),
            fingerprint=np.array(fingerprint),
            space_digest=np.array(space_digest),
            seed=np.array(int(seed)),
            samples=np.array(int(samples)),
            shard_size=np.array(int(shard_size)),
            solver=np.array(_SOLVER),
            solver_used=np.array(solver_used),
            method=np.array(method),
            on_failure=np.array(on_failure),
            store_responses=np.array(bool(store_responses)),
            frequencies=np.asarray(frequencies, dtype=float),
            completed=np.array(int(completed)),
            responses=(responses[:completed] if store_responses
                       else np.zeros((0, len(frequencies)), dtype=complex)),
            stats_count=np.array(int(statistics.count)),
            stats_sum_db=statistics.sum_db,
            stats_sumsq_db=statistics.sumsq_db,
            stats_min_db=statistics.min_db,
            stats_max_db=statistics.max_db,
            stats_weight_sum=np.array(float(statistics.weight_sum)),
            stats_weight_sumsq=np.array(float(statistics.weight_sumsq)),
            stats_max_weight=np.array(float(statistics.max_weight)),
            stats_histogram_bins=np.array(int(statistics.histogram_bins)),
            stats_histogram_low_db=np.array(
                float(statistics.histogram_low_db)),
            stats_histogram_high_db=np.array(
                float(statistics.histogram_high_db)),
            stats_histogram=histogram,
            report_json=np.array(report_to_json(report)),
        )
    os.replace(temporary, path)


def _load_checkpoint(path):
    """Read a checkpoint file into a plain dict (strings unwrapped).

    Any way the bytes on disk can be wrong — not a zip at all (wrong magic),
    truncated mid-write (a torn copy from a foreign machine; ``os.replace``
    only protects writes on the *same* filesystem), a member that fails CRC
    or decompression — must surface as :class:`CheckpointError`, never as a
    silent restart-from-zero or a raw ``zipfile``/``zlib`` traceback.
    """
    try:
        with np.load(path, allow_pickle=False) as archive:
            state = {key: archive[key] for key in archive.files}
    except (OSError, ValueError, KeyError, EOFError,
            zipfile.BadZipFile, zlib.error) as error:
        raise CheckpointError(
            f"cannot read ensemble checkpoint {path!r}: {error}") from error
    try:
        unpacked = {
            "version": int(state["version"]),
            "fingerprint": str(state["fingerprint"]),
            "space_digest": str(state["space_digest"]),
            "seed": int(state["seed"]),
            "samples": int(state["samples"]),
            "shard_size": int(state["shard_size"]),
            "solver": str(state["solver"]),
            "solver_used": str(state["solver_used"]),
            "method": str(state["method"]),
            "on_failure": str(state["on_failure"]),
            "frequencies": np.asarray(state["frequencies"], dtype=float),
            "completed": int(state["completed"]),
            "responses": np.asarray(state["responses"], dtype=complex),
            "stats_count": int(state["stats_count"]),
            "stats_sum_db": np.asarray(state["stats_sum_db"], dtype=float),
            "stats_sumsq_db": np.asarray(state["stats_sumsq_db"],
                                         dtype=float),
            "stats_min_db": np.asarray(state["stats_min_db"], dtype=float),
            "stats_max_db": np.asarray(state["stats_max_db"], dtype=float),
            "report_json": str(state["report_json"]),
        }
        # Streaming-era fields are optional: a PR 7/9 checkpoint predating
        # them loads as a stored-responses run with no histogram and the
        # count-derived weight totals.
        unpacked["store_responses"] = bool(
            state["store_responses"]) if "store_responses" in state else True
        unpacked["stats_weight_sum"] = (
            float(state["stats_weight_sum"]) if "stats_weight_sum" in state
            else float(unpacked["stats_count"]))
        unpacked["stats_weight_sumsq"] = (
            float(state["stats_weight_sumsq"])
            if "stats_weight_sumsq" in state
            else float(unpacked["stats_count"]))
        unpacked["stats_max_weight"] = (
            float(state["stats_max_weight"]) if "stats_max_weight" in state
            else (1.0 if unpacked["stats_count"] else 0.0))
        unpacked["stats_histogram_bins"] = (
            int(state["stats_histogram_bins"])
            if "stats_histogram_bins" in state else 0)
        unpacked["stats_histogram_low_db"] = (
            float(state["stats_histogram_low_db"])
            if "stats_histogram_low_db" in state else 0.0)
        unpacked["stats_histogram_high_db"] = (
            float(state["stats_histogram_high_db"])
            if "stats_histogram_high_db" in state else 1.0)
        unpacked["stats_histogram"] = (
            np.asarray(state["stats_histogram"], dtype=float)
            if "stats_histogram" in state else np.zeros((0, 0)))
    except KeyError as error:
        raise CheckpointError(
            f"ensemble checkpoint {path!r} is missing field {error}; "
            "corrupt or from an incompatible version") from error
    points = len(unpacked["frequencies"])
    completed = unpacked["completed"]
    expected_rows = completed if unpacked["store_responses"] else 0
    if unpacked["responses"].shape != (expected_rows, points):
        raise CheckpointError(
            f"ensemble checkpoint {path!r} is internally inconsistent: "
            f"responses shape {unpacked['responses'].shape} does not match "
            f"{expected_rows} stored samples × {points} frequency points")
    bins = unpacked["stats_histogram_bins"]
    if bins and unpacked["stats_histogram"].shape != (points, bins):
        raise CheckpointError(
            f"ensemble checkpoint {path!r} is internally inconsistent: "
            f"histogram shape {unpacked['stats_histogram'].shape} does not "
            f"match {points} frequency points × {bins} bins")
    for field in ("stats_sum_db", "stats_sumsq_db",
                  "stats_min_db", "stats_max_db"):
        if unpacked[field].shape != (points,):
            raise CheckpointError(
                f"ensemble checkpoint {path!r} is internally inconsistent: "
                f"{field} has shape {unpacked[field].shape}, expected "
                f"({points},)")
    return unpacked


def checkpoint_info(path) -> dict:
    """Inspect a checkpoint without resuming it.

    Returns a dict with the run configuration and progress: ``completed`` /
    ``samples``, seed, solver, and the quarantine summary so far.
    """
    state = _load_checkpoint(path)
    report = report_from_json(state["report_json"])
    return {
        "version": state["version"],
        "fingerprint": state["fingerprint"],
        "seed": state["seed"],
        "samples": state["samples"],
        "completed": state["completed"],
        "shard_size": state["shard_size"],
        "solver": state["solver"],
        "method": state["method"],
        "on_failure": state["on_failure"],
        "store_responses": state["store_responses"],
        "quarantined": report.quarantined if report is not None else [],
    }


def checkpointed_ensemble_sweep(circuit, output, frequencies, space=None, *,
                                path, samples=128, seed=0, shard_size=32,
                                max_shards=None, tolerances=None,
                                method="auto", on_failure="quarantine",
                                workers=None, store_responses=True,
                                histogram_bins=None,
                                histogram_range=None) -> CheckpointedRun:
    """Run (or resume) a tolerance ensemble with periodic checkpointing.

    The ensemble is evaluated in shards of ``shard_size`` samples through the
    standard :func:`~repro.montecarlo.engine.ensemble_sweep`; after each
    shard the responses so far, the streaming :class:`EnsembleStatistics`
    and the quarantine report are written atomically to ``path``.  If
    ``path`` already holds a checkpoint of the *same* run (circuit
    fingerprint, parameter-space content, seed, sample count, shard size and
    solve configuration all match) the run resumes after its last completed
    shard; a mismatched checkpoint raises
    :class:`~repro.errors.CheckpointError`.

    A resumed run is **bit-identical** to an uninterrupted one: values are
    drawn up front from the seeded sampler, shard boundaries are fixed, and
    each shard's solves and statistics updates are independent of how many
    processes it took to get there.

    Parameters
    ----------
    path:
        Checkpoint file (``.npz``).  The file is left in place on
        completion — delete it to re-run from scratch.
    shard_size:
        Samples per shard (and per checkpoint write).
    max_shards:
        Stop after this many *new* shards (``finished=False`` in the
        result); ``None`` runs to completion.  This is the hook fault /
        kill tests use to stop a run at a deterministic point.
    on_failure:
        As for :func:`~repro.montecarlo.engine.ensemble_sweep`; checkpointed
        runs default to ``"quarantine"`` so one bad sample cannot waste
        hours of completed work.  With the escalation chain fixed, this and
        ``method`` are the whole solve configuration a resume must match.
    workers:
        The remaining shards run through
        :func:`~repro.montecarlo.parallel.run_shards`: in-process on the
        engine's default thread count for ``None`` / ``1``, in supervised
        worker processes otherwise.  Shards complete out of order, but the
        checkpoint only ever absorbs the contiguous prefix — in fixed shard
        order — so the file on disk is at all times bit-identical to one a
        sequential run would have written, and a killed *supervisor*
        resumes bit-identically with any worker count.
    store_responses, histogram_bins, histogram_range:
        ``store_responses=False`` switches to the streaming estimation
        mode: the checkpoint persists only the
        :class:`~repro.montecarlo.statistics.EnsembleStatistics`
        accumulator (O(F) state, histogram included) instead of the
        ``(M, F)`` responses, the finished result carries
        ``ensemble.responses=None``, and memory stays O(F) regardless of
        ``samples``.  ``histogram_bins`` / ``histogram_range`` configure
        the streaming percentile histogram exactly as for
        :func:`~repro.montecarlo.engine.ensemble_sweep`.  A checkpoint
        written in one mode cannot be resumed in the other.

    Returns
    -------
    CheckpointedRun
    """
    from ..engine.session import AnalysisSession
    from .parallel import run_shards, shard_plan

    if space is None:
        space = ParameterSpace(circuit, tolerances)
    frequencies = np.asarray(frequencies, dtype=float)
    samples = int(samples)
    shard_size = int(shard_size)
    if shard_size <= 0:
        raise CheckpointError(f"shard_size must be positive, got {shard_size}")
    fingerprint = AnalysisSession.fingerprint(circuit)
    space_digest = _space_key_digest(space)
    values = space.sample_values(samples, seed)
    store_responses = bool(store_responses)
    fold = _EnsembleFold(
        frequencies, samples, store_responses=store_responses,
        resilient=on_failure == "quarantine",
        histogram_bins=histogram_bins, histogram_range=histogram_range)
    bins = fold.statistics.histogram_bins
    low = fold.statistics.histogram_low_db
    high = fold.statistics.histogram_high_db

    if os.path.exists(path):
        state = _load_checkpoint(path)
        if state["version"] != _FORMAT_VERSION:
            raise CheckpointError(
                f"checkpoint {path!r} has format version {state['version']}, "
                f"expected {_FORMAT_VERSION}")
        expected = {"fingerprint": fingerprint, "space_digest": space_digest,
                    "seed": int(seed), "samples": samples,
                    "shard_size": shard_size, "solver": _SOLVER,
                    "method": method, "on_failure": on_failure,
                    "store_responses": store_responses,
                    "stats_histogram_bins": bins}
        if bins:
            expected["stats_histogram_low_db"] = low
            expected["stats_histogram_high_db"] = high
        for field, value in expected.items():
            if state[field] != value:
                raise CheckpointError(
                    f"checkpoint {path!r} belongs to a different run: "
                    f"{field} is {state[field]!r}, this run has {value!r}")
        if not np.array_equal(state["frequencies"], frequencies):
            raise CheckpointError(
                f"checkpoint {path!r} belongs to a different run: "
                "frequency grids differ")
        fold.completed = state["completed"]
        if store_responses:
            fold.responses[:fold.completed] = state["responses"]
        fold.statistics = EnsembleStatistics(
            frequencies=frequencies, count=state["stats_count"],
            sum_db=state["stats_sum_db"], sumsq_db=state["stats_sumsq_db"],
            min_db=state["stats_min_db"], max_db=state["stats_max_db"],
            weight_sum=state["stats_weight_sum"],
            weight_sumsq=state["stats_weight_sumsq"],
            max_weight=state["stats_max_weight"],
            histogram_bins=bins, histogram_low_db=low,
            histogram_high_db=high,
            histogram=(state["stats_histogram"] if bins else None))
        fold.report = report_from_json(state["report_json"])
        fold.solver = state["solver_used"]
    resumed_from = fold.completed

    def save():
        """Persist the run state after each shard the fold absorbed."""
        _save_checkpoint(path, fingerprint=fingerprint,
                         space_digest=space_digest, seed=seed,
                         samples=samples, shard_size=shard_size,
                         solver_used=fold.solver, method=method,
                         on_failure=on_failure,
                         frequencies=frequencies, completed=fold.completed,
                         responses=fold.responses,
                         statistics=fold.statistics, report=fold.report,
                         store_responses=store_responses)

    # The plan keeps global sample indices, and the fold only ever absorbs
    # the contiguous completed prefix — so the file on disk is at all times
    # the one an uninterrupted in-process run would have written.
    plan = shard_plan(samples, shard_size, first_sample=fold.completed)
    if max_shards is not None:
        plan = plan[:max(0, int(max_shards))]
    in_process = workers is None or workers == 1
    run_shards(circuit, output, frequencies, space, values, plan,
               method=method, on_failure=on_failure,
               workers=1 if in_process else workers,
               on_shard_complete=save, fold=fold,
               threads=None if in_process else 1)

    finished = fold.completed == samples
    result = CheckpointedRun(finished=finished, completed=fold.completed,
                             total=samples, resumed_from=resumed_from,
                             statistics=fold.statistics, report=fold.report,
                             path=path)
    if finished:
        result.ensemble = fold.result(values, space, output)
    return result
