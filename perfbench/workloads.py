"""The benchmark's four workloads: inputs from a seed, one operation, checks.

Every workload is a closed loop with one caller: operation ``i + 1`` starts
only when operation ``i`` has returned.  Inputs are generated here from the
workload seed; the library only ever sees the circuits and value draws.

* ``ref_ua741`` — :func:`repro.generate_reference` on the transistor-level
  µA741 (the paper's Tables 2–3 and Fig. 2), each operation on a fresh ±5 %
  draw of its twelve passives.  Nodal n≈40 is below the dense cutoff, so this
  is where the interpolation loop and the dense member path show.
* ``ref_postlayout`` — :func:`repro.generate_reference` on seeded
  ``build_generator`` tree, bus and mesh circuits at nodal n≈200, above the
  dense cutoff: every point is a sparse refactorization.  One round is one
  circuit of each family, mixing fill (none, banded, heavy).
* ``ensemble_inline`` — streaming :func:`repro.ensemble_sweep` of the µA741
  tolerance ensemble; the time goes to stack assembly, batched zgesv and the
  statistics fold.
* ``ensemble_supervised`` — the same draws through
  :func:`repro.montecarlo.checkpointed_ensemble_sweep` with worker
  processes and a checkpoint: the supervisor and checkpoint layers.
"""

from __future__ import annotations

import os
import shutil
import tempfile

import numpy as np

import repro
import repro.engine.resilience
import repro.engine.sweep
import repro.interpolation.adaptive
import repro.montecarlo.checkpoint
import repro.montecarlo.engine
import repro.montecarlo.parallel
import repro.nodal.sampler
from repro.circuits.generators import build_generator
from repro.interpolation.adaptive import AdaptiveScalingInterpolator
from repro.linalg.dense import DenseLU
from repro.linalg.lu import LUFactorization
from repro.montecarlo import ParameterSpace, ValueProgram
from repro.montecarlo.statistics import EnsembleStatistics
from repro.engine.sweep import SweepEngine
from repro.nodal.sampler import NetworkFunctionSampler

from oracle import (MAGNITUDE_FLOOR, coverage, ensemble_magnitudes_db,
                    mna_response, reference_error)
from spans import Patch

#: The µA741's discrete passives, the twelve tolerance axes (±5 %).
UA741_PASSIVES = ("R1", "R2", "R3", "R4", "R5", "R6", "R7", "R8", "R9",
                  "RL", "Cc", "CL")
TOLERANCE = 0.05
#: Fig. 2's grid: 1 Hz to 100 MHz, 8 points per decade.
REFERENCE_GRID = np.logspace(0.0, 8.0, 65)
#: Reference accuracy gate against the oracle.  The seed code reaches
#: ~0.18 dB / ~1.1 degrees on some n≈200 bus circuits (a 1-2 % passband
#: gain offset), so the gate sits well above that and far below the tens of
#: dB a broken kernel produces.
MAX_ERROR_DB = 0.5
MAX_ERROR_DEG = 3.0
POSTLAYOUT_FAMILIES = ("tree", "bus", "mesh")
POSTLAYOUT_DIMENSION = 200
#: One ensemble operation: samples x 8 log-spaced points, 1 Hz to 100 MHz.
ENSEMBLE_FREQUENCIES = np.logspace(0.0, 8.0, 8)
#: The library's default shard, which the 10^6-sample streaming run also
#: uses (it bounds the O(chunk * n^2) solver scratch).  Per-shard costs —
#: program rebuild, fold, merge, checkpoint save — thus weigh here as they
#: do in production.  Two shards per operation give both supervised
#: workers a shard.
SHARD_SIZE = 1024
ENSEMBLE_SAMPLES = 2 * SHARD_SIZE
#: Workers of both ensemble entry points, whatever the host's CPU count:
#: the load stays the same on every host, and ``checkpointed_ensemble_sweep``
#: reaches the supervisor only with more than one worker.
ENSEMBLE_WORKERS = 2
#: Samples checked one by one against the oracle after a run.
ORACLE_PREFIX = 4
#: Largest |dB| gap allowed between the streamed statistics and the oracle.
ENSEMBLE_TOLERANCE_DB = 1e-6
#: Every n-th reference of ``ref_ua741`` is checked against the oracle.
UA741_CHECK_EVERY = 8


#: Operation index whose draw is used for warm-up only.
WARM_UP = 2**31


def _operation_seed(seed, index):
    """Seed of operation ``index``'s inputs: a pure function of both."""
    return int(np.random.SeedSequence([int(seed) % 2**32, int(index)])
               .generate_state(1)[0])


def _count_adaptive(recorder, result, args, kwargs):
    recorder.count("interpolation.iterations", len(result.iterations))
    recorder.count("interpolation.points", result.total_samples)


def _count_dense_chunk(recorder, item, args, kwargs):
    recorder.count("engine.factorizations", item[1].batch)


def _count_sparse_lu(recorder, result, args, kwargs):
    factorization, __, refactored = result
    recorder.count("linalg.sparse_lu_calls")
    if refactored:
        recorder.count("engine.refactorizations")
    else:
        recorder.count("engine.factorizations")
        recorder.count("linalg.fresh_factorizations")
        recorder.count("linalg.fill_in_entries", factorization.fill_in)


def _count_program(recorder, result, args, kwargs):
    recorder.count("montecarlo.program_builds")


def _count_shards(recorder, result, args, kwargs):
    plan = args[5] if len(args) > 5 else kwargs["plan"]
    recorder.count("parallel.shards", len(plan))
    recorder.count("parallel.redispatches", result.redispatches)


def _count_checkpoint(recorder, result, args, kwargs):
    path = args[0] if args else kwargs["path"]
    recorder.count("checkpoint.bytes", os.path.getsize(path))


def reference_patches():
    """Wrappers for the layers a reference generation crosses."""
    adaptive = repro.interpolation.adaptive
    return [
        Patch(AdaptiveScalingInterpolator, "run", "interpolation.adaptive",
              _count_adaptive),
        Patch(adaptive, "inverse_dft_scaled", "interpolation.dft"),
        Patch(adaptive, "find_valid_region", "interpolation.region"),
        Patch(adaptive, "deflate_samples", "interpolation.deflate"),
        Patch(repro.nodal.sampler, "build_nodal_formulation",
              "nodal.formulation"),
        Patch(NetworkFunctionSampler, "sample_many", "nodal.sample"),
    ]


def dense_reference_patches():
    sweep = repro.engine.sweep
    return reference_patches() + [
        Patch(SweepEngine, "dense_chunks", "engine.sweep",
              _count_dense_chunk),
        Patch(sweep, "batched_dense_lu", "linalg.dense_lu"),
        Patch(DenseLU, "solve", "linalg.member_solve"),
        Patch(DenseLU, "determinant_mantissa_exponent", "linalg.member_solve"),
    ]


def sparse_reference_patches():
    sweep = repro.engine.sweep
    return reference_patches() + [
        Patch(SweepEngine, "sparse_factors", "engine.sweep"),
        Patch(sweep, "sparse_lu_reusing", "linalg.sparse_lu",
              _count_sparse_lu),
        Patch(sweep, "fill_reducing_order", "linalg.ordering"),
        Patch(LUFactorization, "solve", "linalg.member_solve"),
        Patch(LUFactorization, "determinant_mantissa_exponent",
              "linalg.member_solve"),
    ]


def ensemble_patches():
    """Wrappers for the layers a streaming ensemble crosses in-process."""
    engine = repro.montecarlo.engine
    return [
        Patch(engine, "ensemble_sweep", "montecarlo.ensemble"),
        Patch(ValueProgram, "from_circuit", "montecarlo.program",
              _count_program),
        Patch(engine, "build_mna_system", "mna.build"),
        Patch(engine, "_dense_ensemble", "montecarlo.stack"),
        Patch(EnsembleStatistics, "update", "montecarlo.fold"),
    ]


# --------------------------------------------------------------------------- #
# reference generation
# --------------------------------------------------------------------------- #


class ReferenceWorkload:
    """Shared loop body of the two reference workloads."""

    unit = "reference"
    ops_per_round = 1
    #: Rounds per throughput block (about a second of work).
    block_rounds = 16

    def __init__(self, seed):
        self.seed = int(seed)
        self.errors_db = []
        self.errors_deg = []
        self.coverages = []
        self.compared_points = 0

    def run(self, item):
        circuit, spec, __ = item
        return repro.generate_reference(circuit, spec)

    def units(self, item):
        """Units of work one operation attempts."""
        return 1

    def quarantined(self, result):
        return 0

    def outcome(self, item, result):
        """``(units done, units failed)``: an unconverged reference failed."""
        if result.converged:
            return 1, 0
        return 0, 1

    def check(self, item, result):
        """Oracle error and coverage of one reference (outside the timing)."""
        circuit, spec, checked = item
        self.coverages.append(coverage(result))
        if not checked:
            return
        exact = mna_response(circuit, spec, REFERENCE_GRID)
        error_db, error_deg, points = reference_error(result, exact,
                                                      REFERENCE_GRID)
        self.errors_db.append(error_db)
        self.errors_deg.append(error_deg)
        self.compared_points += points

    def verdict(self):
        """Correctness record of everything checked so far."""
        max_db = max(self.errors_db) if self.errors_db else float("nan")
        max_deg = max(self.errors_deg) if self.errors_deg else float("nan")
        cover = min(self.coverages) if self.coverages else float("nan")
        ok = (bool(self.errors_db) and max_db <= MAX_ERROR_DB
              and max_deg <= MAX_ERROR_DEG and cover == 1.0)
        return ok, {"max_error_db": max_db, "max_error_deg": max_deg,
                    "coverage": cover,
                    "references_checked": len(self.errors_db),
                    "points_compared": self.compared_points,
                    "magnitude_floor": MAGNITUDE_FLOOR,
                    "tolerance_db": MAX_ERROR_DB,
                    "tolerance_deg": MAX_ERROR_DEG}

    def close(self):
        pass


class RefUa741(ReferenceWorkload):
    name = "ref_ua741"

    def setup(self):
        self.circuit, self.spec = repro.build_ua741()
        self.space = ParameterSpace(
            self.circuit, {name: TOLERANCE for name in UA741_PASSIVES})
        repro.generate_reference(self.circuit, self.spec)

    def make_input(self, index):
        values = self.space.sample_values(
            1, seed=_operation_seed(self.seed, index))[0]
        return (self.space.apply(values), self.spec,
                index % UA741_CHECK_EVERY == 0)

    def patches(self):
        return dense_reference_patches()


class RefPostlayout(ReferenceWorkload):
    name = "ref_postlayout"
    ops_per_round = len(POSTLAYOUT_FAMILIES)
    block_rounds = 1

    def setup(self):
        # Warm the sparse path on a small circuit; the measured ones are
        # built per operation.
        circuit, spec = build_generator(
            "mesh", 30, seed=_operation_seed(self.seed, WARM_UP))
        repro.generate_reference(circuit, spec, method="sparse")

    def make_input(self, index):
        family = POSTLAYOUT_FAMILIES[index % len(POSTLAYOUT_FAMILIES)]
        circuit, spec = build_generator(
            family, POSTLAYOUT_DIMENSION,
            seed=_operation_seed(self.seed, index))
        return circuit, spec, True

    def patches(self):
        return sparse_reference_patches()


# --------------------------------------------------------------------------- #
# tolerance ensembles
# --------------------------------------------------------------------------- #


class EnsembleWorkload:
    """Shared parts of the two streaming µA741 ensemble workloads."""

    unit = "sample point"
    ops_per_round = 1
    block_rounds = 4

    def __init__(self, seed):
        self.seed = int(seed)
        self.first = None
        self.problems = []

    def _build(self):
        self.circuit, self.spec = repro.build_ua741()
        self.space = ParameterSpace(
            self.circuit, {name: TOLERANCE for name in UA741_PASSIVES})

    def inline(self, values):
        """The streaming in-process ensemble of ``values``."""
        return repro.montecarlo.engine.ensemble_sweep(
            self.circuit, self.spec, ENSEMBLE_FREQUENCIES, self.space,
            values=values, store_responses=False, shard_size=SHARD_SIZE,
            workers=ENSEMBLE_WORKERS)

    def points(self, samples):
        return samples * len(ENSEMBLE_FREQUENCIES)

    def units(self, item):
        """Units of work one operation attempts (sample points)."""
        return self.points(ENSEMBLE_SAMPLES)

    def quarantined(self, result):
        report = result.report
        return len(report.quarantined) if report is not None else 0

    def _check_statistics(self, statistics, expected):
        if statistics.count != expected or not np.all(
                np.isfinite(statistics.sum_db)):
            self.problems.append(
                f"accumulator holds {statistics.count} samples, expected "
                f"{expected}")

    def _oracle_check(self, values):
        """A prefix of the draw against per-sample ``np.linalg.solve``."""
        prefix = values[:ORACLE_PREFIX]
        streamed = self.inline(prefix).statistics
        exact = ensemble_magnitudes_db(self.space, prefix, self.spec,
                                       ENSEMBLE_FREQUENCIES)
        gap = max(
            float(np.max(np.abs(streamed.min_db - exact.min(axis=0)))),
            float(np.max(np.abs(streamed.max_db - exact.max(axis=0)))),
            float(np.max(np.abs(streamed.mean_db() - exact.mean(axis=0)))))
        if not gap <= ENSEMBLE_TOLERANCE_DB:
            self.problems.append(
                f"streamed statistics differ from the oracle by {gap} dB")
        return gap

    def close(self):
        pass


class EnsembleInline(EnsembleWorkload):
    name = "ensemble_inline"

    def setup(self):
        self._build()
        self.inline(self.make_input(WARM_UP))

    def make_input(self, index):
        return self.space.sample_values(
            ENSEMBLE_SAMPLES, seed=_operation_seed(self.seed, index))

    def run(self, values):
        return self.inline(values)

    def outcome(self, values, result):
        return self.points(values.shape[0]), 0

    def check(self, values, result):
        self._check_statistics(result.statistics, values.shape[0])
        if self.first is None:
            self.first = values

    def verdict(self):
        if self.first is None:
            return False, {"problems": ["no operation completed"]}
        gap = self._oracle_check(self.first)
        return not self.problems, {"oracle_gap_db": gap,
                                   "oracle_samples": ORACLE_PREFIX,
                                   "problems": self.problems}

    def patches(self):
        return ensemble_patches() + [
            Patch(repro.montecarlo.engine, "batched_solve",
                  "linalg.batched_solve"),
        ]


class EnsembleSupervised(EnsembleWorkload):
    name = "ensemble_supervised"

    def setup(self):
        self._build()
        root = os.path.join(os.getcwd(), ".perfbench_tmp")
        os.makedirs(root, exist_ok=True)
        self.directory = tempfile.mkdtemp(prefix="checkpoints-", dir=root)
        self.run(self.make_input(WARM_UP))

    def _path(self):
        return os.path.join(self.directory, "ensemble.npz")

    def make_input(self, index):
        # checkpointed_ensemble_sweep draws the values from this seed, the
        # same draw ``make_input`` of ``ensemble_inline`` makes.
        return _operation_seed(self.seed, index)

    def run(self, draw_seed):
        try:
            return repro.montecarlo.checkpoint.checkpointed_ensemble_sweep(
                self.circuit, self.spec, ENSEMBLE_FREQUENCIES, self.space,
                path=self._path(), samples=ENSEMBLE_SAMPLES, seed=draw_seed,
                shard_size=SHARD_SIZE, workers=ENSEMBLE_WORKERS,
                store_responses=False)
        finally:
            if os.path.exists(self._path()):
                os.remove(self._path())

    def outcome(self, draw_seed, result):
        quarantined = self.quarantined(result)
        if not result.finished:
            return 0, self.points(result.total)
        return (self.points(result.total - quarantined),
                self.points(quarantined))

    def check(self, draw_seed, result):
        quarantined = self.quarantined(result)
        self._check_statistics(result.statistics, result.total - quarantined)
        if self.first is None:
            self.first = (draw_seed, result.statistics)

    def verdict(self):
        if self.first is None:
            return False, {"problems": ["no operation completed"]}
        draw_seed, supervised = self.first
        values = self.space.sample_values(ENSEMBLE_SAMPLES, seed=draw_seed)
        inline = self.inline(values).statistics
        identical = all(
            np.array_equal(getattr(inline, field), getattr(supervised, field))
            for field in ("sum_db", "sumsq_db", "min_db", "max_db",
                          "histogram"))
        identical = identical and inline.count == supervised.count and (
            inline.weight_sum == supervised.weight_sum)
        if not identical:
            self.problems.append(
                "supervised accumulators differ from the inline run")
        gap = self._oracle_check(values)
        return not self.problems, {"bit_identical_to_inline": identical,
                                   "oracle_gap_db": gap,
                                   "oracle_samples": ORACLE_PREFIX,
                                   "problems": self.problems}

    def patches(self):
        parallel = repro.montecarlo.parallel
        return ensemble_patches() + [
            Patch(parallel, "ensemble_sweep", "montecarlo.ensemble"),
            Patch(repro.engine.resilience, "batched_solve",
                  "linalg.batched_solve"),
            Patch(EnsembleStatistics, "merge", "montecarlo.merge"),
            Patch(parallel, "run_shards", "parallel.supervise",
                  _count_shards),
            Patch(repro.montecarlo.checkpoint, "_save_checkpoint",
                  "checkpoint.save", _count_checkpoint),
        ]

    def close(self):
        shutil.rmtree(self.directory, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(self.directory))
        except OSError:
            pass


WORKLOADS = {workload.name: workload
             for workload in (RefUa741, RefPostlayout, EnsembleInline,
                              EnsembleSupervised)}
