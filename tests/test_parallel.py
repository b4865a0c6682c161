"""Supervised multiprocess ensemble driver: crash/hang recovery, determinism.

The contract under test (ISSUE 9):

* a clean parallel run is **bit-identical** to the single-process resilient
  run for every worker count — responses, quarantined indices, merged
  :class:`~repro.engine.resilience.SweepReport` counts, streaming
  statistics;
* **infrastructure failure** (SIGKILL mid-shard, a hung worker past its
  heartbeat timeout, an uncaught worker exception) is healed by bounded
  shard re-dispatch and never shows in the output; exhausting the retry
  budget aborts with a typed :class:`~repro.errors.ShardFailureError`
  carrying the shard index and the chronological attempt trail;
* **numerical failure** keeps its in-process semantics across process
  boundaries: quarantine masks the sample in the merged report, raise mode
  propagates the typed error — neither triggers a shard re-run;
* the driver composes with
  :func:`~repro.montecarlo.checkpoint.checkpointed_ensemble_sweep`: a
  killed supervisor resumes with workers and still lands on the
  uninterrupted sequential run's exact bits;
* each worker's shard :class:`~repro.engine.resilience.SweepReport` is
  merged exactly once, so the run's report covers the whole ensemble —
  under the ``spawn`` start method too.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from faults import ensemble_faults, parallel_faults

import repro.montecarlo.parallel as parallel_module
from repro.analysis.montecarlo import monte_carlo_analysis
from repro.circuits.rc_ladder import build_rc_ladder
from repro.engine.resilience import report_to_json
from repro.errors import (FormulationError, ShardFailureError,
                          SingularMatrixError)
from repro.montecarlo import (ParameterSpace, checkpoint_info,
                              checkpointed_ensemble_sweep, ensemble_sweep,
                              parallel_ensemble_sweep)
from repro.montecarlo.engine import _EnsembleFold
from repro.montecarlo.parallel import (_default_workers, _start_method,
                                       run_shards, shard_plan)
from repro.netlist.circuit import Circuit

FREQUENCIES = np.logspace(1, 6, 5)


@pytest.fixture(autouse=True)
def fast_supervision(monkeypatch):
    """Tight supervision timings so fault tests finish in seconds: hang
    detection after 0.8 s of heartbeat silence, near-immediate re-dispatch."""
    for name, value in (("HEARTBEAT_INTERVAL", 0.05),
                        ("HEARTBEAT_TIMEOUT", 0.8), ("SHARD_DEADLINE", 30.0),
                        ("BACKOFF", 0.01), ("POLL_INTERVAL", 0.005)):
        monkeypatch.setattr(parallel_module, name, value)


@pytest.fixture(scope="module")
def ladder():
    circuit, spec = build_rc_ladder(4)
    names = [element.name for element in circuit
             if type(element).__name__ in ("Resistor", "Capacitor")][:5]
    space = ParameterSpace(circuit, {name: 0.1 for name in names})
    return circuit, spec, space


def _statistics_equal(left, right):
    assert left.count == right.count
    np.testing.assert_array_equal(left.sum_db, right.sum_db)
    np.testing.assert_array_equal(left.sumsq_db, right.sumsq_db)
    np.testing.assert_array_equal(left.min_db, right.min_db)
    np.testing.assert_array_equal(left.max_db, right.max_db)


def _reports_equal(left, right):
    assert left.quarantined == right.quarantined
    assert left.total == right.total
    assert len(left.failures) == len(right.failures)
    assert len(left.recoveries) == len(right.recoveries)
    assert left.stage_counts == right.stage_counts
    assert sorted(record.index for record in left.failures) == \
        sorted(record.index for record in right.failures)


class TestShardPlan:
    """Shard boundaries are a pure function of shard_size."""

    def test_boundaries_fixed_by_shard_size(self):
        plan = shard_plan(48, 8)
        assert [shard for shard, _, __ in plan] == list(range(6))
        assert all(stop - start == 8 for _, start, stop in plan)
        assert plan[0][1] == 0 and plan[-1][2] == 48

    def test_ragged_tail_shard(self):
        plan = shard_plan(50, 8)
        assert plan[-1] == (6, 48, 50)

    def test_resume_keeps_global_indices(self):
        tail = shard_plan(48, 8, first_sample=16)
        assert tail[0] == (2, 16, 24)
        assert tail == shard_plan(48, 8)[2:]

    def test_invalid_shard_size(self):
        with pytest.raises(FormulationError, match="shard_size"):
            shard_plan(48, 0)


class TestSupervisorConfig:
    def test_env_knobs(self, monkeypatch):
        assert _default_workers() == max(1, os.cpu_count() or 1)
        monkeypatch.setenv("REPRO_MP_START", "spawn")
        assert _start_method() == "spawn"
        monkeypatch.setenv("REPRO_MP_START", "threads")
        assert _start_method() is None

    def test_unknown_failure_mode(self, ladder):
        circuit, spec, space = ladder
        with pytest.raises(FormulationError, match="failure mode"):
            parallel_ensemble_sweep(circuit, spec, FREQUENCIES, space,
                                    samples=8, on_failure="retry")

    def test_values_shape_validated(self, ladder):
        circuit, spec, space = ladder
        with pytest.raises(FormulationError, match="values must be"):
            parallel_ensemble_sweep(circuit, spec, FREQUENCIES, space,
                                    values=np.ones((4, len(space) + 1)))


class TestCleanParallelRuns:
    """No faults: every worker count lands on the same bits."""

    def test_bit_identical_across_worker_counts(self, ladder):
        circuit, spec, space = ladder
        reference = ensemble_sweep(circuit, spec, FREQUENCIES, space,
                                   samples=48, seed=7,
                                   on_failure="quarantine")
        single = parallel_ensemble_sweep(
            circuit, spec, FREQUENCIES, space, samples=48, seed=7,
            shard_size=8, workers=1)
        multi = parallel_ensemble_sweep(
            circuit, spec, FREQUENCIES, space, samples=48, seed=7,
            shard_size=8, workers=3)
        np.testing.assert_array_equal(single.responses, reference.responses)
        np.testing.assert_array_equal(multi.responses, reference.responses)
        np.testing.assert_array_equal(multi.values, reference.values)
        _reports_equal(multi.report, reference.report)
        _statistics_equal(multi.parallel.statistics,
                          single.parallel.statistics)
        assert multi.parallel.workers == 3
        assert multi.parallel.shards == 6
        assert multi.parallel.shard_size == 8
        assert multi.parallel.redispatches == 0
        assert all("completed" in trail[-1]
                   for trail in multi.parallel.attempts.values())

    def test_sampler_passthrough(self, ladder):
        circuit, spec, space = ladder
        values = space.sample_values(24, seed=3, method="sobol")
        reference = ensemble_sweep(circuit, spec, FREQUENCIES, space,
                                   values=values)
        run = parallel_ensemble_sweep(circuit, spec, FREQUENCIES, space,
                                      samples=24, seed=3, sampler="sobol",
                                      shard_size=8, workers=1)
        np.testing.assert_array_equal(run.values, values)
        np.testing.assert_array_equal(run.responses, reference.responses)


class TestFaultRecovery:
    """Infrastructure failures are healed invisibly; budgets are typed."""

    def test_sigkill_and_hang_bit_identical(self, ladder):
        """ISSUE 9 acceptance: SIGKILLed workers + one hung worker under
        quarantine recover bit-identically to the uninterrupted
        single-process run of the same seed."""
        circuit, spec, space = ladder
        values = space.sample_values(48, seed=11)
        # "nan" quarantines unconditionally; the ladder's "singular" fault
        # is *consistent*-singular, so the regularized stage legitimately
        # rescues it — exercising cross-process recovery records too.
        numerical = {3: "nan", 19: "nan", 41: "singular"}
        with ensemble_faults(numerical, ensemble_values=values):
            reference = parallel_ensemble_sweep(
                circuit, spec, FREQUENCIES, space, values=values,
                shard_size=8, workers=1)
            with parallel_faults({1: ["kill"], 4: ["kill"], 2: ["hang"]}):
                survivor = parallel_ensemble_sweep(
                    circuit, spec, FREQUENCIES, space, values=values,
                    shard_size=8, workers=4)
        assert reference.report.quarantined == [3, 19]
        assert 41 in reference.report.recovered
        np.testing.assert_array_equal(survivor.responses,
                                      reference.responses)
        assert survivor.report.quarantined == reference.report.quarantined
        _reports_equal(survivor.report, reference.report)
        _statistics_equal(survivor.parallel.statistics,
                          reference.parallel.statistics)
        assert survivor.parallel.redispatches == 3
        trails = survivor.parallel.attempts
        assert any("worker died" in step for step in trails[1])
        assert any("worker died" in step for step in trails[4])
        assert any("heartbeat lost" in step for step in trails[2])

    def test_poisoned_shard_exhausts_retries(self, ladder):
        circuit, spec, space = ladder
        with parallel_faults({2: "crash"}):          # every attempt fails
            with pytest.raises(ShardFailureError) as excinfo:
                parallel_ensemble_sweep(
                    circuit, spec, FREQUENCIES, space, samples=32, seed=5,
                    shard_size=8, workers=2)
        error = excinfo.value
        assert error.shard == 2
        assert (error.start, error.stop) == (16, 24)
        assert len(error.attempts) == parallel_module.MAX_ATTEMPTS
        assert "samples 16:24" in str(error)
        assert all("injected crash" in step for step in error.attempts)

    def test_transient_crash_recovers(self, ladder):
        circuit, spec, space = ladder
        reference = parallel_ensemble_sweep(
            circuit, spec, FREQUENCIES, space, samples=32, seed=5,
            shard_size=8, workers=1)
        with parallel_faults({0: ["crash"]}):        # attempt 1 only
            run = parallel_ensemble_sweep(
                circuit, spec, FREQUENCIES, space, samples=32, seed=5,
                shard_size=8, workers=2)
        np.testing.assert_array_equal(run.responses, reference.responses)
        assert run.parallel.redispatches == 1
        assert any("uncaught worker exception" in step
                   for step in run.parallel.attempts[0])

    def test_numerical_failure_propagates_in_raise_mode(self, ladder):
        circuit, spec, space = ladder
        values = space.sample_values(32, seed=5)
        with ensemble_faults({9: "singular"}, ensemble_values=values):
            with pytest.raises(SingularMatrixError):
                parallel_ensemble_sweep(
                    circuit, spec, FREQUENCIES, space, values=values,
                    shard_size=8, workers=2, on_failure="raise")

    def test_worker_reports_merged_exactly_once(self, ladder):
        circuit, spec, space = ladder
        values = space.sample_values(32, seed=13)
        with ensemble_faults({6: "nan", 21: "nan"},
                             ensemble_values=values):
            result = parallel_ensemble_sweep(
                circuit, spec, FREQUENCIES, space, values=values,
                shard_size=8, workers=2)
        # One failure per quarantined (sample, frequency) solve.  Merged
        # exactly once: a double merge would record twice this, a dropped
        # report less.  The solves happened in child processes.
        assert len(result.report.failures) == 2 * len(FREQUENCIES)
        assert result.report.stage_counts["fast"] > 0

    def test_spawned_workers_match_the_in_process_run(self, monkeypatch):
        # Spawned workers share no memory with the supervisor: the circuit,
        # the values and each shard's SweepReport all cross the process
        # boundary by pickling.  A conductance of 0 leaves n1 on C1 alone,
        # singular at 0 Hz, so samples 1 and 4 quarantine.
        circuit = Circuit("floating")
        circuit.add_current_source("iin", "0", "n1", 1.0)
        circuit.add_conductor("Gload", "n1", "0", 1e-3)
        circuit.add_capacitor("C1", "n1", "0", 1e-9)
        circuit.replace(circuit["Gload"].with_tolerance(0.5))
        space = ParameterSpace(circuit)
        values = np.array([[1e-3], [0.0], [2e-3], [1.5e-3], [0.0], [1.2e-3]])
        frequencies = np.array([0.0, 1e3, 1e5])
        in_process = parallel_ensemble_sweep(
            circuit, "n1", frequencies, space, values=values, shard_size=2,
            workers=1)
        monkeypatch.setenv("REPRO_MP_START", "spawn")
        spawned = parallel_ensemble_sweep(
            circuit, "n1", frequencies, space, values=values, shard_size=2,
            workers=2)
        assert spawned.parallel.workers == 2
        for run in (in_process, spawned):
            assert run.report.quarantined == [1, 4]
        np.testing.assert_array_equal(spawned.responses, in_process.responses)
        assert (report_to_json(spawned.report)
                == report_to_json(in_process.report))

    def test_slow_starting_worker_judged_only_from_its_first_beat(
            self, ladder, monkeypatch):
        # A spawned worker imports numpy and the library before its first
        # beat.  Here every forked worker starts twice the heartbeat timeout
        # late: the silence check must wait for the first beat instead of
        # declaring the worker hung.
        circuit, spec, space = ladder
        worker_main = parallel_module._worker_main

        def slow_start(*args):
            time.sleep(2 * parallel_module.HEARTBEAT_TIMEOUT)
            worker_main(*args)

        monkeypatch.setattr(parallel_module, "_worker_main", slow_start)
        monkeypatch.setenv("REPRO_MP_START", "fork")
        run = parallel_ensemble_sweep(circuit, spec, FREQUENCIES, space,
                                      samples=8, seed=5, shard_size=4,
                                      workers=2)
        assert run.parallel.workers == 2
        assert run.parallel.redispatches == 0


class TestCheckpointComposition:
    """A killed supervisor resumes with workers onto the sequential bits."""

    def test_resume_with_workers_bit_identical(self, ladder, tmp_path):
        circuit, spec, space = ladder
        sequential = checkpointed_ensemble_sweep(
            circuit, spec, FREQUENCIES, space, samples=40, seed=9,
            shard_size=8, path=str(tmp_path / "straight.npz"))
        path = str(tmp_path / "resumed.npz")
        partial = checkpointed_ensemble_sweep(
            circuit, spec, FREQUENCIES, space, samples=40, seed=9,
            shard_size=8, max_shards=2, path=path)
        assert not partial.finished and partial.completed == 16
        with parallel_faults({3: ["kill"]}):
            resumed = checkpointed_ensemble_sweep(
                circuit, spec, FREQUENCIES, space, samples=40, seed=9,
                shard_size=8, path=path, workers=2)
        assert resumed.finished and resumed.resumed_from == 16
        np.testing.assert_array_equal(resumed.ensemble.responses,
                                      sequential.ensemble.responses)
        _statistics_equal(resumed.statistics, sequential.statistics)
        _reports_equal(resumed.report, sequential.report)
        info = checkpoint_info(path)
        assert info["completed"] == 40

    def test_parallel_statistics_match_checkpoint_stream(self, ladder,
                                                         tmp_path):
        circuit, spec, space = ladder
        checkpointed = checkpointed_ensemble_sweep(
            circuit, spec, FREQUENCIES, space, samples=40, seed=9,
            shard_size=8, path=str(tmp_path / "stream.npz"))
        parallel = parallel_ensemble_sweep(
            circuit, spec, FREQUENCIES, space, samples=40, seed=9,
            shard_size=8, workers=2)
        _statistics_equal(parallel.parallel.statistics,
                          checkpointed.statistics)


class TestRunShards:
    """The plan executor underneath both public entry points."""

    def test_prefix_callback_is_contiguous(self, ladder):
        circuit, spec, space = ladder
        values = space.sample_values(40, seed=2)
        plan = shard_plan(40, 8)
        fold = _EnsembleFold(FREQUENCIES, 40)
        prefixes = []

        def observe():
            prefixes.append(fold.completed)
            # Every row of the completed prefix is already written.
            assert np.all(np.abs(fold.responses[:fold.completed]) > 0)

        run = run_shards(circuit, spec, FREQUENCIES, space, values, plan,
                         workers=2, on_shard_complete=observe, fold=fold)
        assert prefixes == [stop for _, __, stop in plan]
        assert set(run.attempts) == {shard for shard, _, __ in plan}

    def test_workers_clamped_to_plan(self, ladder):
        circuit, spec, space = ladder
        values = space.sample_values(8, seed=2)
        run = run_shards(circuit, spec, FREQUENCIES, space, values,
                         shard_plan(8, 8), workers=6)
        assert run.workers == 1          # one shard never needs six workers


class TestStreamingFaults:
    """ISSUE 10: infrastructure failure under store_responses=False heals
    to the exact accumulator bits of an uninterrupted streaming run."""

    @staticmethod
    def _full_state_equal(left, right):
        _statistics_equal(left, right)
        assert left.weight_sum == right.weight_sum
        assert left.weight_sumsq == right.weight_sumsq
        assert left.max_weight == right.max_weight
        np.testing.assert_array_equal(left.histogram, right.histogram)

    def test_kill_and_kill_after_bit_identical(self, ladder):
        """SIGKILL mid-shard and SIGKILL *after* the solve (before any
        write-back — the at-most-once accounting worst case) both heal to
        the uninterrupted streaming bits, weights and yields included."""
        circuit, spec, space = ladder
        values = space.sample_values(48, seed=11)
        weights = np.random.default_rng(0).uniform(0.5, 1.5, 48)
        from repro.analysis.montecarlo import YieldSpec
        specs = [YieldSpec(name="gain", minimum_gain_db=-100.0,
                           at_frequency=float(FREQUENCIES[2]))]
        reference = ensemble_sweep(circuit, spec, FREQUENCIES, space,
                                   values=values, on_failure="quarantine",
                                   store_responses=False, shard_size=8,
                                   weights=weights, yield_specs=specs)
        with parallel_faults({1: ["kill"], 3: ["kill_after"],
                              4: ["hang"]}):
            survivor = parallel_ensemble_sweep(
                circuit, spec, FREQUENCIES, space, values=values,
                shard_size=8, workers=3,
                store_responses=False, weights=weights, yield_specs=specs)
        assert survivor.responses is None
        self._full_state_equal(survivor.statistics, reference.statistics)
        assert survivor.yields.count == reference.yields.count
        assert survivor.yields.passed == reference.yields.passed
        assert survivor.yields.fail_weight == reference.yields.fail_weight
        assert survivor.yields.weight_sum == reference.yields.weight_sum
        assert survivor.parallel.redispatches == 3
        trails = survivor.parallel.attempts
        assert any("worker died" in step for step in trails[1])
        assert any("worker died" in step for step in trails[3])

    def test_checkpoint_kill_resume_bit_identical(self, ladder, tmp_path):
        """A streaming checkpointed run interrupted mid-plan and resumed
        under a killed worker reproduces the uninterrupted accumulators."""
        circuit, spec, space = ladder
        straight = checkpointed_ensemble_sweep(
            circuit, spec, FREQUENCIES, space, samples=40, seed=9,
            shard_size=8, store_responses=False,
            path=str(tmp_path / "straight.npz"))
        path = str(tmp_path / "resumed.npz")
        partial = checkpointed_ensemble_sweep(
            circuit, spec, FREQUENCIES, space, samples=40, seed=9,
            shard_size=8, max_shards=2, store_responses=False, path=path)
        assert not partial.finished and partial.completed == 16
        assert checkpoint_info(path)["store_responses"] is False
        with parallel_faults({3: ["kill"]}):
            resumed = checkpointed_ensemble_sweep(
                circuit, spec, FREQUENCIES, space, samples=40, seed=9,
                shard_size=8, store_responses=False, path=path, workers=2)
        assert resumed.finished and resumed.resumed_from == 16
        assert resumed.ensemble.responses is None
        self._full_state_equal(resumed.statistics, straight.statistics)
        _reports_equal(resumed.report, straight.report)

    def test_streaming_matches_sequential_under_numerical_faults(
            self, ladder):
        """Quarantined samples are excluded from the accumulators the same
        way in every execution mode."""
        circuit, spec, space = ladder
        values = space.sample_values(32, seed=7)
        numerical = {5: "nan", 20: "nan"}
        with ensemble_faults(numerical, ensemble_values=values):
            sequential = ensemble_sweep(
                circuit, spec, FREQUENCIES, space, values=values,
                on_failure="quarantine", store_responses=False,
                shard_size=8)
            parallel = parallel_ensemble_sweep(
                circuit, spec, FREQUENCIES, space, values=values,
                shard_size=8, workers=2, store_responses=False)
        assert sequential.statistics.count == 30
        self._full_state_equal(parallel.statistics, sequential.statistics)
        assert parallel.report.quarantined == [5, 20]


class TestAnalysisRouting:
    """processes= routes the analysis layer through the supervised driver."""

    def test_monte_carlo_processes_matches_inprocess(self, ladder):
        circuit, spec, space = ladder
        inprocess = monte_carlo_analysis(circuit, spec, FREQUENCIES, space,
                                         samples=40, seed=4)
        parallel = monte_carlo_analysis(circuit, spec, FREQUENCIES, space,
                                        samples=40, seed=4, processes=2)
        np.testing.assert_array_equal(parallel.ensemble.responses,
                                      inprocess.ensemble.responses)
        np.testing.assert_array_equal(parallel.nominal_response,
                                      inprocess.nominal_response)
        assert parallel.ensemble.parallel.workers == 2
