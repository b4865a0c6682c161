"""Property-test harness for the streaming O(F)-memory estimators.

The contract under test (ISSUE 10):

* the ``store_responses=False`` accumulators are **invariant** to how the
  ensemble is executed — order-independent statistics (extremes, counts,
  histogram bins) are *exactly* invariant to shard size, solve-chunk size
  and worker count, and the full accumulator state (moment sums included)
  is **bit-identical** across chunk sizes and worker counts at a fixed
  shard size, because the fixed shard-order merge replays the sequential
  fold addition for addition;
* across *different* shard sizes the non-associative float moment sums
  regroup, so means and standard deviations agree to rounding — the
  harness pins that tolerance too, so a regression from "rounding" to
  "wrong" cannot hide;
* histogram percentiles are within one bin width of the materialized
  ``np.percentile`` envelope, on random circuits from
  :mod:`tests.strategies`;
* the streaming mode never materializes the ``(M, F)`` responses buffer —
  a 10⁵-sample run's peak allocation is asserted under a ceiling a
  fraction of the buffer it replaces (the memory-regression satellite).
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from strategies import random_circuit

import repro.montecarlo.engine as ensemble_engine
from repro.analysis.montecarlo import (YieldSpec, monte_carlo_analysis,
                                       yield_analysis)
from repro.circuits.rc_ladder import build_rc_ladder
from repro.errors import FormulationError
from repro.montecarlo import (EnsembleStatistics, ParameterSpace,
                              StreamingYield, ensemble_sweep,
                              parallel_ensemble_sweep)

FREQUENCIES = np.logspace(1, 6, 24)


@pytest.fixture(scope="module")
def ladder():
    circuit, spec = build_rc_ladder(4)
    names = [element.name for element in circuit
             if type(element).__name__ in ("Resistor", "Capacitor")][:5]
    space = ParameterSpace(circuit, {name: 0.1 for name in names})
    return circuit, spec, space


def _toleranced_space(circuit, fraction=0.1, limit=4):
    """A ParameterSpace over the first few R / C elements of a circuit."""
    names = [element.name for element in circuit
             if type(element).__name__ in ("Resistor", "Capacitor")][:limit]
    return ParameterSpace(circuit, {name: fraction for name in names})


def _state_identical(left, right):
    """Full accumulator state, bit for bit (the worker-count contract)."""
    assert left.count == right.count
    np.testing.assert_array_equal(left.sum_db, right.sum_db)
    np.testing.assert_array_equal(left.sumsq_db, right.sumsq_db)
    np.testing.assert_array_equal(left.min_db, right.min_db)
    np.testing.assert_array_equal(left.max_db, right.max_db)
    assert left.weight_sum == right.weight_sum
    assert left.weight_sumsq == right.weight_sumsq
    assert left.max_weight == right.max_weight
    assert left.histogram_bins == right.histogram_bins
    if left.histogram is not None or right.histogram is not None:
        np.testing.assert_array_equal(left.histogram, right.histogram)


class TestShardSizeInvariance:
    """Different shard sizes execute different folds of the same samples."""

    def test_order_independent_state_exact(self, ladder):
        circuit, spec, space = ladder
        values = space.sample_values(96, seed=3)
        runs = [ensemble_sweep(circuit, spec, FREQUENCIES, space,
                               values=values, store_responses=False,
                               shard_size=size)
                for size in (7, 16, 96)]
        reference = runs[0].statistics
        for run in runs[1:]:
            statistics = run.statistics
            assert statistics.count == reference.count
            np.testing.assert_array_equal(statistics.min_db,
                                          reference.min_db)
            np.testing.assert_array_equal(statistics.max_db,
                                          reference.max_db)
            np.testing.assert_array_equal(statistics.histogram,
                                          reference.histogram)

    def test_moments_agree_to_rounding(self, ladder):
        circuit, spec, space = ladder
        values = space.sample_values(96, seed=3)
        reference = ensemble_sweep(circuit, spec, FREQUENCIES, space,
                                   values=values, store_responses=False,
                                   shard_size=96).statistics
        for size in (7, 16, 33):
            statistics = ensemble_sweep(circuit, spec, FREQUENCIES, space,
                                        values=values,
                                        store_responses=False,
                                        shard_size=size).statistics
            np.testing.assert_allclose(statistics.mean_db(),
                                       reference.mean_db(),
                                       rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(statistics.std_db(),
                                       reference.std_db(),
                                       rtol=1e-9, atol=1e-9)

    def test_matches_materialized_moments(self, ladder):
        circuit, spec, space = ladder
        stored = ensemble_sweep(circuit, spec, FREQUENCIES, space,
                                samples=64, seed=7)
        magnitudes = stored.magnitudes_db()[stored.surviving_mask()]
        streaming = ensemble_sweep(circuit, spec, FREQUENCIES, space,
                                   samples=64, seed=7,
                                   store_responses=False,
                                   shard_size=16).statistics
        np.testing.assert_array_equal(streaming.min_db,
                                      magnitudes.min(axis=0))
        np.testing.assert_array_equal(streaming.max_db,
                                      magnitudes.max(axis=0))
        np.testing.assert_allclose(streaming.mean_db(),
                                   magnitudes.mean(axis=0), rtol=1e-12)
        np.testing.assert_allclose(streaming.std_db(),
                                   magnitudes.std(axis=0),
                                   rtol=1e-9, atol=1e-12)


class TestChunkAndWorkerInvariance:
    """Execution shape must not leak into the accumulator bits."""

    def test_chunk_size_bitwise_invariant(self, ladder, monkeypatch):
        circuit, spec, space = ladder
        values = space.sample_values(64, seed=5)
        reference = ensemble_sweep(circuit, spec, FREQUENCIES, space,
                                   values=values, store_responses=False,
                                   shard_size=16).statistics
        # Shrink the solve chunk so every shard is split into many stacked
        # solves; the statistics fold sees whole shards either way.
        monkeypatch.setattr(ensemble_engine, "_ENSEMBLE_CHUNK_ELEMENTS", 64)
        chunked = ensemble_sweep(circuit, spec, FREQUENCIES, space,
                                 values=values, store_responses=False,
                                 shard_size=16).statistics
        _state_identical(chunked, reference)

    def test_thread_count_bitwise_invariant(self, ladder):
        circuit, spec, space = ladder
        values = space.sample_values(64, seed=5)
        runs = [ensemble_sweep(circuit, spec, FREQUENCIES, space,
                               values=values, store_responses=False,
                               shard_size=16, workers=workers).statistics
                for workers in (1, 3)]
        _state_identical(runs[0], runs[1])

    def test_worker_processes_bitwise_invariant(self, ladder):
        circuit, spec, space = ladder
        values = space.sample_values(64, seed=5)
        sequential = ensemble_sweep(circuit, spec, FREQUENCIES, space,
                                    values=values, store_responses=False,
                                    shard_size=16).statistics
        for workers in (1, 3):
            parallel = parallel_ensemble_sweep(
                circuit, spec, FREQUENCIES, space, values=values,
                shard_size=16, workers=workers,
                store_responses=False).statistics
            _state_identical(parallel, sequential)


class TestHistogramPercentiles:
    """Fixed-bin envelopes are within one bin width of the exact ones."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_bounded_error_on_random_circuits(self, seed):
        circuit, spec = random_circuit(seed, min_nodes=3, max_nodes=5)
        space = _toleranced_space(circuit)
        frequencies = np.logspace(1, 7, 16)
        stored = ensemble_sweep(circuit, spec, frequencies, space,
                                samples=200, seed=seed,
                                on_failure="quarantine")
        magnitudes = stored.magnitudes_db()[stored.surviving_mask()]
        # A range fitted to the data: random circuits can sit hundreds of
        # dB below the production default (essentially-zero transfers),
        # and mass outside the configured range clips to the edge bins.
        low = float(magnitudes.min()) - 1.0
        high = float(magnitudes.max()) + 1.0
        streaming = ensemble_sweep(circuit, spec, frequencies, space,
                                   samples=200, seed=seed,
                                   on_failure="quarantine",
                                   store_responses=False, shard_size=64,
                                   histogram_range=(low, high)).statistics
        width = streaming.histogram_bin_width_db
        for quantile in (5.0, 50.0, 95.0):
            exact = np.percentile(magnitudes, quantile, axis=0)
            approx = streaming.percentile_db(quantile)
            assert np.abs(approx - exact).max() <= width + 1e-9

    def test_out_of_range_mass_clips_to_edge_bins(self):
        statistics = EnsembleStatistics(frequencies=np.array([1.0]),
                                        histogram_bins=10,
                                        histogram_low_db=-10.0,
                                        histogram_high_db=10.0)
        statistics.update(np.array([[-50.0], [0.5], [50.0]]))
        histogram = statistics.histogram[0]
        assert histogram[0] == 1 and histogram[-1] == 1
        assert histogram.sum() == 3
        assert statistics.percentile_db(0.0)[0] == pytest.approx(-10.0)
        assert statistics.percentile_db(100.0)[0] == pytest.approx(10.0)

    def test_envelope_served_from_accumulator(self, ladder):
        circuit, spec, space = ladder
        streaming = monte_carlo_analysis(circuit, spec, FREQUENCIES, space,
                                         samples=128, seed=2,
                                         store_responses=False,
                                         shard_size=32)
        stored = monte_carlo_analysis(circuit, spec, FREQUENCIES, space,
                                      samples=128, seed=2)
        envelope = streaming.envelope()
        reference = stored.envelope()
        np.testing.assert_array_equal(envelope.minimum_db,
                                      reference.minimum_db)
        np.testing.assert_array_equal(envelope.maximum_db,
                                      reference.maximum_db)
        np.testing.assert_allclose(envelope.mean_db, reference.mean_db,
                                   rtol=1e-12)
        width = streaming.ensemble.statistics.histogram_bin_width_db
        assert np.abs(envelope.percentile_high_db
                      - reference.percentile_high_db).max() <= width + 1e-9

    def test_percentile_needs_histogram_and_valid_quantile(self):
        statistics = EnsembleStatistics(frequencies=np.array([1.0, 2.0]))
        with pytest.raises(FormulationError):
            statistics.percentile_db(50.0)
        with_hist = EnsembleStatistics(frequencies=np.array([1.0, 2.0]),
                                       histogram_bins=10)
        with pytest.raises(FormulationError):
            with_hist.percentile_db(101.0)


class TestWeightedAccumulators:
    """Likelihood-ratio weights thread through the same folds."""

    def test_weighted_mean_matches_numpy_average(self, ladder):
        circuit, spec, space = ladder
        values = space.sample_values(64, seed=8)
        rng = np.random.default_rng(0)
        weights = rng.uniform(0.2, 2.0, 64)
        stored = ensemble_sweep(circuit, spec, FREQUENCIES, space,
                                values=values)
        magnitudes = stored.magnitudes_db()
        streaming = ensemble_sweep(circuit, spec, FREQUENCIES, space,
                                   values=values, store_responses=False,
                                   shard_size=16,
                                   weights=weights).statistics
        np.testing.assert_allclose(
            streaming.mean_db(),
            np.average(magnitudes, axis=0, weights=weights), rtol=1e-12)
        assert streaming.weight_sum == pytest.approx(weights.sum())

    def test_weighted_state_invariant_across_workers(self, ladder):
        circuit, spec, space = ladder
        values = space.sample_values(48, seed=8)
        weights = np.random.default_rng(1).uniform(0.2, 2.0, 48)
        sequential = ensemble_sweep(circuit, spec, FREQUENCIES, space,
                                    values=values, store_responses=False,
                                    shard_size=16,
                                    weights=weights).statistics
        parallel = parallel_ensemble_sweep(
            circuit, spec, FREQUENCIES, space, values=values,
            shard_size=16, workers=2, store_responses=False,
            weights=weights).statistics
        _state_identical(parallel, sequential)

    def test_unweighted_diagnostics_are_healthy(self, ladder):
        circuit, spec, space = ladder
        streaming = ensemble_sweep(circuit, spec, FREQUENCIES, space,
                                   samples=32, seed=1,
                                   store_responses=False,
                                   shard_size=16).statistics
        diagnostics = streaming.weight_diagnostics()
        assert not diagnostics.degenerate
        assert diagnostics.ess == pytest.approx(32.0)


class TestStreamingYieldParity:
    """StreamingYield reproduces the materialized yield_analysis counts."""

    def test_matches_yield_analysis(self, ladder):
        circuit, spec, space = ladder
        result = monte_carlo_analysis(circuit, spec, FREQUENCIES, space,
                                      samples=96, seed=6)
        magnitudes = result.ensemble.magnitudes_db()
        pivot = FREQUENCIES[2]
        threshold = float(np.median(magnitudes[:, 2]))
        specs = [YieldSpec(name="gain", minimum_gain_db=threshold,
                           at_frequency=float(pivot))]
        reference = yield_analysis(result, specs)
        streaming = ensemble_sweep(
            circuit, spec, FREQUENCIES, space,
            values=result.ensemble.values, store_responses=False,
            shard_size=32, yield_specs=specs).yields
        assert streaming.count == reference.total
        assert streaming.passed == reference.passed
        assert streaming.per_spec_count == reference.per_spec
        assert streaming.yield_fraction == pytest.approx(reference.fraction)
        assert streaming.failure_probability == pytest.approx(
            1.0 - reference.fraction)

    def test_yield_invariant_across_workers(self, ladder):
        circuit, spec, space = ladder
        values = space.sample_values(64, seed=6)
        specs = [YieldSpec(name="gain", minimum_gain_db=-200.0,
                           at_frequency=float(FREQUENCIES[1]))]
        sequential = ensemble_sweep(circuit, spec, FREQUENCIES, space,
                                    values=values, store_responses=False,
                                    shard_size=16, yield_specs=specs).yields
        parallel = parallel_ensemble_sweep(
            circuit, spec, FREQUENCIES, space, values=values,
            shard_size=16, workers=2, store_responses=False,
            yield_specs=specs).yields
        assert parallel.count == sequential.count
        assert parallel.passed == sequential.passed
        assert parallel.weight_sum == sequential.weight_sum
        assert parallel.fail_weight == sequential.fail_weight

    def test_merge_rejects_mismatched_specs(self):
        left = StreamingYield(spec_names=["a"])
        right = StreamingYield(spec_names=["b"])
        with pytest.raises(FormulationError):
            left.merge(right)


class TestStoredModeGuards:
    """Streaming-only inputs and accessors fail with typed errors."""

    def test_streaming_kwargs_rejected_in_stored_mode(self, ladder):
        circuit, spec, space = ladder
        for kwargs in ({"weights": np.ones(8)},
                       {"histogram_bins": 100},
                       {"yield_specs": YieldSpec(name="s")}):
            with pytest.raises(FormulationError,
                               match="store_responses=False"):
                ensemble_sweep(circuit, spec, FREQUENCIES, space,
                               samples=8, **kwargs)

    def test_response_accessors_unavailable_when_streaming(self, ladder):
        circuit, spec, space = ladder
        run = ensemble_sweep(circuit, spec, FREQUENCIES, space, samples=16,
                             store_responses=False, shard_size=8)
        assert run.responses is None
        with pytest.raises(FormulationError, match="streaming"):
            run.magnitudes_db()
        assert "streaming" in repr(run)


#: Allocation noise a traced run may add per extra worker on top of its
#: chunk of solver scratch (thread stacks, pool bookkeeping, numpy temps).
_WORKER_SLACK_BYTES = 1024 * 1024


class TestMemoryRegression:
    """A 10⁵-sample streaming run must stay O(F), not O(M×F)."""

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_streaming_peak_allocation_bounded(self, ladder, workers):
        circuit, spec, space = ladder
        samples = 100_000
        frequencies = np.logspace(1, 6, 64)
        materialized_bytes = samples * len(frequencies) * 16
        # The (M, E) value matrix is drawn outside the traced region: the
        # up-front draw is O(M·E) by design and ships to any execution
        # backend.  What this satellite guards is the *fold*: no allocation
        # inside the streaming sweep may approach the O(M×F) responses
        # buffer the mode exists to avoid.
        values = space.sample_values(samples, seed=0)
        tracemalloc.start()
        try:
            baseline, __ = tracemalloc.get_traced_memory()
            run = ensemble_sweep(circuit, spec, frequencies, space,
                                 values=values, store_responses=False,
                                 shard_size=1024, workers=workers)
            __, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert run.statistics.count == samples
        overhead = peak - baseline
        # Every worker thread past the first holds at most one more chunk
        # of solver scratch in flight.
        extra = (workers - 1) * (
            ensemble_engine._ENSEMBLE_CHUNK_ELEMENTS * 16
            + _WORKER_SLACK_BYTES)
        assert overhead < materialized_bytes / 4 + extra
        assert overhead < 24 * 1024 * 1024 + extra
