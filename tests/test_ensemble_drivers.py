"""Every ensemble driver lands on the same bits.

``ensemble_sweep``, ``parallel_ensemble_sweep`` and
``checkpointed_ensemble_sweep`` cut the samples with one ``shard_plan`` and
fold every shard through one fold, in plan order.  At a fixed
``shard_size`` their statistics (count, sums, extrema, histogram, weight
totals), responses and quarantine report are therefore bit-identical, in
stored and in streaming mode, in-process and across worker processes.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from faults import ensemble_faults

import repro.montecarlo.parallel as parallel_module
from repro.analysis.montecarlo import YieldSpec
from repro.circuits.rc_ladder import build_rc_ladder
from repro.engine.resilience import report_to_json
from repro.montecarlo import (EnsembleStatistics, ParameterSpace,
                              checkpointed_ensemble_sweep, engine,
                              ensemble_sweep, parallel_ensemble_sweep)
from repro.montecarlo.parallel import shard_plan

FREQUENCIES = np.logspace(1, 6, 5)
SAMPLES = 40
SEED = 9
SHARD_SIZE = 8
#: "nan" members are quarantined; the ladder's "singular" fault is
#: consistent, so the regularized stage recovers it.
FAULTS = {3: "nan", 21: "singular", 30: "nan"}
DRIVERS = [("inline", None), ("parallel", 1), ("parallel", 2),
           ("checkpointed", None), ("checkpointed", 2)]


@pytest.fixture(autouse=True)
def fast_supervision(monkeypatch):
    """Tight supervision timings: hang detection after 0.8 s of heartbeat
    silence, near-immediate re-dispatch."""
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


def _run(ladder, driver, store_responses, path, **overrides):
    """``(EnsembleResult, statistics)`` of one driver on the shared draw."""
    circuit, spec, space = ladder
    kind, workers = driver
    options = dict(samples=SAMPLES, seed=SEED, shard_size=SHARD_SIZE,
                   on_failure="quarantine", store_responses=store_responses)
    options.update(overrides)
    if kind == "inline":
        result = ensemble_sweep(circuit, spec, FREQUENCIES, space,
                                workers=workers, **options)
        return result, result.statistics
    if kind == "parallel":
        result = parallel_ensemble_sweep(circuit, spec, FREQUENCIES, space,
                                         workers=workers, **options)
        return result, result.parallel.statistics
    run = checkpointed_ensemble_sweep(circuit, spec, FREQUENCIES, space,
                                      path=str(path), workers=workers,
                                      **options)
    assert run.finished
    return run.ensemble, run.statistics


def _folded_rows(ensemble):
    """Oracle: the stored rows' surviving magnitudes, folded per shard."""
    statistics = EnsembleStatistics(frequencies=FREQUENCIES)
    surviving = ensemble.surviving_mask()
    for __, start, stop in shard_plan(SAMPLES, SHARD_SIZE):
        magnitude = np.abs(ensemble.responses[start:stop])
        magnitude[magnitude == 0.0] = np.finfo(float).tiny
        statistics.update((20.0 * np.log10(magnitude))[surviving[start:stop]])
    return statistics


def _report_state(report):
    """Every recorded fact of a report.

    Failure descriptions are left out: they name the member by its index
    within the solve call that hit it, which is shard-local in a sharded run.
    """
    state = json.loads(report_to_json(report))
    for record in state["failures"]:
        del record["description"]
    return state


@pytest.mark.parametrize("store_responses", [True, False],
                         ids=["stored", "streaming"])
@pytest.mark.parametrize("driver", DRIVERS,
                         ids=[f"{kind}-{workers}" for kind, workers in DRIVERS])
def test_drivers_bit_identical(ladder, tmp_path, driver, store_responses):
    __, __, space = ladder
    values = space.sample_values(SAMPLES, SEED)
    with ensemble_faults(FAULTS, ensemble_values=values):
        reference, reference_statistics = _run(
            ladder, ("inline", None), store_responses, tmp_path / "inline.npz")
        result, statistics = _run(ladder, driver, store_responses,
                                  tmp_path / "run.npz")
    assert reference.report.quarantined == [3, 30]
    assert reference.report.recovered == [21]
    assert _report_state(result.report) == _report_state(reference.report)
    if store_responses:
        np.testing.assert_array_equal(result.responses, reference.responses)
        expected = _folded_rows(reference)
    else:
        assert result.responses is None
        expected = reference_statistics
    if statistics is None:          # a stored ensemble_sweep keeps no fold
        return
    assert statistics.count == expected.count == SAMPLES - 2
    for field in ("weight_sum", "weight_sumsq", "max_weight",
                  "histogram_bins"):
        assert getattr(statistics, field) == getattr(expected, field), field
    for field in ("sum_db", "sumsq_db", "min_db", "max_db", "histogram"):
        np.testing.assert_array_equal(getattr(statistics, field),
                                      getattr(expected, field),
                                      err_msg=field)


@pytest.mark.parametrize("workers", [None, 1, 2],
                         ids=["inline", "parallel-1", "parallel-2"])
def test_yield_specs_iterator_matches_list(ladder, workers):
    """Any iterable of specs is read once, by the fold, and shipped as a
    list: an iterator gives the yields a list gives, at every worker
    count."""
    circuit, spec, space = ladder
    specs = [YieldSpec(name="gain", minimum_gain_db=-100.0,
                       at_frequency=float(FREQUENCIES[2])),
             YieldSpec(name="ceiling", maximum_gain_db=-3.0,
                       at_frequency=float(FREQUENCIES[0]))]

    def yields(yield_specs):
        options = dict(samples=SAMPLES, seed=SEED, shard_size=SHARD_SIZE,
                       store_responses=False, yield_specs=yield_specs)
        if workers is None:
            return ensemble_sweep(circuit, spec, FREQUENCIES, space,
                                  **options).yields
        return parallel_ensemble_sweep(circuit, spec, FREQUENCIES, space,
                                       workers=workers, **options).yields

    listed = yields(specs)
    assert listed.spec_names == ["gain", "ceiling"]
    assert listed.count == SAMPLES
    assert yields(iter(specs)) == listed


#: ``(driver, samples, threads each shard solves with)``; ``None`` is the
#: engine default.  Two checkpointed workers with one shard to run stay
#: in-process, on one thread.
THREAD_CASES = [(("inline", 2), SAMPLES, 2), (("parallel", 1), SAMPLES, 1),
                (("checkpointed", None), SAMPLES, None),
                (("checkpointed", 1), SAMPLES, None),
                (("checkpointed", 2), SHARD_SIZE, 1)]


@pytest.mark.parametrize(
    "driver, samples, threads", THREAD_CASES,
    ids=[f"{kind}-{workers}-{samples}"
         for (kind, workers), samples, __ in THREAD_CASES])
def test_in_process_thread_counts(ladder, tmp_path, monkeypatch, driver,
                                  samples, threads):
    """In-process shards solve on their driver's thread count: the caller's
    for a streaming ``ensemble_sweep``, one for ``parallel_ensemble_sweep``
    and the engine default for a checkpointed run."""
    seen = []
    dense_ensemble = engine._dense_ensemble

    def recording(*args, workers=None, **kwargs):
        seen.append(workers)
        return dense_ensemble(*args, workers=workers, **kwargs)

    monkeypatch.setattr(engine, "_dense_ensemble", recording)
    _run(ladder, driver, False, tmp_path / "run.npz", samples=samples,
         on_failure="raise")
    assert seen == [threads] * (samples // SHARD_SIZE)
