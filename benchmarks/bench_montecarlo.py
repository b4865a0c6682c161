"""Vectorized Monte Carlo ensemble engine vs the rebuild-per-sample baseline.

A tolerance analysis evaluates M perturbed circuits over F frequencies.  The
pre-engine way is M independent rebuilds: copy the circuit, replace the
toleranced element values, rebuild the MNA system and run a production
:class:`~repro.analysis.ac.ACAnalysis` sweep — per sample.  The ensemble
engine (:func:`repro.montecarlo.ensemble_sweep`) evaluates the whole
parameter space in stacked chunked solves over the value program's
vectorized re-stamping instead.

Asserted here (the PR 5 acceptance criteria) on the 256-sample × 200-point
µA741 ensemble (±5 % on the discrete passives):

* the vectorized engine runs at least **5x** faster than the
  rebuild-per-sample baseline (measured ~6-8x),
* the engine is **batch-invariant**: solving the ensemble stacked or one
  sample at a time through the same LAPACK solver returns identical bits —
  assembly replayed by the :class:`~repro.montecarlo.program.ValueProgram`
  is a pure reorganization of the rebuild path's arithmetic,
* it stays within 1e-9 of the baseline's hand-rolled kernels relative to
  the response scale.

A second check prices quarantine on the sparse path: 16 × 65 ensembles of
the tree, bus and mesh generators at n≈200 (six ±5 % axes, seed 3) run
stored and with ``on_failure="quarantine"``.  The quarantined responses
must equal the stored ones bit for bit, every point must be accepted on the
fast stage, and quarantine may cost at most **1.25x** the stored run (the
median ratio of 5 back-to-back pairs, in CPU seconds of this process, so a
shared host's descheduling stays out of it).

``REPRO_BENCH_REDUCED=1`` (CI smoke) shrinks the ensemble to 24 × 40 and the
quarantine check to one n≈60 family; the equivalence assertions still run
end to end, only the 5x floor and the 1.25x ceiling (full-size timing
claims) are skipped.

Run standalone for the full experiment table::

    PYTHONPATH=src python benchmarks/bench_montecarlo.py
"""

import os
import time

import numpy as np
import pytest

from repro.circuits.generators import build_generator
from repro.montecarlo import ParameterSpace, ensemble_sweep
from repro.reporting.experiments import run_montecarlo_ensemble

_REDUCED = os.environ.get("REPRO_BENCH_REDUCED", "") not in ("", "0")


def _ensemble_shape():
    return (24, 40) if _REDUCED else (256, 200)


def _check(result, full):
    assert result.batch_invariant, result.describe()
    assert result.lapack_relative_deviation <= 1e-9, result.describe()
    if full:
        assert result.num_samples == 256 and result.num_frequencies == 200
        assert result.speedup >= 5.0, result.describe()


@pytest.mark.benchmark(group="montecarlo")
def test_montecarlo_ua741_ensemble(benchmark):
    """256×200 µA741 ensemble: >= 5x, bit-identical to one-at-a-time LAPACK."""
    samples, points = _ensemble_shape()
    result = benchmark.pedantic(
        lambda: run_montecarlo_ensemble(num_samples=samples,
                                        num_points=points, repeats=1)[0],
        rounds=1, iterations=1)
    _check(result, full=not _REDUCED)


def _quarantine_cost(family, dimension, samples=16, points=65, repeats=5):
    """Stored vs quarantined sparse ensemble of one generator circuit.

    Runs ``repeats`` pairs (stored, then quarantined) and returns the median
    of the pairs' CPU-second ratios, after checking the bits and the
    report.  Each pair runs back to back, so load from other processes
    falls on both of its sides.
    """
    circuit, spec = build_generator(family, dimension, seed=1)
    names = [element.name for element in circuit
             if type(element).__name__ in ("Resistor", "Capacitor",
                                           "Conductor")][:6]
    space = ParameterSpace(circuit, {name: 0.05 for name in names})
    values = space.sample_values(samples, 3)
    frequencies = np.logspace(1, 9, points)
    seconds = {"raise": [], "quarantine": []}
    for __ in range(repeats):
        for mode in seconds:
            start = time.process_time()
            result = ensemble_sweep(circuit, spec, frequencies, space,
                                    values=values, method="sparse",
                                    on_failure=mode)
            seconds[mode].append(time.process_time() - start)
            if mode == "raise":
                stored = result.responses
    assert np.array_equal(result.responses, stored), family
    assert result.report.stage_counts["fast"] == samples * points, family
    ratio = float(np.median(np.divide(seconds["quarantine"],
                                      seconds["raise"])))
    print(f"sparse quarantine, {family} n={dimension} ({samples} x {points}): "
          f"stored {min(seconds['raise']):.3f} s, quarantined "
          f"{min(seconds['quarantine']):.3f} s (best of {repeats}), "
          f"median pair ratio {ratio:.2f}x")
    return ratio


def _check_quarantine_cost():
    if _REDUCED:
        _quarantine_cost("tree", 60, repeats=1)
        return
    for family in ("tree", "bus", "mesh"):
        assert _quarantine_cost(family, 200) <= 1.25, family


@pytest.mark.benchmark(group="montecarlo")
def test_sparse_quarantine_cost(benchmark):
    """Quarantined sparse ensembles: stored bits, fast stage, <= 1.25x."""
    benchmark.pedantic(_check_quarantine_cost, rounds=1, iterations=1)


def main():
    samples, points = _ensemble_shape()
    print(f"Monte Carlo ensemble ({samples} samples x {points} points, "
          "uA741 +/-5% passives): vectorized engine vs rebuild-per-sample")
    for result in run_montecarlo_ensemble(num_samples=samples,
                                          num_points=points):
        print(result.describe())
        _check(result, full=not _REDUCED)
    _check_quarantine_cost()


if __name__ == "__main__":
    main()
