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

``REPRO_BENCH_REDUCED=1`` (CI smoke) shrinks the ensemble to 24 × 40; the
equivalence assertions still run end to end, only the 5x floor (a full-size
wall-clock claim) is skipped.

Run standalone for the full experiment table::

    PYTHONPATH=src python benchmarks/bench_montecarlo.py
"""

import os

import pytest

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


def main():
    samples, points = _ensemble_shape()
    print(f"Monte Carlo ensemble ({samples} samples x {points} points, "
          "uA741 +/-5% passives): vectorized engine vs rebuild-per-sample")
    for result in run_montecarlo_ensemble(num_samples=samples,
                                          num_points=points):
        print(result.describe())
        _check(result, full=not _REDUCED)


if __name__ == "__main__":
    main()
