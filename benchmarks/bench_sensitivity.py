"""Rank-1 update sensitivity screening vs the brute-force rebuild path.

The SBG reduction is driven by an element-influence ranking whose brute-force
computation rebuilds the circuit and runs a full AC sweep twice per candidate
— ``2·E·F`` complete MNA assemblies and factorizations.  The rank-1 engine
factors the *baseline* once per frequency batch and obtains every element's
removal / perturbation response from the cached factors via Sherman–Morrison
in O(n²) per element (:func:`repro.analysis.sensitivity.screen_elements`,
which applies the update inline, vectorized over the sweep and blocks of
elements).

Asserted here (the PR 2 acceptance criteria):

* full-element µA741 screening runs at least 5x faster through the rank-1
  engine than through ``method="rebuild"``,
* the element influence rankings of the two engines are identical, and both
  flag the same elements as singular-on-removal,
* the worst-case relative response deviation between the engines is at most
  1e-9 across all screened elements and frequencies (relative to the
  transfer-function scale ``max(|response|, |baseline|)`` per frequency).

Run standalone for the full experiment table::

    PYTHONPATH=src python benchmarks/bench_sensitivity.py
"""

import numpy as np
import pytest

from repro.analysis.sensitivity import screen_elements
from repro.reporting.experiments import run_sensitivity_screening


@pytest.mark.benchmark(group="sensitivity")
def test_sensitivity_ua741_speedup(benchmark, ua741):
    """Full µA741 screening: >= 5x wall-clock, identical rankings, <= 1e-9."""
    circuit, spec = ua741
    result = benchmark(lambda: run_sensitivity_screening(
        num_frequencies=25,
        circuits=[("ua741", (circuit, spec))],
    )[0])
    assert result.num_elements > 100  # the *full* element set was screened
    assert result.speedup >= 5.0, result.describe()
    assert result.ranking_identical, result.describe()
    assert result.singular_sets_identical, result.describe()
    assert result.max_relative_deviation <= 1e-9, result.describe()


@pytest.mark.benchmark(group="sensitivity")
def test_sensitivity_rank1_cost(benchmark, ua741):
    """The rank-1 engine alone on the full µA741 element set."""
    circuit, spec = ua741
    frequencies = np.logspace(0, 8, 25)
    result = benchmark(lambda: screen_elements(circuit, spec, frequencies,
                                               method="rank1"))
    assert len(result.screenings) > 100


@pytest.mark.benchmark(group="sensitivity")
def test_sensitivity_miller_ota_equivalence(benchmark, miller):
    """Miller OTA: the small-circuit case stays equivalent too."""
    circuit, spec = miller
    result = benchmark(lambda: run_sensitivity_screening(
        num_frequencies=25,
        circuits=[("miller_ota", (circuit, spec))],
        repeats=1,
    )[0])
    assert result.ranking_identical, result.describe()
    assert result.singular_sets_identical, result.describe()
    assert result.max_relative_deviation <= 1e-9, result.describe()


def main():
    print("rank-1 update screening vs rebuild-per-element "
          "(25 log-spaced frequencies, 1 Hz - 100 MHz, full element sets)")
    for result in run_sensitivity_screening(num_frequencies=25):
        print(result.describe())
        assert result.speedup >= 5.0, result.describe()
        assert result.ranking_identical, result.describe()
        assert result.singular_sets_identical, result.describe()
        assert result.max_relative_deviation <= 1e-9, result.describe()


if __name__ == "__main__":
    main()
