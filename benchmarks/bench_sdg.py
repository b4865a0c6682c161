"""E8 — SDG error control (Eq. 3).

The numerical reference lets SDG stop accumulating terms once the generated
sum represents the required fraction of each coefficient.  Measured on the
two-stage Miller OTA — the Eq. 3 budget must hold for every coefficient and
the term count must collapse.

Run standalone for the epsilon-sweep table::

    PYTHONPATH=src python benchmarks/bench_sdg.py
"""

import math

import pytest

from repro.circuits.miller_ota import build_miller_ota
from repro.interpolation.reference import generate_reference
from repro.symbolic.generation import symbolic_network_function
from repro.symbolic.sdg import simplification_during_generation

EPSILONS = (0.1, 0.01, 0.001)


def _check_error_control(result):
    for report in result.reports:
        if math.isfinite(report.achieved_error):
            assert report.achieved_error <= result.epsilon * 1.5 + 1e-12, \
                result.summary()


@pytest.fixture(scope="module")
def miller_reference(miller):
    circuit, spec = miller
    return generate_reference(circuit, spec)


@pytest.fixture(scope="module")
def miller_symbolic(miller):
    circuit, spec = miller
    return symbolic_network_function(circuit, spec)


@pytest.mark.benchmark(group="sdg")
def test_sdg_error_control(benchmark, miller, miller_reference, miller_symbolic):
    circuit, spec = miller
    epsilon = 0.01

    result = benchmark(
        lambda: simplification_during_generation(
            circuit, spec, miller_reference, epsilon=epsilon,
            transfer_function=miller_symbolic))
    kept, total = result.total_terms()
    assert kept < total
    assert result.compression() > 0.5
    _check_error_control(result)


@pytest.mark.benchmark(group="sdg")
def test_sdg_epsilon_sweep_monotone(benchmark, miller, miller_reference,
                                    miller_symbolic):
    circuit, spec = miller

    def sweep():
        kept_counts = []
        for epsilon in EPSILONS:
            result = simplification_during_generation(
                circuit, spec, miller_reference, epsilon=epsilon,
                transfer_function=miller_symbolic)
            kept_counts.append(result.total_terms()[0])
        return kept_counts

    kept_counts = benchmark(sweep)
    assert kept_counts[0] <= kept_counts[1] <= kept_counts[2]


def main():
    circuit, spec = build_miller_ota()
    reference = generate_reference(circuit, spec)
    transfer = symbolic_network_function(circuit, spec)
    print("SDG epsilon sweep on the Miller OTA (Eq. 3 error control)")
    for epsilon in EPSILONS:
        result = simplification_during_generation(
            circuit, spec, reference, epsilon=epsilon,
            transfer_function=transfer)
        print(result.summary())
        _check_error_control(result)


if __name__ == "__main__":
    main()
