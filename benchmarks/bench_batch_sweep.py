"""E7 — batched frequency-sweep engine vs point-by-point sampling.

The paper's premise is that numerical reference generation must stay cheap
for *large* circuits; the batch engine attacks the dominant cost — one
assemble + LU per interpolation point — by assembling the ``G`` / ``C`` parts
once per sweep and sharing the factorization structure across every point.
The per-point arm runs one one-point engine sweep per point
(``NetworkFunctionSampler.sample``), paying the sweep's setup every time.

Asserted here (the PR 1 acceptance criteria):

* a 200-point µA741 sweep runs at least 2x faster as one batched sweep,
* the batched transfer values deviate from the per-point arm by at most
  1e-9 relative (they are in fact bit-for-bit identical on the dense path).

Run standalone for the full experiment table::

    PYTHONPATH=src python benchmarks/bench_batch_sweep.py
"""

import numpy as np
import pytest

from repro.circuits.rc_ladder import build_rc_ladder
from repro.nodal.sampler import NetworkFunctionSampler
from repro.reporting.experiments import run_batch_sweep


@pytest.mark.benchmark(group="batch-sweep")
def test_batch_sweep_ua741_speedup(benchmark, ua741_admittance):
    """200-point µA741 sweep: >= 2x wall-clock and <= 1e-9 relative deviation."""
    circuit, spec = ua741_admittance
    result = benchmark(lambda: run_batch_sweep(
        num_points=200,
        circuits=[("ua741", (circuit, spec))],
    )[0])
    assert result.num_points == 200
    assert result.speedup >= 2.0, result.describe()
    assert result.max_relative_deviation <= 1e-9, result.describe()
    assert result.bitwise_identical


@pytest.mark.benchmark(group="batch-sweep")
def test_batch_sweep_pointwise_cost(benchmark, ua741_admittance):
    """Baseline: one one-point sweep per point (200 points)."""
    circuit, spec = ua741_admittance
    sampler = NetworkFunctionSampler(circuit, spec)
    points = (2j * np.pi * np.logspace(0, 8, 200)).tolist()
    samples = benchmark(lambda: [sampler.sample(point) for point in points])
    assert len(samples) == 200


@pytest.mark.benchmark(group="batch-sweep")
def test_batch_sweep_batched_cost(benchmark, ua741_admittance):
    """The batch engine on the same 200-point sweep."""
    circuit, spec = ua741_admittance
    sampler = NetworkFunctionSampler(circuit, spec)
    points = (2j * np.pi * np.logspace(0, 8, 200)).tolist()
    samples = benchmark(lambda: sampler.sample_many(points))
    assert len(samples) == 200


@pytest.mark.benchmark(group="batch-sweep")
def test_batch_sweep_rc_ladder_scaling(benchmark):
    """RC ladders of 12 / 24 / 48 stages: the engine never loses, exactly."""
    results = benchmark(lambda: run_batch_sweep(
        num_points=100,
        circuits=[
            (f"rc_ladder_{stages}", build_rc_ladder(stages))
            for stages in (12, 24, 48)
        ],
    ))
    for result in results:
        assert result.max_relative_deviation <= 1e-9, result.describe()
        assert result.bitwise_identical
        assert result.speedup >= 1.0, result.describe()


def main():
    print("batched frequency-sweep engine vs per-point sampling "
          "(200 log-spaced points, 1 Hz - 100 MHz)")
    for result in run_batch_sweep(num_points=200):
        marker = " [bitwise identical]" if result.bitwise_identical else ""
        print(result.describe() + marker)


if __name__ == "__main__":
    main()
