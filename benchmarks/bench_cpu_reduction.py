"""E5 — Section 3.3 CPU-time claim: Eq. 17 deflation makes later iterations cheaper.

Paper claim: on a SPARCstation-10 the three µA741 interpolations cost
3.9 s / 2.3 s / 0.9 s when the problem-size reduction of Eq. 17 is applied
(versus 3.9 s each without it).  Absolute times are machine- and
implementation-specific; the reproducible shape is (a) the total number of
interpolation points (hence LU factorizations) drops when deflation is on and
(b) the per-iteration point count never increases and ends much smaller than
it starts.
"""

import pytest

from repro.interpolation.adaptive import AdaptiveOptions, AdaptiveScalingInterpolator
from repro.nodal.sampler import NetworkFunctionSampler
from repro.reporting.experiments import run_cpu_reduction


def _run(circuit, spec, deflation):
    sampler = NetworkFunctionSampler(circuit, spec)
    options = AdaptiveOptions(deflation=deflation)
    result = AdaptiveScalingInterpolator(sampler, "denominator", options).run()
    return result, sampler.factorization_count


@pytest.mark.benchmark(group="cpu-reduction")
def test_with_reduction(benchmark, ua741_admittance):
    circuit, spec = ua741_admittance
    result, factorizations = benchmark(lambda: _run(circuit, spec, True))
    assert result.converged
    points = [record.num_points for record in result.iterations]
    # Monotone non-increasing cost per iteration, with a real drop at the end.
    assert all(points[i + 1] <= points[i] for i in range(len(points) - 1))
    assert points[-1] < points[0]


@pytest.mark.benchmark(group="cpu-reduction")
def test_without_reduction(benchmark, ua741_admittance):
    circuit, spec = ua741_admittance
    result, factorizations = benchmark(lambda: _run(circuit, spec, False))
    assert result.converged
    points = [record.num_points for record in result.iterations]
    # Without Eq. 17 every interpolation uses the full point count.
    assert len(set(points)) == 1


@pytest.mark.benchmark(group="cpu-reduction")
def test_reduction_saves_total_work(benchmark):
    result = benchmark(run_cpu_reduction)
    with_points, without_points = result.total_points()
    assert with_points < without_points
    assert result.reduction_ratio() > 0.05
