"""Tests for the adaptive scaling algorithm and the reference generation API."""

import math

import numpy as np
import pytest

from repro.circuits.rc_ladder import build_rc_ladder, rc_ladder_denominator_coefficients
from repro.errors import InterpolationError
from repro.interpolation.adaptive import (
    AdaptiveOptions,
    AdaptiveScalingInterpolator,
)
from repro.interpolation.reference import generate_reference
from repro.netlist.transform import to_admittance_form
from repro.nodal.sampler import NetworkFunctionSampler


def wide_spread_ladder(stages=14):
    """RC ladder whose element spread forces several interpolations."""
    resistances = [1e3 * (10.0 ** (i % 4)) for i in range(stages)]
    capacitances = [1e-9 / (10.0 ** (i % 5)) for i in range(stages)]
    return build_rc_ladder(stages, resistances, capacitances), resistances, capacitances


class TestAdaptiveOnLadders:
    def test_coefficients_match_analytic_recursion(self):
        (circuit, spec), resistances, capacitances = wide_spread_ladder(14)
        expected = rc_ladder_denominator_coefficients(resistances, capacitances)
        sampler = NetworkFunctionSampler(to_admittance_form(circuit), spec)
        result = AdaptiveScalingInterpolator(sampler, "denominator").run()
        assert result.converged
        scale = float(result.coefficients[0])
        for power, value in enumerate(expected):
            got = result.coefficients[power]
            assert not got.is_zero()
            assert float(got) / scale == pytest.approx(value, rel=1e-4)

    def test_multiple_interpolations_needed_for_wide_spread(self):
        (circuit, spec), __, __c = wide_spread_ladder(14)
        sampler = NetworkFunctionSampler(to_admittance_form(circuit), spec)
        result = AdaptiveScalingInterpolator(sampler, "denominator").run()
        assert result.iteration_count() >= 2
        # Regions of successive iterations must be distinct (they move).
        regions = {(r.region_start, r.region_end) for r in result.iterations
                   if r.region_start is not None}
        assert len(regions) >= 2

    def test_deflation_and_no_deflation_agree(self):
        (circuit, spec), __, __c = wide_spread_ladder(12)
        admittance = to_admittance_form(circuit)

        def run(deflation):
            sampler = NetworkFunctionSampler(admittance, spec)
            options = AdaptiveOptions(deflation=deflation)
            return AdaptiveScalingInterpolator(sampler, "denominator",
                                               options).run()

        with_deflation = run(True)
        without_deflation = run(False)
        assert with_deflation.converged and without_deflation.converged
        for a, b in zip(with_deflation.coefficients,
                        without_deflation.coefficients):
            if a.is_zero() or b.is_zero():
                assert a.is_zero() == b.is_zero()
                continue
            assert a.log10() == pytest.approx(b.log10(), abs=1e-4)
            assert a.sign() == b.sign()

    def test_single_scale_option_still_converges(self):
        (circuit, spec), __, __c = wide_spread_ladder(10)
        sampler = NetworkFunctionSampler(to_admittance_form(circuit), spec)
        options = AdaptiveOptions(single_scale=True)
        result = AdaptiveScalingInterpolator(sampler, "denominator", options).run()
        assert result.converged

    def test_status_and_summary(self):
        (circuit, spec), __, __c = wide_spread_ladder(8)
        sampler = NetworkFunctionSampler(to_admittance_form(circuit), spec)
        result = AdaptiveScalingInterpolator(sampler, "denominator").run()
        assert len(result.status) == result.degree_bound + 1
        assert result.valid_count() + result.negligible_count() == len(result.status)
        assert "denominator" in result.summary()
        assert result.coefficient(-1).is_zero()
        assert result.coefficient(result.degree_bound + 5).is_zero()

    def test_invalid_kind_rejected(self, simple_rc):
        circuit, spec = simple_rc
        sampler = NetworkFunctionSampler(circuit, spec)
        with pytest.raises(InterpolationError):
            AdaptiveScalingInterpolator(sampler, kind="both")

    def test_explicit_num_points_override(self, simple_rc):
        circuit, spec = simple_rc
        sampler = NetworkFunctionSampler(circuit, spec)
        options = AdaptiveOptions(num_points=2)
        result = AdaptiveScalingInterpolator(sampler, "denominator", options).run()
        assert result.degree_bound == 1
        assert result.converged


class TestUa741Adaptive:
    def test_denominator_converges_with_multiple_regions(self, ua741_circuit):
        circuit, spec = ua741_circuit
        sampler = NetworkFunctionSampler(to_admittance_form(circuit), spec)
        result = AdaptiveScalingInterpolator(sampler, "denominator").run()
        assert result.converged
        assert result.degree_bound >= 30
        assert result.iteration_count() >= 3
        # Coefficients must decay monotonically in magnitude over most of the
        # range (each extra power of s trades a conductance for a capacitance).
        logs = [c.log10() for c in result.coefficients if not c.is_zero()]
        drops = [logs[i + 1] - logs[i] for i in range(len(logs) - 1)]
        assert np.median(drops) < -5.0

    def test_denormalized_spread_exceeds_double_range(self, ua741_circuit):
        circuit, spec = ua741_circuit
        sampler = NetworkFunctionSampler(to_admittance_form(circuit), spec)
        result = AdaptiveScalingInterpolator(sampler, "denominator").run()
        logs = [c.log10() for c in result.coefficients if not c.is_zero()]
        assert max(logs) - min(logs) > 308.0


class TestGenerateReference:
    def test_reference_matches_direct_ac(self, miller_circuit,
                                         frequencies_decade):
        circuit, spec = miller_circuit
        reference = generate_reference(circuit, spec)
        assert reference.converged
        sampler = NetworkFunctionSampler(to_admittance_form(circuit), spec)
        interpolated = reference.frequency_response(frequencies_decade)
        direct = np.array([sampler.transfer_value(2j * math.pi * f)
                           for f in frequencies_decade])
        np.testing.assert_allclose(interpolated, direct, rtol=1e-3)

    def test_reference_accessors(self, miller_circuit):
        circuit, spec = miller_circuit
        reference = generate_reference(circuit, spec)
        assert reference.coefficient("denominator", 0) == \
            reference.coefficient("d", 0)
        assert reference.coefficient_magnitude("denominator", 0) == \
            pytest.approx(reference.coefficient("denominator", 0).log10())
        with pytest.raises(Exception):
            reference.coefficient("zzz", 0)
        assert reference.iteration_count() >= 2
        assert "numerical reference" in reference.summary()

    def test_bode_output_shapes(self, miller_circuit, frequencies_decade):
        circuit, spec = miller_circuit
        reference = generate_reference(circuit, spec)
        magnitude, phase = reference.bode(frequencies_decade)
        assert magnitude.shape == frequencies_decade.shape
        assert phase.shape == frequencies_decade.shape

    def test_rc_reference_dc_gain(self, simple_rc):
        circuit, spec = simple_rc
        reference = generate_reference(circuit, spec)
        assert abs(reference.transfer_function().dc_gain()) == pytest.approx(
            1.0, rel=1e-6)

    def test_ota_reference_matches_ac(self, ota_circuit):
        circuit, spec = ota_circuit
        reference = generate_reference(circuit, spec)
        sampler = NetworkFunctionSampler(to_admittance_form(circuit), spec)
        for frequency in (1e2, 1e5, 1e8):
            s = 2j * math.pi * frequency
            assert reference.transfer_function().evaluate(s) == pytest.approx(
                sampler.transfer_value(s), rel=1e-3)
