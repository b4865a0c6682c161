"""Tests for the single-interpolation method (Section 2) and Eq. 17 deflation."""

import math

import numpy as np
import pytest

from repro.circuits.rc_ladder import build_rc_ladder, rc_ladder_denominator_coefficients
from repro.interpolation.basic import interpolate_network_function, interpolate_polynomial
from repro.interpolation.points import unit_circle_points
from repro.interpolation.dft import inverse_dft_scaled
from repro.interpolation.reduction import deflate_samples, deflation_point_count
from repro.interpolation.scaling import ScaleFactors
from repro.errors import InterpolationError
from repro.nodal.sampler import NetworkFunctionSampler
from repro.xfloat import XFloat


class TestBasicInterpolation:
    def test_rc_ladder_small_coefficients_exact(self):
        resistances = [1e3, 1e3]
        capacitances = [1e-9, 1e-9]
        circuit, spec = build_rc_ladder(2, resistances, capacitances)
        expected = rc_ladder_denominator_coefficients(resistances, capacitances)
        # Frequency scaling near 1/RC keeps everything in range for one shot.
        result = interpolate_network_function(
            circuit, spec, factors=ScaleFactors(frequency=1e6))
        denominator = result.denominator.coefficients()
        numerator = result.numerator.coefficients()
        scale = float(denominator[0])
        for power, value in enumerate(expected):
            assert float(denominator[power]) / scale == pytest.approx(value,
                                                                      rel=1e-9)
        # The ladder numerator is the constant 1 (times the same scale).
        assert float(numerator[0]) / scale == pytest.approx(1.0, rel=1e-9)

    def test_unscaled_interpolation_loses_high_order_coefficients(self,
                                                                  ota_circuit):
        """Reproduces the Table 1a failure mode: round-off noise."""
        circuit, spec = ota_circuit
        unscaled = interpolate_network_function(circuit, spec,
                                                factors=ScaleFactors())
        scaled = interpolate_network_function(
            circuit, spec, factors=ScaleFactors(frequency=1e9))
        assert unscaled.denominator.region.width < scaled.denominator.region.width
        # Imaginary residue of the unscaled run is comparable to the corrupted
        # real parts (the tell-tale sign the paper describes).
        residues = np.abs(unscaled.denominator.imaginary_residue())
        top = np.abs(unscaled.denominator.normalized_complex().real)[-1]
        assert residues.max() > 0.0
        assert top < 10.0**unscaled.denominator.region.threshold_log10

    def test_interpolate_polynomial_kinds(self, simple_rc):
        circuit, spec = simple_rc
        sampler = NetworkFunctionSampler(circuit, spec)
        denominator = interpolate_polynomial(sampler, "denominator",
                                             ScaleFactors(frequency=1e6))
        numerator = interpolate_polynomial(sampler, "numerator",
                                           ScaleFactors(frequency=1e6))
        assert denominator.num_points == 2
        # H = (1/RC) / (s + 1/RC) -> numerator degree 0, denominator degree 1.
        d = denominator.coefficients()
        n = numerator.coefficients()
        assert float(d[1]) / float(d[0]) == pytest.approx(1e3 * 1e-9, rel=1e-9)
        assert float(n[0]) / float(d[0]) == pytest.approx(1.0, rel=1e-9)
        with pytest.raises(InterpolationError):
            interpolate_polynomial(sampler, "both")

    def test_valid_coefficients_mapping(self, simple_rc):
        circuit, spec = simple_rc
        sampler = NetworkFunctionSampler(circuit, spec)
        result = interpolate_polynomial(sampler, "denominator",
                                        ScaleFactors(frequency=1e6))
        valid = result.valid_coefficients()
        assert set(valid) == set(result.valid_indices()) == {0, 1}

    def test_transfer_at_matches_direct(self, simple_rc):
        circuit, spec = simple_rc
        result = interpolate_network_function(circuit, spec,
                                              factors=ScaleFactors(frequency=1e6))
        sampler = NetworkFunctionSampler(circuit, spec)
        s = 2j * math.pi * 5e4
        assert result.transfer_at(s) == pytest.approx(sampler.transfer_value(s),
                                                      rel=1e-9)


class TestDeflation:
    def test_point_count(self):
        assert deflation_point_count(5, 9) == 5
        with pytest.raises(InterpolationError):
            deflation_point_count(5, 4)

    def test_deflation_recovers_middle_coefficients(self):
        """Synthetic polynomial: knowing p0 and p4 lets 3 points find p1..p3."""
        coefficients = [2.0, -1.5, 0.25, 3.0, -0.5]
        known = {0: XFloat(2.0, 0), 4: XFloat(-0.5, 0)}
        factors = ScaleFactors()
        points = unit_circle_points(3)
        samples = []
        for point in points:
            value = sum(c * point**i for i, c in enumerate(coefficients))
            samples.append((value, 0))
        deflated = deflate_samples(samples, points, known, first_unknown=1,
                                   factors=factors, admittance_order=4)
        values, exponent = inverse_dft_scaled(deflated)
        recovered = values.real * 10.0**exponent
        np.testing.assert_allclose(recovered, coefficients[1:4], atol=1e-12)

    def test_deflation_requires_prefix_known(self):
        points = unit_circle_points(2)
        samples = [(1.0, 0)] * 2
        with pytest.raises(InterpolationError):
            deflate_samples(samples, points, {}, first_unknown=1,
                            factors=ScaleFactors(), admittance_order=3)

    def test_deflation_requires_unit_circle(self):
        with pytest.raises(InterpolationError):
            deflate_samples([(1.0, 0)], [2.0 + 0.0j], {0: XFloat(1.0, 0)},
                            first_unknown=1, factors=ScaleFactors(),
                            admittance_order=2)

    def test_deflation_length_mismatch(self):
        with pytest.raises(InterpolationError):
            deflate_samples([(1.0, 0)], unit_circle_points(2), {},
                            first_unknown=0, factors=ScaleFactors(),
                            admittance_order=2)

    def test_deflation_with_extended_range_knowns(self):
        """Known coefficients far outside double range are subtracted in log space."""
        factors = ScaleFactors(frequency=1e10, conductance=1e5)
        order = 3
        # True coefficients: p0 huge-normalized, p1 unknown target, p2 = 0, p3 = 0.
        p0 = XFloat(4.0, -100)
        p1_true = XFloat(1.0, -112)
        points = unit_circle_points(1)
        # Build the scaled sample directly from the normalized values.
        from repro.interpolation.scaling import normalize_coefficient

        n0 = normalize_coefficient(p0, 0, order, factors)
        n1 = normalize_coefficient(p1_true, 1, order, factors)
        sample_value = n0.mantissa * 10.0**(n0.exponent - n1.exponent) + n1.mantissa
        samples = [(sample_value, n1.exponent)]
        deflated = deflate_samples(samples, points, {0: p0}, first_unknown=1,
                                   factors=factors, admittance_order=order)
        values, exponent = inverse_dft_scaled(deflated)
        recovered_log = math.log10(abs(values[0].real)) + exponent
        assert recovered_log == pytest.approx(n1.log10(), abs=1e-6)
