"""Tests for interpolation points, DFT, polynomials and rational functions."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import InterpolationError
from repro.interpolation.dft import inverse_dft, inverse_dft_direct, inverse_dft_scaled
from repro.interpolation.points import circle_points, minimum_point_count, unit_circle_points
from repro.interpolation.polynomial import Polynomial
from repro.interpolation.rational import RationalFunction
from repro.xfloat import XFloat


class TestPoints:
    def test_unit_circle(self):
        points = unit_circle_points(8)
        assert len(points) == 8
        assert points[0] == pytest.approx(1.0)
        for point in points:
            assert abs(point) == pytest.approx(1.0)
        assert points[2] == pytest.approx(1j)

    def test_radius(self):
        points = circle_points(4, radius=2.5)
        assert all(abs(p) == pytest.approx(2.5) for p in points)

    def test_invalid(self):
        with pytest.raises(InterpolationError):
            unit_circle_points(0)
        with pytest.raises(InterpolationError):
            circle_points(4, radius=-1.0)
        with pytest.raises(InterpolationError):
            minimum_point_count(-1)

    def test_minimum_point_count(self):
        assert minimum_point_count(9) == 10


class TestInverseDFT:
    def test_recovers_polynomial_coefficients(self):
        coefficients = np.array([1.0, -2.0, 0.5, 3.0, 0.0])
        points = unit_circle_points(len(coefficients))
        samples = [sum(c * point**i for i, c in enumerate(coefficients))
                   for point in points]
        recovered = inverse_dft(samples)
        np.testing.assert_allclose(recovered.real, coefficients, atol=1e-12)
        np.testing.assert_allclose(recovered.imag, 0.0, atol=1e-12)

    def test_fft_matches_direct(self):
        rng = np.random.default_rng(0)
        samples = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        np.testing.assert_allclose(inverse_dft(samples),
                                   inverse_dft_direct(samples), atol=1e-10)

    def test_invalid_inputs(self):
        with pytest.raises(InterpolationError):
            inverse_dft([])

    def test_scaled_variant_tracks_common_exponent(self):
        coefficients = [2.0, 4.0]
        points = unit_circle_points(2)
        samples = []
        for point in points:
            value = coefficients[0] + coefficients[1] * point
            samples.append((value, -400))   # far below double underflow
        values, exponent = inverse_dft_scaled(samples)
        assert exponent == -400
        np.testing.assert_allclose(values.real, coefficients, atol=1e-12)

    def test_scaled_variant_all_zero(self):
        values, exponent = inverse_dft_scaled([(0.0, 0), (0.0, 0)])
        assert exponent == 0
        np.testing.assert_allclose(values, 0.0)

    def test_scaled_variant_matches_per_sample_rescaling(self):
        # The vectorized rescaling must be bit-identical to the per-sample
        # reference: shift each mantissa by scalar-pow powers of ten relative
        # to the batch's largest exponent, flushing shifts below -300.
        rng = np.random.default_rng(42)
        for __ in range(25):
            count = int(rng.integers(1, 24))
            mantissas = rng.standard_normal(count) + 1j * rng.standard_normal(count)
            mantissas[rng.random(count) < 0.25] = 0.0
            exponents = rng.integers(-500, 500, size=count)
            pairs = [(complex(m), int(e))
                     for m, e in zip(mantissas, exponents)]
            nonzero = [e for m, e in pairs if m != 0]
            if not nonzero:
                continue
            common = max(nonzero)
            rescaled = np.zeros(count, dtype=complex)
            for index, (mantissa, exponent) in enumerate(pairs):
                if mantissa == 0 or exponent - common < -300:
                    continue
                rescaled[index] = mantissa * 10.0**(exponent - common)
            values, tracked = inverse_dft_scaled(pairs)
            assert tracked == common
            assert np.array_equal(values, inverse_dft(rescaled))

    @given(st.lists(st.floats(min_value=-100, max_value=100), min_size=1,
                    max_size=12))
    @settings(max_examples=100, deadline=None)
    def test_property_roundtrip(self, coefficients):
        points = unit_circle_points(len(coefficients))
        samples = [sum(c * point**i for i, c in enumerate(coefficients))
                   for point in points]
        recovered = inverse_dft(samples)
        np.testing.assert_allclose(recovered.real, coefficients,
                                   atol=1e-9 * max(1.0, max(abs(c) for c in coefficients)))


class TestPolynomial:
    def test_basic_container(self):
        poly = Polynomial([1.0, 0.0, 3.0])
        assert len(poly) == 3
        assert poly.degree == 2
        assert float(poly[2]) == 3.0
        assert float(poly.coefficient(10)) == 0.0
        with pytest.raises(InterpolationError):
            poly.coefficient(-1)

    def test_degree_ignores_trailing_zeros(self):
        poly = Polynomial([1.0, 2.0, 0.0, 0.0])
        assert poly.degree == 1
        assert len(poly.trimmed()) == 2
        assert Polynomial([0.0]).is_zero()

    def test_evaluate_matches_numpy_for_moderate_coefficients(self):
        coefficients = [1.0, -3.0, 2.5, 0.75]
        poly = Polynomial(coefficients)
        for s in (0.0, 1.0, -2.0, 1j, 2.0 + 3.0j):
            expected = np.polyval(coefficients[::-1], s)
            assert poly.evaluate_complex(s) == pytest.approx(expected, rel=1e-12)

    def test_evaluate_extended_range(self):
        # Coefficients spanning 300 decades with s large: must not overflow.
        poly = Polynomial([XFloat(1.0, -100), XFloat(1.0, -400)])
        mantissa, exponent = poly.evaluate(1e9)
        # term0 = 1e-100, term1 = 1e-400*1e9 = 1e-391 -> dominated by term0
        assert exponent == -100
        assert mantissa.real == pytest.approx(1.0)

    def test_evaluate_at_zero(self):
        poly = Polynomial([XFloat(2.0, -500), XFloat(1.0, 0)])
        mantissa, exponent = poly.evaluate(0.0)
        assert exponent == -500
        assert mantissa.real == pytest.approx(2.0)
        assert Polynomial([0.0, 1.0]).evaluate(0.0) == (0.0, 0)

    def test_algebra(self):
        a = Polynomial([1.0, 2.0])
        b = Polynomial([0.0, 1.0, 4.0])
        total = a + b
        assert [float(c) for c in total] == pytest.approx([1.0, 3.0, 4.0])
        difference = b - a
        assert [float(c) for c in difference] == pytest.approx([-1.0, -1.0, 4.0])
        negated = -a
        assert float(negated[0]) == -1.0

    def test_scaling_operations(self):
        poly = Polynomial([1.0, 2.0, 3.0])
        scaled = poly.scaled(2.0)
        assert [float(c) for c in scaled] == pytest.approx([2.0, 4.0, 6.0])
        variable = poly.variable_scaled(10.0)
        assert [float(c) for c in variable] == pytest.approx([1.0, 20.0, 300.0])

    def test_derivative(self):
        poly = Polynomial([5.0, 3.0, 2.0])
        assert [float(c) for c in poly.derivative()] == pytest.approx([3.0, 4.0])
        assert Polynomial([1.0]).derivative().is_zero()

    def test_max_relative_coefficient_error(self):
        a = Polynomial([1.0, 2.0, 1e-30])
        b = Polynomial([1.0, 2.002, 0.0])
        assert a.max_relative_coefficient_error(b) == pytest.approx(1.0, rel=0.1)
        assert a.max_relative_coefficient_error(
            b, ignore_below=XFloat(1.0, -10)) == pytest.approx(1e-3, rel=0.1)

    def test_log10_magnitude(self):
        poly = Polynomial([XFloat(1.0, -250)])
        assert poly.log10_magnitude(123.0) == pytest.approx(-250)
        assert Polynomial([0.0]).log10_magnitude(1.0) == -math.inf


class TestRationalFunction:
    def test_simple_lowpass(self):
        # H(s) = 1 / (1 + s/w0)
        w0 = 2 * math.pi * 1e3
        h = RationalFunction([1.0], [1.0, 1.0 / w0])
        assert h.dc_gain() == pytest.approx(1.0)
        assert abs(h.evaluate(1j * w0)) == pytest.approx(1 / math.sqrt(2))
        magnitude, phase = h.bode([1e3])
        assert magnitude[0] == pytest.approx(-3.0103, abs=0.01)
        assert phase[0] == pytest.approx(-45.0, abs=0.1)

    def test_zero_denominator_rejected(self):
        with pytest.raises(InterpolationError):
            RationalFunction([1.0], [0.0])

    def test_extended_range_coefficients(self):
        # Both polynomials far below double range; their ratio is ordinary.
        numerator = Polynomial([XFloat(5.0, -400)])
        denominator = Polynomial([XFloat(1.0, -400), XFloat(1.0, -405)])
        h = RationalFunction(numerator, denominator)
        assert h.dc_gain() == pytest.approx(5.0)
        assert abs(h.evaluate(1j * 1e5)) == pytest.approx(5.0 / abs(1 + 1j), rel=1e-9)

    def test_unity_gain_frequency(self):
        w0 = 2 * math.pi * 1e4
        h = RationalFunction([100.0], [1.0, 1.0 / w0])
        crossover = h.unity_gain_frequency(f_min=1.0, f_max=1e9)
        assert crossover == pytest.approx(1e6, rel=0.05)

    def test_callable_and_degree(self):
        h = RationalFunction([1.0, 1.0], [1.0, 2.0, 3.0])
        assert h.degree == (1, 2)
        assert h(0.0) == pytest.approx(1.0)
