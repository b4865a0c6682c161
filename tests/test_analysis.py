"""Tests for the numeric AC analysis, Bode utilities, comparison and poles."""

import math

import numpy as np
import pytest

from repro.analysis.ac import ACAnalysis, ac_sweep
from repro.analysis.bode import (
    bode_from_response,
    gain_margin_db,
    phase_margin_deg,
    unity_gain_crossover,
)
from repro.analysis.compare import compare_responses
from repro.analysis.poles import polynomial_roots, reference_poles_zeros
from repro.analysis.sensitivity import element_sensitivities
from repro.interpolation.reference import generate_reference
from repro.netlist.circuit import Circuit
from repro.xfloat import XFloat


class TestACAnalysis:
    def test_rc_pole(self, simple_rc):
        circuit, spec = simple_rc
        analysis = ACAnalysis(circuit, spec)
        pole = 1.0 / (2 * math.pi * 1e3 * 1e-9)
        assert abs(analysis.value_at(2j * math.pi * pole)) == pytest.approx(
            1 / math.sqrt(2), rel=1e-9)
        assert analysis.factorization_count == 1

    def test_frequency_response_and_sweep(self, simple_rc, frequencies_decade):
        circuit, spec = simple_rc
        response = ACAnalysis(circuit, spec).frequency_response(frequencies_decade)
        assert response.shape == frequencies_decade.shape
        sweep = ac_sweep(circuit, "out", frequencies_decade)
        np.testing.assert_allclose(sweep, response)

    def test_differential_output(self):
        circuit = Circuit("diff")
        circuit.add_voltage_source("vin", "in", "0", 1.0)
        circuit.add_resistor("R1", "in", "a", 1e3)
        circuit.add_resistor("R2", "a", "0", 1e3)
        value = ACAnalysis(circuit, ("in", "a")).value_at(0.0)
        assert value == pytest.approx(0.5)

    def test_bode_output(self, simple_rc):
        circuit, spec = simple_rc
        frequencies = np.logspace(3, 7, 17)
        magnitude, phase = ACAnalysis(circuit, spec).bode(frequencies)
        assert magnitude[0] == pytest.approx(0.0, abs=0.1)
        assert magnitude[-1] < -30.0
        assert phase[-1] == pytest.approx(-90.0, abs=2.0)


class TestBodeUtilities:
    def make_single_pole(self, gain=1000.0, pole_hz=1e3):
        frequencies = np.logspace(0, 8, 200)
        response = gain / (1 + 1j * frequencies / pole_hz)
        return bode_from_response(frequencies, response)

    def test_bode_data_interpolation(self):
        data = self.make_single_pole()
        magnitude, phase = data.at(1e3)
        assert magnitude == pytest.approx(20 * math.log10(1000) - 3.01, abs=0.1)
        assert phase == pytest.approx(-45.0, abs=1.0)

    def test_unity_gain_crossover_and_phase_margin(self):
        data = self.make_single_pole(gain=1000.0, pole_hz=1e3)
        crossover = unity_gain_crossover(data)
        assert crossover == pytest.approx(1e6, rel=0.05)
        margin = phase_margin_deg(data)
        assert margin == pytest.approx(90.0, abs=2.0)

    def test_no_crossover(self):
        frequencies = np.logspace(0, 6, 50)
        response = 0.5 * np.ones_like(frequencies) * (1 + 0j)
        data = bode_from_response(frequencies, response)
        assert unity_gain_crossover(data) is None
        assert phase_margin_deg(data) is None

    def test_gain_margin(self):
        # Two-pole response crosses -180° only asymptotically; use three poles.
        frequencies = np.logspace(0, 8, 400)
        pole = 1e3
        response = 100.0 / (1 + 1j * frequencies / pole) ** 3
        data = bode_from_response(frequencies, response)
        margin = gain_margin_db(data)
        assert margin is not None
        # At the -180° frequency (sqrt(3) decades above the pole) the gain is
        # 100/8 = 22 dB -> the gain margin is about -22 dB (unstable if closed).
        assert margin == pytest.approx(-20 * math.log10(100.0 / 8.0), abs=1.5)


class TestCompare:
    def test_identical_responses(self, frequencies_decade):
        response = 1.0 / (1 + 1j * frequencies_decade / 1e4)
        comparison = compare_responses(frequencies_decade, response, response)
        assert comparison.max_magnitude_error_db == pytest.approx(0.0, abs=1e-12)
        assert comparison.max_phase_error_deg == pytest.approx(0.0, abs=1e-12)
        assert comparison.matches()

    def test_known_gain_offset(self, frequencies_decade):
        reference = 1.0 / (1 + 1j * frequencies_decade / 1e4)
        candidate = reference * 2.0
        comparison = compare_responses(frequencies_decade, reference, candidate)
        assert comparison.max_magnitude_error_db == pytest.approx(6.02, abs=0.1)
        assert not comparison.matches()
        assert "dB" in comparison.summary()

    def test_shape_mismatch(self, frequencies_decade):
        with pytest.raises(ValueError):
            compare_responses(frequencies_decade, np.ones(3), np.ones(4))

    def test_zero_baseline_sample_stays_finite(self, frequencies_decade):
        # Regression: the relative error used to divide by the (tiny-floored)
        # reference alone, so a reference passing exactly through zero blew
        # the metric up to ~1/tiny.  With the symmetric max(|a|, |b|, floor)
        # denominator the worst sample-wise relative error is bounded by 1.
        reference = np.ones(len(frequencies_decade), dtype=complex)
        reference[3] = 0.0
        candidate = reference.copy()
        candidate[3] = 1e-3
        comparison = compare_responses(frequencies_decade, reference,
                                       candidate)
        assert np.isfinite(comparison.max_relative_error)
        assert comparison.max_relative_error == pytest.approx(1.0)

    def test_both_zero_samples_count_as_equal(self, frequencies_decade):
        reference = np.ones(len(frequencies_decade), dtype=complex)
        reference[5] = 0.0
        comparison = compare_responses(frequencies_decade, reference,
                                       reference.copy())
        assert comparison.max_relative_error == 0.0


class TestPoles:
    def test_polynomial_roots_simple(self):
        # (s + 10)(s + 1000) = 10000 + 1010 s + s^2
        roots = polynomial_roots([10000.0, 1010.0, 1.0])
        assert sorted(np.real(roots)) == pytest.approx([-1000.0, -10.0], rel=1e-6)

    def test_polynomial_roots_extended_range(self):
        # Coefficients straddling the double-precision range: roots at -1e3, -1e6.
        coefficients = [XFloat(1.0, -400),
                        XFloat(1.001, -403),
                        XFloat(1.0, -409)]
        roots = polynomial_roots(coefficients)
        magnitudes = sorted(abs(root) for root in roots)
        assert magnitudes[0] == pytest.approx(1e3, rel=1e-3)
        assert magnitudes[1] == pytest.approx(1e6, rel=1e-3)

    def test_zero_polynomial_rejected(self):
        with pytest.raises(Exception):
            polynomial_roots([0.0, 0.0])

    def test_leading_zero_coefficients_give_zero_roots(self):
        roots = polynomial_roots([0.0, 0.0, 1.0, 1.0])
        assert sum(1 for root in roots if root == 0) == 2

    def test_reference_poles_of_rc(self, simple_rc):
        circuit, spec = simple_rc
        reference = generate_reference(circuit, spec)
        poles, zeros = reference_poles_zeros(reference)
        assert len(poles) == 1
        assert poles[0].real == pytest.approx(-1.0 / (1e3 * 1e-9), rel=1e-6)


class TestSensitivity:
    def test_ranking_identifies_negligible_element(self):
        circuit = Circuit("rank")
        circuit.add_voltage_source("vin", "in", "0", 1.0)
        circuit.add_resistor("Rbig", "in", "out", 1e3)
        circuit.add_resistor("Rload", "out", "0", 1e3)
        # A tiny capacitor whose influence in the audio band is negligible.
        circuit.add_capacitor("Ctiny", "out", "0", 1e-18)
        frequencies = np.logspace(1, 5, 9)
        influences = element_sensitivities(circuit, "out", frequencies)
        names = [influence.name for influence in influences]
        assert names[0] == "Ctiny"
        tiny = influences[0]
        assert tiny.negligible(1e-6)
        essential = [i for i in influences if i.name == "Rload"][0]
        assert essential.removal_error > 0.1
