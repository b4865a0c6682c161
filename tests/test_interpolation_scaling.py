"""Tests for scale factors, valid regions and the Eq. 11-16 bookkeeping."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import InterpolationError
from repro.interpolation.regions import (
    coefficient_log10,
    error_level,
    find_valid_region,
)
from repro.interpolation.scaling import (
    MACHINE_DIGITS,
    ScaleFactors,
    backward_update,
    denormalize_coefficients,
    forward_update,
    gap_update,
    initial_scale_factors,
    normalize_coefficient,
)
from repro.xfloat import XFloat


class TestScaleFactors:
    def test_defaults_and_properties(self):
        factors = ScaleFactors()
        assert factors.frequency == 1.0
        assert factors.conductance == 1.0
        assert factors.per_power_ratio == 1.0
        factors = ScaleFactors(1e9, 1e3)
        assert factors.log10_frequency == pytest.approx(9.0)
        assert factors.log10_conductance == pytest.approx(3.0)
        assert factors.max_factor() == pytest.approx(1e9)

    def test_positive_required(self):
        with pytest.raises(InterpolationError):
            ScaleFactors(frequency=-1.0)
        with pytest.raises(InterpolationError):
            ScaleFactors(conductance=0.0)

    def test_with_ratio_applied_splits_evenly(self):
        factors = ScaleFactors(1e6, 1e2).with_ratio_applied(1e4)
        assert factors.frequency == pytest.approx(1e8)
        assert factors.conductance == pytest.approx(1.0)
        # The per-power ratio grew by exactly q.
        assert factors.per_power_ratio == pytest.approx(1e8)
        with pytest.raises(InterpolationError):
            ScaleFactors().with_ratio_applied(-2.0)

    def test_initial_scale_heuristic(self, simple_rc):
        circuit, __ = simple_rc
        factors = initial_scale_factors(circuit)
        assert factors.frequency == pytest.approx(1.0 / 1e-9)
        assert factors.conductance == pytest.approx(1.0 / 1e-3)

    def test_initial_scale_without_caps(self):
        from repro.netlist.circuit import Circuit

        circuit = Circuit("r-only")
        circuit.add_resistor("R1", "a", "0", 1e3)
        factors = initial_scale_factors(circuit)
        assert factors.frequency == 1.0


class TestNormalization:
    def test_normalize_denormalize_roundtrip(self):
        factors = ScaleFactors(frequency=1e10, conductance=1e4)
        original = XFloat(-3.3, -150)
        normalized = normalize_coefficient(original, power=7,
                                           admittance_order=40, factors=factors)
        values = np.array([complex(normalized.mantissa)], dtype=complex)
        recovered = denormalize_coefficients(values, normalized.exponent,
                                             factors, 40)
        # power index 0 in the array corresponds to power 0; redo with aligned
        # arrays instead:
        expected_log = original.log10()
        assert normalized.log10() == pytest.approx(
            expected_log + 7 * 10 + (40 - 7) * 4)

    def test_denormalize_array(self):
        factors = ScaleFactors(frequency=1e9, conductance=1e3)
        # p'_i = p_i * f^i * g^(M-i) with M = 2; choose p = [1, 1, 1]
        normalized = [1e3 * 1e3, 1e9 * 1e3, 1e18]
        values = np.array(normalized, dtype=complex) / 1e6
        coefficients = denormalize_coefficients(values, 6, factors, 2)
        for coefficient in coefficients:
            assert coefficient.log10() == pytest.approx(0.0, abs=1e-9)

    def test_denormalize_preserves_sign_and_zero(self):
        factors = ScaleFactors()
        values = np.array([1.0, -2.0, 0.0], dtype=complex)
        coefficients = denormalize_coefficients(values, 0, factors, 2)
        assert coefficients[0].sign() == 1.0
        assert coefficients[1].sign() == -1.0
        assert coefficients[2].is_zero()

    @given(st.integers(min_value=0, max_value=50),
           st.integers(min_value=1, max_value=60),
           st.floats(min_value=-200, max_value=200),
           st.floats(min_value=0.1, max_value=15.0),
           st.floats(min_value=-3.0, max_value=9.0))
    @settings(max_examples=150, deadline=None)
    def test_property_roundtrip(self, power, order, log_value, log_f, log_g):
        if power > order:
            power = order
        factors = ScaleFactors(10.0**log_f, 10.0**log_g)
        original = XFloat.from_log10(log_value, 1.0)
        normalized = normalize_coefficient(original, power, order, factors)
        # Build a one-entry array located at index `power`.
        values = np.zeros(power + 1, dtype=complex)
        values[power] = normalized.mantissa
        recovered = denormalize_coefficients(values, normalized.exponent,
                                             factors, order)[power]
        assert recovered.log10() == pytest.approx(original.log10(), abs=1e-6)


class TestUpdates:
    def test_forward_update_places_last_at_top(self):
        factors = ScaleFactors(1e10, 1e4)
        # last valid at index 12 with log10 -5, max at index 3 with log10 0.
        updated, q = forward_update(factors, 12, -5.0, 3, 0.0, tuning_r=0.0)
        # Solve: q^(12-3) = 10^(13 + 0 - (-5)) => q = 10^2
        assert math.log10(q) == pytest.approx(2.0)
        assert updated.per_power_ratio == pytest.approx(
            factors.per_power_ratio * q)

    def test_forward_update_degenerate_region(self):
        factors = ScaleFactors()
        updated, q = forward_update(factors, 5, 0.0, 5, 0.0)
        assert q == pytest.approx(10.0**MACHINE_DIGITS)

    def test_backward_update_gives_q_below_one(self):
        factors = ScaleFactors(1e10, 1e4)
        updated, q = backward_update(factors, 13, -4.0, 20, 0.0, tuning_r=0.0)
        # q^(13-20) = 10^(13+4) => log10 q = -17/7
        assert math.log10(q) == pytest.approx(-17.0 / 7.0)
        assert q < 1.0
        assert updated.per_power_ratio < factors.per_power_ratio

    def test_gap_update_geometric_mean(self):
        low = ScaleFactors(1e8, 1e4)
        high = ScaleFactors(1e12, 1e2)
        mid = gap_update(low, high)
        assert mid.frequency == pytest.approx(1e10)
        assert mid.conductance == pytest.approx(1e3)

    def test_tuning_r_increases_step(self):
        factors = ScaleFactors()
        __, q0 = forward_update(factors, 10, -6.0, 2, 0.0, tuning_r=0.0)
        __, q3 = forward_update(factors, 10, -6.0, 2, 0.0, tuning_r=3.0)
        assert q3 > q0


class TestRegions:
    def test_coefficient_log10(self):
        logs = coefficient_log10([1.0, 10.0, 0.0], common_exponent=2)
        assert logs[0] == pytest.approx(2.0)
        assert logs[1] == pytest.approx(3.0)
        assert logs[2] == -math.inf

    def test_error_level(self):
        assert error_level([1.0, 1e3]) == pytest.approx(3.0 - MACHINE_DIGITS)

    def test_find_valid_region_basic(self):
        # Coefficients decaying by 1e-4 per power: with sigma=6 the threshold
        # is max*1e-7, so only the first two powers qualify as a contiguous
        # region around the maximum at index 0.
        values = np.array([1.0, 1e-4, 1e-8, 1e-12])
        region = find_valid_region(values, significant_digits=6)
        assert region.max_index == 0
        assert (region.start, region.end) == (0, 1)
        assert region.indices == [0, 1]
        assert region.width == 2
        assert region.contains(1)
        assert not region.contains(2)
        assert region.threshold_log10 == pytest.approx(-7.0)
        assert region.error_level_log10 == pytest.approx(-13.0)
        assert region.mask == [True, True, False, False]

    def test_region_is_contiguous_around_max(self):
        values = np.array([1e-20, 1e-3, 1.0, 1e-2, 1e-30, 1e-5])
        region = find_valid_region(values, significant_digits=6)
        assert region.max_index == 2
        assert (region.start, region.end) == (1, 3)
        # index 5 is above the threshold but separated by index 4: not in the
        # contiguous region, still flagged in the mask.
        assert region.mask[5] is True or region.mask[5] == True  # noqa: E712
        assert not region.contains(5)

    def test_all_zero_raises(self):
        with pytest.raises(InterpolationError):
            find_valid_region(np.zeros(4))

    def test_sigma_validation(self):
        with pytest.raises(InterpolationError):
            find_valid_region(np.ones(3), significant_digits=0)
        with pytest.raises(InterpolationError):
            find_valid_region(np.ones(3), significant_digits=13)

    def test_higher_sigma_narrows_region(self):
        values = np.array([1.0, 1e-5, 1e-9])
        wide = find_valid_region(values, significant_digits=2)
        narrow = find_valid_region(values, significant_digits=6)
        assert wide.width >= narrow.width
