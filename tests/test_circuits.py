"""Tests for the circuit library builders."""

import math

import pytest

from repro.analysis.ac import ACAnalysis
from repro.circuits.cascode import build_cascode_amplifier
from repro.circuits.filters import build_sallen_key_lowpass, build_tow_thomas_biquad
from repro.circuits.miller_ota import build_miller_ota
from repro.circuits.ota import build_positive_feedback_ota
from repro.circuits.rc_ladder import build_rc_ladder, rc_ladder_denominator_coefficients
from repro.circuits.ua741 import build_ua741
from repro.errors import NetlistError
from repro.netlist.transform import to_admittance_form
from repro.netlist.validate import validate_circuit
from repro.nodal.admittance import build_nodal_formulation
from repro.nodal.sampler import NetworkFunctionSampler


class TestRcLadder:
    def test_structure(self):
        circuit, spec = build_rc_ladder(4)
        assert len(circuit.elements_of_type(type(circuit["R1"]))) == 4
        assert spec.output == "n4"
        assert validate_circuit(circuit).ok

    def test_scalar_and_list_values(self):
        circuit, __ = build_rc_ladder(3, resistances=2e3, capacitances=[1e-9] * 3)
        assert circuit["R2"].value == pytest.approx(2e3)

    def test_invalid_arguments(self):
        with pytest.raises(NetlistError):
            build_rc_ladder(0)
        with pytest.raises(NetlistError):
            build_rc_ladder(3, resistances=[1e3, 1e3])

    def test_denominator_recursion_against_known_forms(self):
        # 1 stage: 1 + sRC
        assert rc_ladder_denominator_coefficients([1e3], [1e-9]) == pytest.approx(
            [1.0, 1e-6])
        # 2 equal stages: 1 + 3 sRC + (sRC)^2
        coefficients = rc_ladder_denominator_coefficients([1e3, 1e3],
                                                          [1e-9, 1e-9])
        assert coefficients == pytest.approx([1.0, 3e-6, 1e-12])

    def test_recursion_matches_ac_simulation(self):
        resistances = [1.5e3, 3.3e3, 820.0]
        capacitances = [2.2e-9, 150e-12, 680e-12]
        circuit, spec = build_rc_ladder(3, resistances, capacitances)
        coefficients = rc_ladder_denominator_coefficients(resistances,
                                                          capacitances)
        analysis = ACAnalysis(circuit, spec)
        for frequency in (1e3, 1e5, 1e7):
            s = 2j * math.pi * frequency
            expected = 1.0 / sum(c * s**i for i, c in enumerate(coefficients))
            assert analysis.value_at(s) == pytest.approx(expected, rel=1e-9)

    def test_mismatched_lists_rejected_in_recursion(self):
        with pytest.raises(NetlistError):
            rc_ladder_denominator_coefficients([1e3], [1e-9, 1e-9])


class TestOta:
    def test_degree_estimate_is_nine(self, ota_circuit):
        circuit, spec = ota_circuit
        formulation = build_nodal_formulation(to_admittance_form(circuit), spec)
        assert formulation.dimension == 9
        assert formulation.max_polynomial_degree() == 9

    def test_differential_gain_positive_feedback_boost(self):
        """Cross-coupled load must raise the DC gain vs the same OTA without it."""
        boosted, spec = build_positive_feedback_ota(feedback_ratio=0.9)
        weak, __ = build_positive_feedback_ota(feedback_ratio=0.1)
        s = 2j * math.pi * 10.0
        gain_boosted = abs(NetworkFunctionSampler(
            to_admittance_form(boosted), spec).transfer_value(s))
        gain_weak = abs(NetworkFunctionSampler(
            to_admittance_form(weak), spec).transfer_value(s))
        assert gain_boosted > gain_weak

    def test_consecutive_coefficient_spread(self, ota_circuit):
        """The 10^6–10^12 per-power spread that breaks unscaled interpolation."""
        from repro.interpolation.reference import generate_reference

        circuit, spec = ota_circuit
        reference = generate_reference(circuit, spec)
        logs = [c.log10() for c in reference.coefficients("denominator")
                if not c.is_zero()]
        ratios = [logs[i] - logs[i + 1] for i in range(len(logs) - 1)]
        assert max(ratios) > 5.0


class TestUa741:
    def test_size_and_validation(self, ua741_circuit):
        circuit, spec = ua741_circuit
        assert len(circuit) > 100
        assert len(circuit.nodes) > 35
        assert validate_circuit(circuit).ok

    def test_degree_bound_is_large(self, ua741_circuit):
        circuit, spec = ua741_circuit
        sampler = NetworkFunctionSampler(to_admittance_form(circuit), spec)
        assert sampler.max_polynomial_degree() >= 30

    def test_dc_gain_and_bandwidth_are_plausible(self, ua741_circuit):
        circuit, spec = ua741_circuit
        analysis = ACAnalysis(circuit, spec)
        dc_gain = abs(analysis.value_at(2j * math.pi * 0.1))
        assert dc_gain > 1e4            # > 80 dB open-loop gain
        unity = abs(analysis.value_at(2j * math.pi * 1e6))
        assert unity < 10.0             # gain has rolled off near 1 MHz

    def test_load_override(self):
        circuit, __ = build_ua741(load_resistance=10e3, load_capacitance=50e-12)
        assert circuit["RL"].value == pytest.approx(10e3)
        assert circuit["CL"].value == pytest.approx(50e-12)


class TestOtherCircuits:
    def test_miller_ota_gain_and_pole(self, miller_circuit):
        circuit, spec = miller_circuit
        analysis = ACAnalysis(circuit, spec)
        dc_gain = abs(analysis.value_at(2j * math.pi * 1.0))
        high = abs(analysis.value_at(2j * math.pi * 1e9))
        assert dc_gain > 100.0
        assert high < dc_gain / 10.0

    def test_cascode_gain(self):
        circuit, spec = build_cascode_amplifier()
        analysis = ACAnalysis(circuit, spec)
        assert abs(analysis.value_at(2j * math.pi * 10.0)) > 100.0

    def test_sallen_key_is_second_order_lowpass(self):
        circuit, spec = build_sallen_key_lowpass()
        analysis = ACAnalysis(circuit, spec)
        dc = abs(analysis.value_at(2j * math.pi * 1.0))
        mid = abs(analysis.value_at(2j * math.pi * 10e3))
        high = abs(analysis.value_at(2j * math.pi * 1e6))
        assert dc == pytest.approx(1.0, rel=0.05)
        assert high < mid < dc
        # Second-order rolloff: ~40 dB/decade in the decade above the corner
        # (far above that the finite-gm buffer's feedthrough floor takes over).
        next_decade = abs(analysis.value_at(2j * math.pi * 100e3))
        assert 20 * math.log10(mid / next_decade) > 30.0

    def test_tow_thomas_lowpass_shape(self):
        circuit, spec = build_tow_thomas_biquad()
        analysis = ACAnalysis(circuit, spec)
        dc = abs(analysis.value_at(2j * math.pi * 1.0))
        high = abs(analysis.value_at(2j * math.pi * 1e6))
        assert dc > 10.0 * high

    def test_all_builders_are_admittance_compatible(self):
        builders = [build_positive_feedback_ota, build_miller_ota,
                    build_cascode_amplifier, build_sallen_key_lowpass,
                    build_tow_thomas_biquad, build_ua741]
        for builder in builders:
            circuit, spec = builder()
            admittance = to_admittance_form(circuit)
            formulation = build_nodal_formulation(admittance, spec)
            assert formulation.dimension >= 1
