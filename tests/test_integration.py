"""End-to-end integration and cross-subsystem consistency tests."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    TransferSpec,
    build_rc_ladder,
    generate_reference,
    parse_netlist,
    to_admittance_form,
)
from repro.analysis.ac import ACAnalysis
from repro.analysis.compare import compare_responses
from repro.circuits.rc_ladder import rc_ladder_denominator_coefficients
from repro.interpolation.adaptive import AdaptiveOptions
from repro.nodal.sampler import NetworkFunctionSampler
from repro.symbolic.generation import symbolic_network_function


class TestNetlistToReferencePipeline:
    NETLIST = """
    * two-stage bipolar amplifier
    .model qn npn (beta=150 va=80 tf=0.4n cje=0.8p cmu=0.4p rb=150 ccs=1p)
    Vin in 0 ac 1
    Rs in b1 1k
    Q1 c1 b1 e1 qn ic=200u
    Re1 e1 0 500
    Rc1 c1 0 20k
    Q2 c2 c1 e2 qn ic=1m
    Re2 e2 0 100
    Rc2 c2 0 5k
    CL c2 0 10p
    .end
    """

    def test_parse_analyze_reference_and_compare(self):
        circuit = parse_netlist(self.NETLIST)
        spec = TransferSpec(inputs=["Vin"], output="c2")
        reference = generate_reference(circuit, spec)
        assert reference.converged

        frequencies = np.logspace(1, 9, 33)
        interpolated = reference.frequency_response(frequencies)
        simulated = ACAnalysis(circuit, spec).frequency_response(frequencies)
        comparison = compare_responses(frequencies, simulated, interpolated)
        assert comparison.max_magnitude_error_db < 0.1
        assert comparison.max_phase_error_deg < 1.0

    def test_symbolic_and_interpolated_coefficients_agree(self):
        """Symbolic sum-of-products and interpolated coefficients must match."""
        circuit = parse_netlist(self.NETLIST)
        spec = TransferSpec(inputs=["Vin"], output="c2")
        admittance = to_admittance_form(circuit)
        reference = generate_reference(admittance, spec,
                                       admittance_transform=False)
        symbolic = symbolic_network_function(admittance, spec,
                                             admittance_transform=False)
        for power in range(0, 4):
            interpolated = reference.coefficient("denominator", power)
            exact = symbolic.coefficient_value("denominator", power)
            if exact.is_zero() or interpolated.is_zero():
                continue
            assert interpolated.log10() == pytest.approx(exact.log10(),
                                                         abs=1e-3)
            assert interpolated.sign() == exact.sign()


class TestConsistencyAcrossFormulations:
    def test_nodal_mna_and_reference_agree(self, miller_circuit):
        circuit, spec = miller_circuit
        admittance = to_admittance_form(circuit)
        sampler = NetworkFunctionSampler(admittance, spec)
        analysis = ACAnalysis(circuit, spec)
        reference = generate_reference(circuit, spec)
        for frequency in (1e2, 1e5, 1e8):
            s = 2j * math.pi * frequency
            nodal_value = sampler.transfer_value(s)
            mna_value = analysis.value_at(s)
            reference_value = reference.transfer_function().evaluate(s)
            assert nodal_value == pytest.approx(mna_value, rel=1e-8)
            assert reference_value == pytest.approx(mna_value, rel=1e-3)

    def test_options_are_honoured(self, simple_rc):
        circuit, spec = simple_rc
        options = AdaptiveOptions(significant_digits=4, max_iterations=5)
        reference = generate_reference(circuit, spec, options=options)
        assert reference.converged


class TestPropertyBasedLadders:
    @given(st.integers(min_value=1, max_value=8),
           st.lists(st.floats(min_value=1e2, max_value=1e6), min_size=8,
                    max_size=8),
           st.lists(st.floats(min_value=1e-13, max_value=1e-8), min_size=8,
                    max_size=8))
    @settings(max_examples=20, deadline=None)
    def test_reference_matches_ladder_recursion(self, stages, resistances,
                                                capacitances):
        resistances = resistances[:stages]
        capacitances = capacitances[:stages]
        circuit, spec = build_rc_ladder(stages, resistances, capacitances)
        expected = rc_ladder_denominator_coefficients(resistances, capacitances)
        reference = generate_reference(circuit, spec)
        assert reference.converged
        denominator = reference.coefficients("denominator")
        scale = float(denominator[0])
        for power, value in enumerate(expected):
            assert float(denominator[power]) / scale == pytest.approx(
                value, rel=1e-3)

    @given(st.integers(min_value=1, max_value=6),
           st.floats(min_value=1e2, max_value=1e5),
           st.floats(min_value=1e-12, max_value=1e-9))
    @settings(max_examples=20, deadline=None)
    def test_interpolated_response_matches_ac(self, stages, resistance,
                                              capacitance):
        circuit, spec = build_rc_ladder(stages, resistance, capacitance)
        reference = generate_reference(circuit, spec)
        analysis = ACAnalysis(circuit, spec)
        corner = 1.0 / (2 * math.pi * resistance * capacitance)
        for frequency in (corner / 100.0, corner, corner * 100.0):
            s = 2j * math.pi * frequency
            assert reference.transfer_function().evaluate(s) == pytest.approx(
                analysis.value_at(s), rel=1e-3)
