"""Tests for admittance-form circuit transformations."""

import math

import numpy as np
import pytest

from repro.analysis.ac import ACAnalysis
from repro.errors import FormulationError
from repro.netlist.circuit import Circuit
from repro.netlist.elements import Capacitor, Conductor, CurrentSource, VCCS
from repro.netlist.transform import (
    merge_parallel_admittances,
    norton_transform_sources,
    to_admittance_form,
    transform_inductors,
)


def rlc_circuit():
    """Series RLC low-pass driven by a voltage source, output across C."""
    circuit = Circuit("rlc")
    circuit.add_voltage_source("vin", "in", "0", 1.0)
    circuit.add_resistor("R1", "in", "mid", 50.0)
    circuit.add_inductor("L1", "mid", "out", 1e-6)
    circuit.add_capacitor("C1", "out", "0", 1e-9)
    return circuit


class TestInductorTransformation:
    def test_inductors_removed(self):
        transformed = transform_inductors(rlc_circuit())
        assert not transformed.elements_of_type(type(rlc_circuit()["L1"]))
        assert "L1.gy1" in transformed
        assert "L1.gy2" in transformed
        assert transformed["L1.cl"].value == pytest.approx(1e-6)

    def test_frequency_response_preserved(self):
        """The gyrator-C equivalent must reproduce the RLC response exactly."""
        original = rlc_circuit()
        transformed = transform_inductors(original)
        frequencies = np.logspace(5, 8, 31)
        original_response = ACAnalysis(original, "out").frequency_response(frequencies)
        transformed_response = ACAnalysis(transformed, "out").frequency_response(
            frequencies)
        np.testing.assert_allclose(transformed_response, original_response,
                                   rtol=1e-9)

    def test_analytic_resonance(self):
        """Check against the analytic RLC transfer function at a few points."""
        transformed = transform_inductors(rlc_circuit())
        analysis = ACAnalysis(transformed, "out")
        for frequency in (1e5, 5.0329e6, 2e7):
            s = 2j * math.pi * frequency
            expected = 1.0 / (1.0 + s * 1e-9 * 50.0 + s * s * 1e-6 * 1e-9)
            assert analysis.value_at(s) == pytest.approx(expected, rel=1e-9)

    def test_custom_gyrator_gm(self):
        transformed = transform_inductors(rlc_circuit(), gyrator_gm=2.0)
        assert transformed["L1.cl"].value == pytest.approx(4e-6)
        frequencies = np.logspace(5, 7, 7)
        original_response = ACAnalysis(rlc_circuit(), "out").frequency_response(
            frequencies)
        transformed_response = ACAnalysis(transformed, "out").frequency_response(
            frequencies)
        np.testing.assert_allclose(transformed_response, original_response,
                                   rtol=1e-9)


class TestNortonTransform:
    def test_series_rv_becomes_norton(self):
        circuit = Circuit("norton")
        circuit.add_voltage_source("vin", "in", "0", 2.0)
        circuit.add_resistor("Rs", "in", "out", 1e3)
        circuit.add_resistor("RL", "out", "0", 1e3)
        transformed = norton_transform_sources(circuit)
        assert isinstance(transformed["vin"], CurrentSource)
        assert transformed["vin"].value == pytest.approx(2e-3)
        # Output voltage must be preserved: divider gives 1.0 V.
        response = ACAnalysis(transformed, "out").value_at(0.0)
        assert response == pytest.approx(1.0)

    def test_source_without_series_resistor_untouched(self, simple_rc):
        circuit, __ = simple_rc
        circuit.add_resistor("R2", "in", "out", 2e3)  # 'in' now has 3 elements
        transformed = norton_transform_sources(circuit)
        assert not isinstance(transformed["vin"], CurrentSource)


class TestMergeParallel:
    def test_parallel_capacitors_add(self):
        circuit = Circuit("par")
        circuit.add_capacitor("C1", "a", "0", 1e-12)
        circuit.add_capacitor("C2", "a", "0", 2e-12)
        circuit.add_capacitor("C3", "0", "a", 3e-12)
        circuit.add_resistor("R1", "a", "0", 1e3)
        merged = merge_parallel_admittances(circuit)
        capacitors = merged.elements_of_type(Capacitor)
        assert len(capacitors) == 1
        assert capacitors[0].value == pytest.approx(6e-12)

    def test_parallel_conductances_add(self):
        circuit = Circuit("par")
        circuit.add_resistor("R1", "a", "0", 1e3)
        circuit.add_resistor("R2", "a", "0", 1e3)
        circuit.add_conductor("g1", "a", "0", 1e-3)
        circuit.add_capacitor("C1", "a", "0", 1e-12)
        merged = merge_parallel_admittances(circuit)
        conductors = merged.elements_of_type(Conductor)
        assert len(conductors) == 1
        assert conductors[0].value == pytest.approx(3e-3)

    def test_vccs_and_sources_not_merged(self):
        circuit = Circuit("par")
        circuit.add_vccs("gm1", "a", "0", "b", "0", 1e-3)
        circuit.add_vccs("gm2", "a", "0", "b", "0", 1e-3)
        circuit.add_resistor("R1", "a", "b", 1e3)
        circuit.add_voltage_source("vin", "b", "0", 1.0)
        merged = merge_parallel_admittances(circuit)
        assert len(merged.elements_of_type(VCCS)) == 2

    def test_merge_reduces_degree_estimate(self):
        circuit = Circuit("deg")
        circuit.add_voltage_source("vin", "in", "0", 1.0)
        circuit.add_resistor("R1", "in", "a", 1e3)
        for index in range(3):
            circuit.add_capacitor(f"C{index}", "a", "0", 1e-12)
        assert circuit.capacitor_count() == 3
        merged = merge_parallel_admittances(circuit)
        assert merged.capacitor_count() == 1


class TestToAdmittanceForm:
    def test_passthrough_for_admittance_circuit(self, simple_rc):
        circuit, __ = simple_rc
        transformed = to_admittance_form(circuit)
        assert len(transformed) == len(circuit)

    def test_rejects_vcvs(self):
        circuit = Circuit("bad")
        circuit.add_vcvs("E1", "a", "0", "b", "0", 10.0)
        circuit.add_resistor("R1", "a", "b", 1e3)
        circuit.add_resistor("R2", "b", "0", 1e3)
        with pytest.raises(FormulationError):
            to_admittance_form(circuit)

    def test_transforms_inductors_and_merges(self):
        circuit = rlc_circuit()
        circuit.add_capacitor("C2", "out", "0", 1e-9)
        transformed = to_admittance_form(circuit, merge_parallel=True)
        # L is gone, the two output capacitors are merged.
        assert "L1.cl" in transformed
        capacitors = [e for e in transformed.elements_of_type(Capacitor)
                      if set(e.nodes) == {"out", "0"}]
        assert len(capacitors) == 1
        assert capacitors[0].value == pytest.approx(2e-9)
