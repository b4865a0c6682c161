"""Tests for the MNA builder and AC solution against hand-computed circuits."""

import math

import pytest

from repro.errors import FormulationError
from repro.mna.builder import build_mna_system
from repro.mna.solve import ac_solve, operating_transfer
from repro.netlist.circuit import Circuit


class TestBasicStamps:
    def test_resistive_divider(self):
        circuit = Circuit("div")
        circuit.add_voltage_source("vin", "in", "0", 6.0)
        circuit.add_resistor("R1", "in", "out", 2e3)
        circuit.add_resistor("R2", "out", "0", 1e3)
        value = operating_transfer(circuit, 0.0, "out")
        assert value == pytest.approx(2.0)

    def test_rc_lowpass_pole(self):
        circuit = Circuit("rc")
        circuit.add_voltage_source("vin", "in", "0", 1.0)
        circuit.add_resistor("R1", "in", "out", 1e3)
        circuit.add_capacitor("C1", "out", "0", 1e-9)
        pole = 1.0 / (2 * math.pi * 1e3 * 1e-9)
        value = operating_transfer(circuit, 2j * math.pi * pole, "out")
        assert abs(value) == pytest.approx(1 / math.sqrt(2), rel=1e-9)

    def test_current_source_into_resistor(self):
        circuit = Circuit("ir")
        circuit.add_current_source("iin", "0", "out", 2e-3)
        circuit.add_resistor("R1", "out", "0", 1e3)
        assert operating_transfer(circuit, 0.0, "out") == pytest.approx(2.0)

    def test_inductor_impedance(self):
        circuit = Circuit("rl")
        circuit.add_voltage_source("vin", "in", "0", 1.0)
        circuit.add_resistor("R1", "in", "out", 100.0)
        circuit.add_inductor("L1", "out", "0", 1e-3)
        s = 2j * math.pi * 15.915e3   # ωL = 100 Ω
        expected = (s * 1e-3) / (100.0 + s * 1e-3)
        assert operating_transfer(circuit, s, "out") == pytest.approx(expected,
                                                                      rel=1e-6)

    def test_branch_current_of_voltage_source(self):
        circuit = Circuit("isense")
        circuit.add_voltage_source("vin", "in", "0", 10.0)
        circuit.add_resistor("R1", "in", "0", 2e3)
        system = build_mna_system(circuit)
        solution = ac_solve(system, 0.0)
        # MNA convention: the branch current flows from + to - through the
        # source, so a source driving a resistor sees a negative current.
        assert system.branch_current(solution, "vin") == pytest.approx(-5e-3)


class TestControlledSources:
    def test_vcvs_gain(self):
        circuit = Circuit("vcvs")
        circuit.add_voltage_source("vin", "a", "0", 1.0)
        circuit.add_vcvs("E1", "b", "0", "a", "0", 12.0)
        circuit.add_resistor("RL", "b", "0", 1e3)
        assert operating_transfer(circuit, 0.0, "b") == pytest.approx(12.0)

    def test_vccs_transconductance(self):
        circuit = Circuit("vccs")
        circuit.add_voltage_source("vin", "a", "0", 1.0)
        circuit.add_vccs("G1", "b", "0", "a", "0", 2e-3)
        circuit.add_resistor("RL", "b", "0", 1e3)
        # Current 2 mA leaves node b, so the output is -2 V.
        assert operating_transfer(circuit, 0.0, "b") == pytest.approx(-2.0)

    def test_cccs_current_mirror(self):
        circuit = Circuit("cccs")
        circuit.add_voltage_source("vin", "a", "0", 1.0)
        circuit.add_resistor("R1", "a", "0", 1e3)      # 1 mA through vin
        circuit.add_cccs("F1", "0", "b", "vin", 2.0)
        circuit.add_resistor("RL", "b", "0", 1e3)
        value = operating_transfer(circuit, 0.0, "b")
        # The control current is -1 mA (it flows out of the source's + terminal
        # into the resistor), so F injects 2 * (-1 mA) into node b.
        assert value == pytest.approx(-2.0)

    def test_ccvs(self):
        circuit = Circuit("ccvs")
        circuit.add_voltage_source("vin", "a", "0", 1.0)
        circuit.add_resistor("R1", "a", "0", 1e3)
        circuit.add_ccvs("H1", "b", "0", "vin", 500.0)
        circuit.add_resistor("RL", "b", "0", 1e3)
        assert operating_transfer(circuit, 0.0, "b") == pytest.approx(-0.5)

    def test_missing_control_source(self):
        circuit = Circuit("bad")
        circuit.add_cccs("F1", "a", "0", "nope", 1.0)
        circuit.add_resistor("R1", "a", "0", 1e3)
        with pytest.raises(FormulationError):
            build_mna_system(circuit)


class TestSystemQueries:
    def test_dimension_and_indices(self):
        circuit = Circuit("dims")
        circuit.add_voltage_source("vin", "in", "0", 1.0)
        circuit.add_resistor("R1", "in", "out", 1e3)
        circuit.add_inductor("L1", "out", "0", 1e-6)
        system = build_mna_system(circuit)
        # 2 node unknowns + 2 branch currents (vin, L1)
        assert system.dimension == 4
        assert system.node_index("out") == 1
        assert system.branch_index("L1") == 3
        with pytest.raises(FormulationError):
            system.node_index("0")
        with pytest.raises(FormulationError):
            system.branch_index("R1")

    def test_assemble_is_frequency_dependent(self):
        circuit = Circuit("freq")
        circuit.add_current_source("iin", "0", "a", 1.0)
        circuit.add_capacitor("C1", "a", "0", 1e-9)
        circuit.add_resistor("R1", "a", "0", 1e3)
        system = build_mna_system(circuit)
        low = system.assemble(1.0)
        high = system.assemble(1e9)
        assert abs(high.get(0, 0)) > abs(low.get(0, 0))

    def test_differential_output(self):
        circuit = Circuit("diff")
        circuit.add_voltage_source("vin", "in", "0", 2.0)
        circuit.add_resistor("R1", "in", "a", 1e3)
        circuit.add_resistor("R2", "a", "b", 1e3)
        circuit.add_resistor("R3", "b", "0", 2e3)
        value = operating_transfer(circuit, 0.0, ("a", "b"))
        assert value == pytest.approx(0.5)
