"""Tests for the Circuit container."""

import pytest

from repro.errors import NetlistError, UnknownElementError, UnknownNodeError
from repro.netlist.circuit import Circuit
from repro.netlist.elements import Capacitor, Resistor


def build_sample():
    circuit = Circuit("sample")
    circuit.add_voltage_source("vin", "in", "0", 1.0)
    circuit.add_resistor("R1", "in", "mid", 1e3)
    circuit.add_resistor("R2", "mid", "out", 2e3)
    circuit.add_capacitor("C1", "mid", "0", 1e-9)
    circuit.add_capacitor("C2", "out", "0", 2e-9)
    circuit.add_vccs("gm1", "out", "0", "mid", "0", 1e-3)
    return circuit


class TestElementManagement:
    def test_add_and_lookup(self):
        circuit = build_sample()
        assert len(circuit) == 6
        assert "R1" in circuit
        assert "r1" in circuit  # case-insensitive
        assert circuit["R1"].value == 1e3
        assert circuit.get("missing") is None

    def test_duplicate_name_rejected(self):
        circuit = build_sample()
        with pytest.raises(NetlistError):
            circuit.add_resistor("R1", "a", "b", 1.0)

    def test_remove(self):
        circuit = build_sample()
        removed = circuit.remove("C2")
        assert removed.name == "C2"
        assert "C2" not in circuit
        with pytest.raises(UnknownElementError):
            circuit.remove("C2")

    def test_replace(self):
        circuit = build_sample()
        circuit.replace(Resistor("R1", "in", "mid", 5e3))
        assert circuit["R1"].value == 5e3
        assert len(circuit) == 6

    def test_getitem_unknown(self):
        with pytest.raises(UnknownElementError):
            build_sample()["nope"]

    def test_elements_of_type(self):
        circuit = build_sample()
        assert len(circuit.elements_of_type(Resistor)) == 2
        assert len(circuit.elements_of_type(Capacitor)) == 2
        assert len(circuit.elements_of_type(Resistor, Capacitor)) == 4

    def test_iteration_order_is_insertion_order(self):
        names = [element.name for element in build_sample()]
        assert names == ["vin", "R1", "R2", "C1", "C2", "gm1"]


class TestNodes:
    def test_node_registry(self):
        circuit = build_sample()
        assert circuit.nodes[0] == "0"
        assert set(circuit.non_ground_nodes) == {"in", "mid", "out"}

    def test_node_index_excludes_ground(self):
        index = build_sample().node_index()
        assert "0" not in index
        assert sorted(index.values()) == [0, 1, 2]

    def test_node_index_with_ground(self):
        index = build_sample().node_index(include_ground=True)
        assert index["0"] == 0

    def test_require_node(self):
        circuit = build_sample()
        assert circuit.require_node("mid") == "mid"
        assert circuit.require_node("gnd") == "0"
        with pytest.raises(UnknownNodeError):
            circuit.require_node("nope")

    def test_has_node(self):
        circuit = build_sample()
        assert circuit.has_node("in")
        assert circuit.has_node("gnd")
        assert not circuit.has_node("zzz")


class TestStatistics:
    def test_conductance_values_include_gm_and_resistors(self):
        values = sorted(build_sample().conductance_values())
        assert values == pytest.approx(sorted([1e-3, 5e-4, 1e-3]))

    def test_capacitance_values(self):
        assert sorted(build_sample().capacitance_values()) == pytest.approx(
            [1e-9, 2e-9])

    def test_means(self):
        circuit = build_sample()
        assert circuit.mean_capacitance() == pytest.approx(1.5e-9)
        assert circuit.mean_conductance() == pytest.approx((1e-3 + 5e-4 + 1e-3) / 3)

    def test_means_empty_circuit(self):
        assert Circuit("empty").mean_capacitance() == 0.0
        assert Circuit("empty").mean_conductance() == 0.0

    def test_capacitor_count(self):
        assert build_sample().capacitor_count() == 2

    def test_summary(self):
        summary = build_sample().summary()
        assert summary["Resistor"] == 2
        assert summary["Capacitor"] == 2
        assert summary["VCCS"] == 1

    def test_design_point(self):
        point = build_sample().design_point()
        assert point["R1"] == pytest.approx(1e-3)  # reported as conductance
        assert point["C1"] == pytest.approx(1e-9)
        assert point["gm1"] == pytest.approx(1e-3)
        assert point["vin"] == pytest.approx(1.0)


class TestCopiesAndEdits:
    def test_copy_is_deep(self):
        circuit = build_sample()
        duplicate = circuit.copy("copy")
        duplicate.remove("R1")
        assert "R1" in circuit
        assert duplicate.name == "copy"

    def test_with_element_removed(self):
        reduced = build_sample().with_element_removed("C2")
        assert "C2" not in reduced
        assert len(reduced) == 5

    def test_with_element_shorted_merges_nodes(self):
        shorted = build_sample().with_element_shorted("R2")
        # R2 connected mid-out; out is merged into mid (or vice versa), so C2
        # should now connect the merged node to ground.
        assert "R2" not in shorted
        nodes = {element.name: element.nodes for element in shorted}
        assert "C2" in nodes
        assert set(nodes["C2"]) <= {"mid", "out", "0"}

    def test_with_element_shorted_to_ground(self):
        shorted = build_sample().with_element_shorted("C1")
        # C1 went from mid to ground: mid disappears into ground.
        assert "C1" not in shorted
        for element in shorted:
            assert "mid" not in element.nodes or element.name == "gm1"

    def test_with_value_scaled(self):
        scaled = build_sample().with_value_scaled("C1", 2.0)
        assert scaled["C1"].value == pytest.approx(2e-9)
        scaled_gm = build_sample().with_value_scaled("gm1", 0.5)
        assert scaled_gm["gm1"].gm == pytest.approx(5e-4)

    def test_repr(self):
        assert "sample" in repr(build_sample())
