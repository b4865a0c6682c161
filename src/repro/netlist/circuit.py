"""The :class:`Circuit` container.

A :class:`Circuit` is an ordered collection of elements plus node bookkeeping.
It is the single structural object shared by the netlist parser, the device
expansion step, the nodal / MNA matrix builders, the symbolic engine and the
SBG circuit-reduction pass.

Typical construction::

    from repro.netlist import Circuit

    ckt = Circuit("lowpass")
    ckt.add_resistor("R1", "in", "out", 1e3)
    ckt.add_capacitor("C1", "out", "0", 1e-9)
    ckt.add_voltage_source("Vin", "in", "0", 1.0)

The circuit does not interpret element semantics; the matrix builders in
:mod:`repro.nodal` and :mod:`repro.mna` do.
"""

from __future__ import annotations

import copy as _copy
import dataclasses
from typing import Dict, Iterator, List

from ..errors import NetlistError, UnknownElementError, UnknownNodeError
from .elements import (
    CCCS,
    CCVS,
    GROUND,
    Capacitor,
    Conductor,
    CurrentSource,
    Element,
    Inductor,
    Resistor,
    VCCS,
    VCVS,
    VoltageSource,
)

__all__ = ["Circuit"]


class Circuit:
    """An ordered collection of circuit elements with node bookkeeping.

    Parameters
    ----------
    name:
        Human-readable circuit name (used in reports and netlist output).
    title:
        Optional longer description.
    """

    def __init__(self, name="circuit", title=None):
        self.name = str(name)
        self.title = title if title is not None else str(name)
        self._elements: Dict[str, Element] = {}
        self._nodes: Dict[str, None] = {GROUND: None}

    # ------------------------------------------------------------------ #
    # element management
    # ------------------------------------------------------------------ #

    def add(self, element):
        """Add an already-constructed :class:`Element`.

        Raises
        ------
        NetlistError
            If an element with the same (case-insensitive) name exists.
        """
        key = element.name.lower()
        if key in self._elements:
            raise NetlistError(f"duplicate element name {element.name!r}")
        self._elements[key] = element
        for node in element.nodes:
            self._nodes.setdefault(node, None)
        return element

    def remove(self, name):
        """Remove the element called ``name`` and return it.

        Nodes are never garbage-collected; a node with no remaining elements is
        reported by :func:`repro.netlist.validate.validate_circuit`.
        """
        key = str(name).lower()
        if key not in self._elements:
            raise UnknownElementError(f"no element named {name!r}")
        return self._elements.pop(key)

    def replace(self, element):
        """Replace the element with the same name as ``element`` (add if absent)."""
        self._elements[element.name.lower()] = element
        for node in element.nodes:
            self._nodes.setdefault(node, None)
        return element

    def __contains__(self, name):
        return str(name).lower() in self._elements

    def __getitem__(self, name) -> Element:
        key = str(name).lower()
        if key not in self._elements:
            raise UnknownElementError(f"no element named {name!r}")
        return self._elements[key]

    def get(self, name, default=None):
        """Return the element called ``name`` or ``default``."""
        return self._elements.get(str(name).lower(), default)

    def __iter__(self) -> Iterator[Element]:
        return iter(self._elements.values())

    def __len__(self):
        return len(self._elements)

    @property
    def elements(self) -> List[Element]:
        """All elements in insertion order."""
        return list(self._elements.values())

    def elements_of_type(self, *types) -> List[Element]:
        """All elements that are instances of any of ``types``."""
        return [e for e in self._elements.values() if isinstance(e, types)]

    # ------------------------------------------------------------------ #
    # node management
    # ------------------------------------------------------------------ #

    @property
    def nodes(self) -> List[str]:
        """All node names, ground first, others in first-use order."""
        return list(self._nodes.keys())

    @property
    def non_ground_nodes(self) -> List[str]:
        """All node names except ground, in first-use order."""
        return [n for n in self._nodes.keys() if n != GROUND]

    def has_node(self, node):
        """True if ``node`` appears in the circuit (ground always does)."""
        return str(node) in self._nodes or str(node).lower() in ("gnd", "ground")

    def require_node(self, node):
        """Return the canonical node name, raising if the node is unknown."""
        node = str(node)
        if node.lower() in ("gnd", "ground"):
            node = GROUND
        if node not in self._nodes:
            raise UnknownNodeError(f"node {node!r} does not exist in {self.name!r}")
        return node

    def node_index(self, include_ground=False) -> Dict[str, int]:
        """Map node name → dense index.

        Ground is excluded by default (index map over unknowns); with
        ``include_ground=True`` ground gets index 0.
        """
        names = self.nodes if include_ground else self.non_ground_nodes
        return {name: i for i, name in enumerate(names)}

    # ------------------------------------------------------------------ #
    # convenience constructors
    # ------------------------------------------------------------------ #

    def add_resistor(self, name, node_pos, node_neg, resistance):
        """Add a resistor (ohms)."""
        return self.add(Resistor(name, node_pos, node_neg, resistance))

    def add_conductor(self, name, node_pos, node_neg, conductance):
        """Add a conductance (siemens) — convenient for gds / gpi elements."""
        return self.add(Conductor(name, node_pos, node_neg, conductance))

    def add_capacitor(self, name, node_pos, node_neg, capacitance):
        """Add a capacitor (farads)."""
        return self.add(Capacitor(name, node_pos, node_neg, capacitance))

    def add_inductor(self, name, node_pos, node_neg, inductance):
        """Add an inductor (henries)."""
        return self.add(Inductor(name, node_pos, node_neg, inductance))

    def add_voltage_source(self, name, node_pos, node_neg, value=1.0):
        """Add an independent (AC) voltage source."""
        return self.add(VoltageSource(name, node_pos, node_neg, value))

    def add_current_source(self, name, node_pos, node_neg, value=1.0):
        """Add an independent (AC) current source."""
        return self.add(CurrentSource(name, node_pos, node_neg, value))

    def add_vccs(self, name, node_pos, node_neg, ctrl_pos, ctrl_neg, gm):
        """Add a voltage-controlled current source (transconductance ``gm``)."""
        return self.add(VCCS(name, node_pos, node_neg, ctrl_pos, ctrl_neg, gm))

    def add_vcvs(self, name, node_pos, node_neg, ctrl_pos, ctrl_neg, gain):
        """Add a voltage-controlled voltage source (MNA only)."""
        return self.add(VCVS(name, node_pos, node_neg, ctrl_pos, ctrl_neg, gain))

    def add_cccs(self, name, node_pos, node_neg, ctrl_source, gain):
        """Add a current-controlled current source (MNA only)."""
        return self.add(CCCS(name, node_pos, node_neg, ctrl_source, gain))

    def add_ccvs(self, name, node_pos, node_neg, ctrl_source, gain):
        """Add a current-controlled voltage source (MNA only)."""
        return self.add(CCVS(name, node_pos, node_neg, ctrl_source, gain))

    # ------------------------------------------------------------------ #
    # statistics used by the scaling heuristics
    # ------------------------------------------------------------------ #

    def conductance_values(self) -> List[float]:
        """All conductance magnitudes: resistors (1/R), conductors and |gm| values.

        These feed the paper's first-interpolation heuristic (conductance scale
        factor = inverse of the mean conductance).
        """
        values: List[float] = []
        for element in self._elements.values():
            if isinstance(element, Resistor):
                values.append(1.0 / element.value)
            elif isinstance(element, Conductor):
                if element.value > 0.0:
                    values.append(element.value)
            elif isinstance(element, VCCS):
                if element.gm != 0.0:
                    values.append(abs(element.gm))
        return values

    def capacitance_values(self) -> List[float]:
        """All capacitor values (farads)."""
        return [e.value for e in self.elements_of_type(Capacitor) if e.value > 0.0]

    def mean_conductance(self):
        """Arithmetic mean of all conductance magnitudes (0.0 if none)."""
        values = self.conductance_values()
        if not values:
            return 0.0
        return sum(values) / len(values)

    def mean_capacitance(self):
        """Arithmetic mean of all capacitor values (0.0 if none)."""
        values = self.capacitance_values()
        if not values:
            return 0.0
        return sum(values) / len(values)

    def capacitor_count(self):
        """Number of capacitors with non-zero value (order upper-bound estimate)."""
        return len(self.capacitance_values())

    def summary(self) -> Dict[str, int]:
        """Per-element-type counts, keyed by class name."""
        counts: Dict[str, int] = {}
        for element in self._elements.values():
            counts[type(element).__name__] = counts.get(type(element).__name__, 0) + 1
        return counts

    # ------------------------------------------------------------------ #
    # copies and edits used by SBG
    # ------------------------------------------------------------------ #

    def copy(self, name=None):
        """Deep copy of the circuit (optionally renamed)."""
        duplicate = Circuit(name or self.name, self.title)
        for element in self._elements.values():
            duplicate.add(_copy.deepcopy(element))
        # Preserve declared-but-unused nodes.
        for node in self._nodes:
            duplicate._nodes.setdefault(node, None)
        return duplicate

    def with_element_removed(self, name, new_name=None):
        """Copy of the circuit with element ``name`` removed (open-circuited)."""
        duplicate = self.copy(new_name or f"{self.name}-without-{name}")
        duplicate.remove(name)
        return duplicate

    def with_element_shorted(self, name, new_name=None):
        """Copy of the circuit with two-terminal element ``name`` replaced by a short.

        The element's positive node is merged into its negative node.  Used by
        the SBG pass when an impedance is negligible.
        """
        element = self[name]
        nodes = element.nodes
        if len(nodes) < 2:
            raise NetlistError(f"cannot short element {name!r}")
        keep, drop = nodes[1], nodes[0]
        if keep == GROUND or drop == GROUND:
            # Always merge into ground when one terminal is ground.
            keep = GROUND
            drop = nodes[0] if nodes[1] == GROUND else nodes[1]
        mapping = {drop: keep}
        duplicate = Circuit(new_name or f"{self.name}-short-{name}", self.title)
        for other in self._elements.values():
            if other.name.lower() == str(name).lower():
                continue
            remapped = other.with_nodes(mapping)
            # Shorting may collapse a two-terminal element onto a single node;
            # such elements vanish from the reduced circuit.
            remapped_nodes = set(remapped.nodes[:2])
            if len(remapped.nodes) >= 2 and len(remapped_nodes) == 1:
                if not isinstance(remapped, (VCCS, VCVS)):
                    continue
            try:
                duplicate.add(remapped)
            except NetlistError:
                continue
        return duplicate

    def with_value_scaled(self, name, factor, new_name=None):
        """Copy of the circuit with element ``name``'s value multiplied by ``factor``."""
        duplicate = self.copy(new_name)
        element = duplicate[name]
        if isinstance(element, VCCS):
            duplicate.replace(dataclasses.replace(element,
                                                  gm=element.gm * factor))
        elif isinstance(element, (Resistor, Conductor, Capacitor, Inductor,
                                  VoltageSource, CurrentSource)):
            duplicate.replace(
                dataclasses.replace(element, value=element.value * factor)
            )
        else:
            raise NetlistError(f"cannot scale element of type {type(element).__name__}")
        return duplicate

    # ------------------------------------------------------------------ #
    # misc
    # ------------------------------------------------------------------ #

    def design_point(self) -> Dict[str, float]:
        """Map element name → value at the design point.

        Resistors are reported as conductances so the symbolic engine (whose
        symbols are admittances) can evaluate terms directly.
        """
        point: Dict[str, float] = {}
        for element in self._elements.values():
            if isinstance(element, Resistor):
                point[element.name] = 1.0 / element.value
            elif isinstance(element, (Conductor, Capacitor, Inductor)):
                point[element.name] = element.value
            elif isinstance(element, VCCS):
                point[element.name] = element.gm
            elif isinstance(element, (VoltageSource, CurrentSource)):
                point[element.name] = element.value
            elif isinstance(element, (VCVS, CCCS, CCVS)):
                point[element.name] = element.gain
        return point

    def __repr__(self):
        return (
            f"Circuit({self.name!r}, elements={len(self._elements)}, "
            f"nodes={len(self._nodes)})"
        )
