"""Builder of the nodal admittance formulation ``(G, C, forced columns)``.

For an admittance-form circuit the node equations are ``(G + s C) V = J`` with
``G`` collecting conductances and transconductances and ``C`` collecting
capacitances.  Nodes held at a known voltage by a grounded input source are
*forced*: their rows are dropped and their columns move to the right-hand
side.  The result is exactly the object the interpolation engine samples:
``D(s) = det(G + sC)`` over the unknown nodes and ``N(s) = H(s) D(s)``.

The builder additionally records the two "admittance orders" needed by the
scale-factor bookkeeping of Eq. (11): the denominator order ``M`` (matrix
dimension) and the numerator order (``M`` for a voltage drive, ``M - 1`` for a
current drive, because a current excitation contributes no admittance factor).
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from ..engine.formulation import FormulationBase
from ..errors import FormulationError
from ..linalg.sparse import SparseMatrix
from ..netlist.elements import (
    Capacitor,
    Conductor,
    CurrentSource,
    GROUND,
    Inductor,
    Resistor,
    VCCS,
    VoltageSource,
)
from .reduce import TransferSpec

__all__ = ["NodalFormulation", "build_nodal_formulation"]


class NodalFormulation(FormulationBase):
    """Assembled nodal matrices for one circuit + transfer specification.

    Do not construct directly; use :func:`build_nodal_formulation`.
    Implements the :class:`~repro.engine.formulation.Formulation` protocol —
    assembly (single-point, batched, merged sparse structure) is inherited
    from :class:`~repro.engine.formulation.FormulationBase`.

    Attributes
    ----------
    unknown_nodes:
        Node names corresponding to matrix rows/columns (order fixed).
    forced:
        Mapping forced node → drive coefficient (volts per unit drive).
    conductance, capacitance:
        ``M x M`` :class:`SparseMatrix` G and C over the unknowns.
    forced_conductance, forced_capacitance:
        ``M x F`` coupling matrices from forced-node voltages into the unknown
        equations.
    current_injection:
        Length-``M`` vector of source current injections per unit drive.
    drive_kind:
        ``"voltage"`` or ``"current"``.
    """

    def __init__(self, circuit, spec, drive_kind, unknown_nodes, forced,
                 conductance, capacitance, forced_conductance,
                 forced_capacitance, current_injection, output_pos, output_neg):
        self.circuit = circuit
        self.spec = spec
        self.drive_kind = drive_kind
        self.unknown_nodes = unknown_nodes
        self.forced = forced
        self.conductance = conductance
        self.capacitance = capacitance
        self.forced_conductance = forced_conductance
        self.forced_capacitance = forced_capacitance
        self.current_injection = current_injection
        self._output_pos = output_pos
        self._output_neg = output_neg
        self._index = {node: i for i, node in enumerate(unknown_nodes)}
        self._forced_index = {node: i for i, node in enumerate(forced)}
        self._forced_couplings = None

    # ------------------------------------------------------------------ #
    # dimensions and orders
    # ------------------------------------------------------------------ #

    @property
    def dimension(self):
        """Number of unknown node voltages ``M``."""
        return len(self.unknown_nodes)

    @property
    def denominator_admittance_order(self):
        """Number of admittance factors per denominator term (``M``)."""
        return self.dimension

    @property
    def numerator_admittance_order(self):
        """Number of admittance factors per numerator term."""
        if self.drive_kind == "voltage":
            return self.dimension
        return self.dimension - 1

    def max_polynomial_degree(self):
        """Upper bound on the degree of numerator and denominator in ``s``.

        Each determinant term takes at most one factor per matrix row, and each
        capacitive factor contributes one power of ``s``; the bound is the
        smaller of the matrix dimension and the number of capacitors touching
        the unknown equations.
        """
        touching = 0
        relevant = set(self.unknown_nodes) | set(self.forced)
        for element in self.circuit.elements_of_type(Capacitor):
            if element.value == 0.0:
                continue
            if element.node_pos in relevant or element.node_neg in relevant:
                touching += 1
        return min(touching, self.dimension)

    # ------------------------------------------------------------------ #
    # evaluation
    # ------------------------------------------------------------------ #

    def sparse_parts(self):
        """``(G, C)`` over the unknown nodes (the Formulation protocol)."""
        return self.conductance, self.capacitance

    def forced_couplings(self):
        """Cached ``(G_f · v_f, C_f · v_f)`` coupling vectors (length ``M``).

        These are the constant and frequency-proportional parts of the
        forced-node contribution to the right-hand side; with them the whole
        sweep's excitation is ``J - g·(G_f v_f) - s_k·f·(C_f v_f)``.
        """
        if self._forced_couplings is None:
            m = self.dimension
            conductance_part = np.zeros(m, dtype=complex)
            capacitance_part = np.zeros(m, dtype=complex)
            if self.forced:
                forced_voltages = np.array(
                    [self.forced[node] for node in self.forced], dtype=complex
                )
                for row, col, value in self.forced_conductance.entries():
                    conductance_part[row] += value * forced_voltages[col]
                for row, col, value in self.forced_capacitance.entries():
                    capacitance_part[row] += value * forced_voltages[col]
            self._forced_couplings = (conductance_part, capacitance_part)
        return self._forced_couplings

    def rhs_batch(self, s_values, conductance_scale=1.0, frequency_scale=1.0):
        """Right-hand sides per unit drive as one ``(K, M)`` stack."""
        s = np.asarray(s_values, dtype=complex)
        conductance_part, capacitance_part = self.forced_couplings()
        base = self.current_injection - conductance_scale * conductance_part
        factors = s * frequency_scale
        return base[None, :] - factors[:, None] * capacitance_part[None, :]

    def rhs(self, s, conductance_scale=1.0, frequency_scale=1.0):
        """Right-hand side per unit drive at complex frequency ``s``."""
        m = self.dimension
        rhs = np.array(self.current_injection, dtype=complex)
        if self.forced:
            forced_voltages = np.array(
                [self.forced[node] for node in self.forced], dtype=complex
            )
            coupling = np.zeros(m, dtype=complex)
            for row, col, value in self.forced_conductance.entries():
                coupling[row] += conductance_scale * value * forced_voltages[col]
            factor = complex(s) * frequency_scale
            for row, col, value in self.forced_capacitance.entries():
                coupling[row] += factor * value * forced_voltages[col]
            rhs -= coupling
        return rhs

    def node_voltage(self, solution, node):
        """Voltage of ``node`` given the solution vector (per unit drive)."""
        if node == GROUND:
            return 0.0 + 0.0j
        if node in self._index:
            return complex(solution[self._index[node]])
        if node in self._forced_index:
            return complex(self.forced[node])
        raise FormulationError(f"node {node!r} is not part of the formulation")

    def output_voltage(self, solution):
        """Output (differential) voltage for the spec's output nodes."""
        positive = self.node_voltage(solution, self._output_pos)
        if self._output_neg is None:
            return positive
        return positive - self.node_voltage(solution, self._output_neg)

    def output_is_forced(self):
        """True when the output voltage does not depend on the solution."""
        nodes = [self._output_pos]
        if self._output_neg is not None:
            nodes.append(self._output_neg)
        return all(node == GROUND or node in self._forced_index for node in nodes)

    def index_of(self, node):
        """Row index of an unknown node (raises for forced/ground nodes)."""
        if node not in self._index:
            raise FormulationError(f"node {node!r} is not an unknown")
        return self._index[node]

    # ------------------------------------------------------------------ #

    def __repr__(self):
        return (
            f"NodalFormulation(M={self.dimension}, drive={self.drive_kind!r}, "
            f"forced={list(self.forced)}, output={self.spec.output!r})"
        )


def build_nodal_formulation(circuit, spec):
    """Build a :class:`NodalFormulation` for ``circuit`` and ``spec``.

    The circuit must be in admittance form (conductances, capacitances, VCCS,
    independent sources); call
    :func:`repro.netlist.transform.to_admittance_form` first when it contains
    inductors.

    Raises
    ------
    FormulationError
        For non-admittance elements, floating voltage sources, or voltage
        sources that are neither inputs nor zero-valued.
    """
    if not isinstance(spec, TransferSpec):
        raise FormulationError("spec must be a TransferSpec")
    drive_kind, sources = spec.resolve(circuit)
    input_names = {element.name.lower() for element in sources}

    # Forced nodes: the non-ground terminal of every grounded voltage source.
    forced: Dict[str, float] = {}
    for element in circuit.elements_of_type(VoltageSource):
        if element.node_pos == GROUND:
            node, sign = element.node_neg, -1.0
        elif element.node_neg == GROUND:
            node, sign = element.node_pos, +1.0
        else:
            raise FormulationError(
                f"voltage source {element.name!r} is floating; the nodal "
                "formulation requires grounded voltage sources"
            )
        if element.name.lower() in input_names:
            coefficient = sign * element.value
        elif element.value == 0.0:
            coefficient = 0.0
        else:
            raise FormulationError(
                f"voltage source {element.name!r} is not an input of the "
                "transfer specification; set its AC value to 0 or include it "
                "in the inputs"
            )
        if node in forced and forced[node] != coefficient:
            raise FormulationError(
                f"node {node!r} is forced to conflicting voltages"
            )
        forced[node] = coefficient

    unknown_nodes: List[str] = [
        node for node in circuit.non_ground_nodes if node not in forced
    ]
    index = {node: i for i, node in enumerate(unknown_nodes)}
    forced_index = {node: i for i, node in enumerate(forced)}
    m = len(unknown_nodes)
    f_count = len(forced)

    conductance = SparseMatrix(m, m)
    capacitance = SparseMatrix(m, m)
    forced_conductance = SparseMatrix(m, max(f_count, 1))
    forced_capacitance = SparseMatrix(m, max(f_count, 1))
    current_injection = np.zeros(m, dtype=complex)

    def stamp(matrix, forced_matrix, row_node, col_node, value):
        """Add ``value`` at (row_node, col_node) of the full nodal matrix."""
        if value == 0.0 or row_node == GROUND or row_node in forced:
            return
        if col_node == GROUND:
            return
        row = index[row_node]
        if col_node in forced:
            forced_matrix.add(row, forced_index[col_node], value)
        else:
            matrix.add(row, index[col_node], value)

    def stamp_admittance(matrix, forced_matrix, node_a, node_b, value):
        stamp(matrix, forced_matrix, node_a, node_a, value)
        stamp(matrix, forced_matrix, node_b, node_b, value)
        stamp(matrix, forced_matrix, node_a, node_b, -value)
        stamp(matrix, forced_matrix, node_b, node_a, -value)

    for element in circuit:
        if isinstance(element, (Resistor, Conductor)):
            stamp_admittance(conductance, forced_conductance,
                             element.node_pos, element.node_neg,
                             element.conductance)
        elif isinstance(element, Capacitor):
            stamp_admittance(capacitance, forced_capacitance,
                             element.node_pos, element.node_neg,
                             element.capacitance)
        elif isinstance(element, VCCS):
            # Current gm (V(ctrl_pos) - V(ctrl_neg)) leaves node_pos and enters
            # node_neg.
            gm = element.gm
            for row_node, sign in ((element.node_pos, +1.0),
                                   (element.node_neg, -1.0)):
                stamp(conductance, forced_conductance, row_node,
                      element.ctrl_pos, sign * gm)
                stamp(conductance, forced_conductance, row_node,
                      element.ctrl_neg, -sign * gm)
        elif isinstance(element, CurrentSource):
            if element.name.lower() not in input_names and element.value != 0.0:
                raise FormulationError(
                    f"current source {element.name!r} is not an input of the "
                    "transfer specification; set its AC value to 0 or include "
                    "it in the inputs"
                )
            if element.name.lower() in input_names:
                # Current leaves node_pos, enters node_neg (SPICE convention).
                if element.node_pos != GROUND and element.node_pos not in forced:
                    current_injection[index[element.node_pos]] -= element.value
                if element.node_neg != GROUND and element.node_neg not in forced:
                    current_injection[index[element.node_neg]] += element.value
        elif isinstance(element, VoltageSource):
            pass  # already handled through the forced-node map
        elif isinstance(element, Inductor):
            raise FormulationError(
                f"inductor {element.name!r} present; apply "
                "to_admittance_form()/transform_inductors() first"
            )
        else:
            raise FormulationError(
                f"element {element.name!r} of type {type(element).__name__} is "
                "not supported by the nodal formulation"
            )

    output_pos, output_neg = spec.output_nodes()
    for node in (output_pos, output_neg):
        if node is None or node == GROUND:
            continue
        if node not in index and node not in forced_index:
            raise FormulationError(f"output node {node!r} is not in the circuit")

    return NodalFormulation(
        circuit=circuit,
        spec=spec,
        drive_kind=drive_kind,
        unknown_nodes=unknown_nodes,
        forced=forced,
        conductance=conductance,
        capacitance=capacitance,
        forced_conductance=forced_conductance,
        forced_capacitance=forced_capacitance,
        current_injection=current_injection,
        output_pos=output_pos,
        output_neg=output_neg,
    )
