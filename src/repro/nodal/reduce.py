"""Transfer-function specification for the nodal formulation.

A :class:`TransferSpec` names the excitation (one or more grounded voltage
sources, or one or more current sources — not both) and the observed output
(a node voltage or a differential pair).  The nodal builder uses it to decide
which nodes are *forced* (removed from the unknowns, contributing to the
right-hand side) and which entry of the solution is the output.

Examples
--------
Single-ended voltage gain ``V(out) / V(in)`` driven by source ``Vin``::

    TransferSpec(inputs=["Vin"], output="out")

Differential voltage gain of an OTA driven antisymmetrically by ``Vip`` (+1/2)
and ``Vim`` (−1/2), observed at ``vo``::

    TransferSpec(inputs=["Vip", "Vim"], output="vo")

(The drive weights come from the sources' AC values.)
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from ..errors import FormulationError, UnknownElementError
from ..netlist.circuit import Circuit
from ..netlist.elements import GROUND, CurrentSource, VoltageSource

__all__ = ["TransferSpec"]


@dataclasses.dataclass
class TransferSpec:
    """Which excitation and which output define the network function.

    Attributes
    ----------
    inputs:
        Names of the driving sources.  All of them must be independent voltage
        sources (voltage drive) or all independent current sources (current
        drive).  Voltage sources must have their negative terminal grounded.
    output:
        Output node name, or a ``(positive, negative)`` pair for a differential
        output.
    """

    inputs: Sequence[str]
    output: Union[str, Tuple[str, str]]

    def __post_init__(self):
        if isinstance(self.inputs, str):
            self.inputs = [self.inputs]
        self.inputs = list(self.inputs)
        if not self.inputs:
            raise FormulationError("TransferSpec needs at least one input source")

    # ------------------------------------------------------------------ #

    def output_nodes(self) -> Tuple[str, Optional[str]]:
        """Return ``(positive_node, negative_node_or_None)``."""
        if isinstance(self.output, (tuple, list)):
            if len(self.output) != 2:
                raise FormulationError("differential output needs exactly two nodes")
            return str(self.output[0]), str(self.output[1])
        return str(self.output), None

    def resolve(self, circuit: Circuit):
        """Validate the spec against ``circuit`` and classify the drive.

        Returns
        -------
        tuple
            ``(kind, sources)`` where ``kind`` is ``"voltage"`` or
            ``"current"`` and ``sources`` is the list of source elements.

        Raises
        ------
        FormulationError
            If sources are of mixed type, a voltage source is floating, or the
            output node does not exist.
        UnknownElementError
            If an input source name is not present in the circuit.
        """
        sources = []
        for name in self.inputs:
            element = circuit.get(name)
            if element is None:
                raise UnknownElementError(f"input source {name!r} not in circuit")
            sources.append(element)

        if all(isinstance(s, VoltageSource) for s in sources):
            kind = "voltage"
            for source in sources:
                if source.node_neg != GROUND and source.node_pos != GROUND:
                    raise FormulationError(
                        f"voltage source {source.name!r} must have one terminal "
                        "grounded for the nodal formulation"
                    )
        elif all(isinstance(s, CurrentSource) for s in sources):
            kind = "current"
        else:
            raise FormulationError(
                "all input sources must be of the same type (all voltage or "
                "all current sources)"
            )

        pos, neg = self.output_nodes()
        for node in (pos, neg):
            if node is None:
                continue
            if node != GROUND and not circuit.has_node(node):
                raise FormulationError(f"output node {node!r} not in circuit")
        return kind, sources

    def describe(self):
        """Human-readable one-line description."""
        pos, neg = self.output_nodes()
        output = pos if neg is None else f"{pos}-{neg}"
        return f"H(s) = V({output}) / drive({', '.join(self.inputs)})"


def _normalize_output(output):
    """Resolve a TransferSpec / pair / node name into an output description."""
    if isinstance(output, TransferSpec):
        positive, negative = output.output_nodes()
        return positive if negative is None else (positive, negative)
    return output


def _output_terms(system, output):
    """``(solution index, sign)`` pairs whose weighted sum is the output."""
    output = _normalize_output(output)
    if isinstance(output, (tuple, list)):
        positive, negative = output
        return [(system.node_index(node), sign)
                for node, sign in ((positive, 1.0), (negative, -1.0))
                if node != GROUND]
    if output == GROUND:
        return []
    return [(system.node_index(output), 1.0)]


def _project_output(terms, solutions):
    """Output voltage over a ``(K, n)`` or ``(K, n, E)`` solution stack.

    The same slice-then-subtract arithmetic as
    :meth:`~repro.mna.builder.MnaSystem.node_voltages`, so projections match
    the rebuild path bit-for-bit.
    """
    result = np.zeros(solutions.shape[:1] + solutions.shape[2:],
                      dtype=complex)
    for index, sign in terms:
        if sign == 1.0:
            result = result + solutions[:, index]
        else:
            result = result - solutions[:, index]
    return result
