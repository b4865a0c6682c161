"""Circuit symbols: the variables of the symbolic network function.

Every admittance-form element contributes one symbol whose value at the design
point is its admittance parameter:

* resistors / conductors → a conductance symbol (``1/R`` or ``G``),
* VCCS elements → a transconductance symbol (may be negative for
  cross-coupled devices),
* capacitors → a capacitance symbol (each occurrence carries one power of
  ``s``).
"""

from __future__ import annotations

import dataclasses
from typing import Dict

from ..errors import SymbolicError
from ..netlist.elements import Capacitor, Conductor, CurrentSource, Resistor, VCCS, VoltageSource

__all__ = ["CircuitSymbol", "build_symbol_table"]


@dataclasses.dataclass(frozen=True)
class CircuitSymbol:
    """A named symbolic circuit parameter and its design-point value.

    ``kind`` is ``"conductance"`` or ``"capacitance"`` — capacitance symbols
    carry one power of ``s`` each time they appear in a term.
    """

    name: str
    kind: str
    value: float

    def __post_init__(self):
        if self.kind not in ("conductance", "capacitance"):
            raise SymbolicError(f"unknown symbol kind {self.kind!r}")

    @property
    def is_capacitance(self):
        """True for capacitance symbols."""
        return self.kind == "capacitance"


def build_symbol_table(circuit) -> Dict[str, CircuitSymbol]:
    """Map element name → :class:`CircuitSymbol` for an admittance-form circuit.

    Independent sources carry no symbol (they only select the excitation).

    Raises
    ------
    SymbolicError
        For element types outside the admittance form.
    """
    table: Dict[str, CircuitSymbol] = {}
    for element in circuit:
        if isinstance(element, Resistor):
            table[element.name] = CircuitSymbol(element.name, "conductance",
                                                1.0 / element.value)
        elif isinstance(element, Conductor):
            table[element.name] = CircuitSymbol(element.name, "conductance",
                                                element.value)
        elif isinstance(element, VCCS):
            table[element.name] = CircuitSymbol(element.name, "conductance",
                                                element.gm)
        elif isinstance(element, Capacitor):
            table[element.name] = CircuitSymbol(element.name, "capacitance",
                                                element.value)
        elif isinstance(element, (VoltageSource, CurrentSource)):
            continue
        else:
            raise SymbolicError(
                f"element {element.name!r} of type {type(element).__name__} "
                "has no admittance-form symbol; transform the circuit first"
            )
    return table
