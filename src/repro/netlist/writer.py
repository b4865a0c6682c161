"""Netlist serialization.

Writes a :class:`~repro.netlist.circuit.Circuit` of primitive elements back to
SPICE-like text.  Device instances are expanded at parse time, so the writer
only has to handle primitives; round-tripping a parsed netlist therefore
produces the *flattened small-signal* circuit, which is exactly what the
matrix builders consume.
"""

from __future__ import annotations

from ..units import format_value
from .elements import (
    CCCS,
    CCVS,
    Capacitor,
    Conductor,
    CurrentSource,
    Inductor,
    Resistor,
    VCCS,
    VCVS,
    VoltageSource,
)

__all__ = ["write_netlist", "element_to_line"]


def element_to_line(element):
    """Render one primitive element as a netlist line."""
    if isinstance(element, Resistor):
        return f"{element.name} {element.node_pos} {element.node_neg} " \
               f"{format_value(element.value)}"
    if isinstance(element, Conductor):
        # Conductances are emitted as resistors of value 1/G to stay within
        # standard SPICE element types.
        resistance = float("inf") if element.value == 0.0 else 1.0 / element.value
        return f"{element.name} {element.node_pos} {element.node_neg} " \
               f"{format_value(resistance)}"
    if isinstance(element, Capacitor):
        return f"{element.name} {element.node_pos} {element.node_neg} " \
               f"{format_value(element.value)}"
    if isinstance(element, Inductor):
        return f"{element.name} {element.node_pos} {element.node_neg} " \
               f"{format_value(element.value)}"
    if isinstance(element, VoltageSource):
        return f"{element.name} {element.node_pos} {element.node_neg} " \
               f"ac {format_value(element.value)}"
    if isinstance(element, CurrentSource):
        return f"{element.name} {element.node_pos} {element.node_neg} " \
               f"ac {format_value(element.value)}"
    if isinstance(element, VCCS):
        return (f"{element.name} {element.node_pos} {element.node_neg} "
                f"{element.ctrl_pos} {element.ctrl_neg} {format_value(element.gm)}")
    if isinstance(element, VCVS):
        return (f"{element.name} {element.node_pos} {element.node_neg} "
                f"{element.ctrl_pos} {element.ctrl_neg} {format_value(element.gain)}")
    if isinstance(element, CCCS):
        return (f"{element.name} {element.node_pos} {element.node_neg} "
                f"{element.ctrl_source} {format_value(element.gain)}")
    if isinstance(element, CCVS):
        return (f"{element.name} {element.node_pos} {element.node_neg} "
                f"{element.ctrl_source} {format_value(element.gain)}")
    raise TypeError(f"cannot serialize element of type {type(element).__name__}")


def write_netlist(circuit, path=None):
    """Serialize ``circuit`` to netlist text; optionally write it to ``path``.

    Returns
    -------
    str
        The netlist text (also written to ``path`` when given).
    """
    lines = [f"* {circuit.title}"]
    for element in circuit:
        lines.append(element_to_line(element))
    lines.append(".end")
    text = "\n".join(lines) + "\n"
    if path is not None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    return text
