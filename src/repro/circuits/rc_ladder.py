"""RC ladder networks — the analytically tractable test oracle.

An ``N``-stage RC ladder driven by an ideal voltage source::

    vin --R1-- n1 --R2-- n2 -- ... --RN-- nN
               |         |               |
               C1        C2              CN
               |         |               |
              gnd       gnd             gnd

has a transfer function ``V(nN)/V(in) = 1 / D(s)`` whose denominator
coefficients can be computed exactly with a simple polynomial recursion on the
ladder (no matrix round-off involved).  That makes the ladder the perfect
oracle for the interpolation engine: the recovered coefficients can be checked
digit-by-digit, for any ladder length and for element spreads chosen to stress
the adaptive scaling.
"""

from __future__ import annotations

from typing import List, Tuple

from ..errors import NetlistError
from ..netlist.circuit import Circuit
from ..nodal.reduce import TransferSpec

__all__ = ["build_rc_ladder", "rc_ladder_denominator_coefficients"]


def _normalize_values(values, count, default):
    if values is None:
        return [default] * count
    if isinstance(values, (int, float)):
        return [float(values)] * count
    values = [float(v) for v in values]
    if len(values) != count:
        raise NetlistError(
            f"expected {count} element values, got {len(values)}"
        )
    return values


def build_rc_ladder(stages, resistances=None, capacitances=None,
                    name=None) -> Tuple[Circuit, TransferSpec]:
    """Build an ``stages``-section RC ladder driven by an ideal voltage source.

    Parameters
    ----------
    stages:
        Number of RC sections (≥ 1); the denominator degree equals ``stages``.
    resistances, capacitances:
        Scalar or per-stage sequences; defaults are 1 kΩ and 1 nF.

    Returns
    -------
    (Circuit, TransferSpec)
        The transfer function is ``V(n<stages>) / V(vin)``.
    """
    stages = int(stages)
    if stages < 1:
        raise NetlistError("an RC ladder needs at least one stage")
    resistances = _normalize_values(resistances, stages, 1e3)
    capacitances = _normalize_values(capacitances, stages, 1e-9)

    circuit = Circuit(name or f"rc-ladder-{stages}")
    circuit.add_voltage_source("vin", "in", "0", 1.0)
    previous = "in"
    for index in range(1, stages + 1):
        node = f"n{index}"
        circuit.add_resistor(f"R{index}", previous, node, resistances[index - 1])
        circuit.add_capacitor(f"C{index}", node, "0", capacitances[index - 1])
        previous = node
    spec = TransferSpec(inputs=["vin"], output=previous)
    return circuit, spec


def rc_ladder_denominator_coefficients(resistances,
                                       capacitances) -> List[float]:
    """Exact denominator coefficients of the ladder's voltage transfer function.

    The transfer function of the ladder above is ``1 / D(s)`` with ``D``
    computed by the standard ladder recursion expressed on polynomials.  Let
    ``A_j(s)`` be the polynomial such that ``V(in) = A_j(s) · V(n_j_rightmost)``
    when only the right-most ``j`` sections are considered; walking from the
    output back to the source:

    * ``A(s) = 1`` and the running "current polynomial" ``B(s) = 0``
      (current flowing right of the last node, scaled by ``V(out)``),
    * at each section: ``B += s C_j · A`` then ``A += R_j · B``.

    After processing all sections ``A(s)`` is exactly ``D(s)`` and the
    numerator is 1.

    Returns
    -------
    list of float
        ``[d_0, d_1, …, d_N]`` in ascending powers of ``s`` (``d_0`` is 1).
    """
    resistances = [float(r) for r in resistances]
    capacitances = [float(c) for c in capacitances]
    if len(resistances) != len(capacitances):
        raise NetlistError("resistance and capacitance lists differ in length")

    # Polynomials in ascending powers of s.
    voltage_poly = [1.0]          # A(s)
    current_poly: List[float] = []  # B(s), one degree behind after the sC step

    def poly_add(target, source, offset=0, factor=1.0):
        while len(target) < len(source) + offset:
            target.append(0.0)
        for power, value in enumerate(source):
            target[power + offset] += factor * value
        return target

    for resistance, capacitance in zip(reversed(resistances),
                                       reversed(capacitances)):
        # B(s) += s * C * A(s)
        current_poly = poly_add(list(current_poly), voltage_poly, offset=1,
                                factor=capacitance)
        # A(s) += R * B(s)
        voltage_poly = poly_add(list(voltage_poly), current_poly, offset=0,
                                factor=resistance)
    return voltage_poly
