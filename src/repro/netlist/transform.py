"""Admittance-form circuit transformations.

The interpolation engine relies on the exact bookkeeping of Eq. (11) in the
paper (``p'_i = p_i f^i g^(M-i)``), which holds when every term of the nodal
determinant is a product of exactly ``M`` admittances.  That is the case for
circuits made only of conductances, capacitances and VCCS elements (plus
excitation sources).  This module transforms more general circuits into that
form where an exact transformation exists:

* :func:`transform_inductors` replaces every inductor with a gyrator-C
  equivalent (two unit-transconductance VCCSs plus a grounded capacitor of
  value ``L``), following the transformation methods referenced by the paper
  (Lin, *Symbolic Network Analysis*).
* :func:`norton_transform_sources` converts voltage sources with a series
  resistor into Norton equivalents.
* :func:`merge_parallel_admittances` merges parallel capacitors and parallel
  conductances between identical node pairs, which tightens the polynomial
  order estimate (one capacitor per independent node pair).
* :func:`to_admittance_form` applies the above and verifies the result only
  contains admittance-form elements (input sources excepted).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Tuple

from ..errors import FormulationError
from .circuit import Circuit
from .elements import (
    CCCS,
    CCVS,
    Capacitor,
    Conductor,
    GROUND,
    Inductor,
    Resistor,
    VCVS,
    VoltageSource,
)

__all__ = [
    "transform_inductors",
    "norton_transform_sources",
    "merge_parallel_admittances",
    "to_admittance_form",
]


def transform_inductors(circuit, gyrator_gm=1.0):
    """Return a copy of ``circuit`` with every inductor replaced by a gyrator-C.

    An inductor ``L`` between nodes ``a`` and ``b`` has admittance
    ``1 / (s L)``.  The equivalent uses an internal node ``x``:

    * a VCCS injecting ``gm * (V_a - V_b)`` into ``x``,
    * a capacitor of value ``L * gm**2`` from ``x`` to ground,
    * a VCCS drawing ``gm * V_x`` from ``a`` to ``b``.

    With ``gm = 1`` the branch current is ``(V_a - V_b) / (s L)`` — exactly the
    inductor — and both added elements are admittance-form.
    """
    result = Circuit(circuit.name, circuit.title)
    for element in circuit:
        if not isinstance(element, Inductor):
            result.add(element)
            continue
        internal = f"{element.name}.gyr"
        a, b = element.node_pos, element.node_neg
        cap_value = element.value * gyrator_gm * gyrator_gm
        # Current gm*(Va-Vb) flows *into* node x: source from x to ground with
        # negative transconductance, per the VCCS sign convention (current
        # leaves node_pos).
        result.add_vccs(f"{element.name}.gy1", internal, GROUND, a, b, -gyrator_gm)
        result.add_capacitor(f"{element.name}.cl", internal, GROUND, cap_value)
        result.add_vccs(f"{element.name}.gy2", a, b, internal, GROUND, gyrator_gm)
    return result


def norton_transform_sources(circuit):
    """Convert voltage sources that have a single series resistor to Norton form.

    A voltage source ``V`` in series with resistor ``R`` (sharing one exclusive
    internal node) becomes a current source ``V / R`` in parallel with ``R``.
    Sources that are not in such a configuration are left untouched.
    """
    result = circuit.copy()
    touch: Dict[str, List[str]] = defaultdict(list)
    for element in result:
        for node in element.nodes[:2]:
            touch[node].append(element.name)

    for source in list(result.elements_of_type(VoltageSource)):
        for shared, other_terminal in ((source.node_pos, source.node_neg),
                                       (source.node_neg, source.node_pos)):
            if shared == GROUND:
                continue
            attached = touch[shared]
            if len(attached) != 2:
                continue
            partner_name = next(n for n in attached if n != source.name)
            partner = result[partner_name]
            if not isinstance(partner, Resistor):
                continue
            far_node = (partner.node_neg if partner.node_pos == shared
                        else partner.node_pos)
            resistance = partner.value
            current = source.value / resistance
            result.remove(source.name)
            result.remove(partner.name)
            # Norton: current source from far_node to other_terminal, with the
            # resistor across the same pair.
            result.add_resistor(partner.name, far_node, other_terminal, resistance)
            result.add_current_source(source.name, other_terminal, far_node, current)
            break
    # Rebuild the circuit so nodes that lost all their elements (the internal
    # node between a transformed source and its resistor) disappear from the
    # node registry.
    rebuilt = Circuit(result.name, result.title)
    for element in result:
        rebuilt.add(element)
    return rebuilt


def merge_parallel_admittances(circuit):
    """Merge parallel capacitors and parallel conductances/resistors.

    Elements between the same (unordered) node pair are combined: capacitances
    add, conductances add.  VCCS elements and sources are never merged.  The
    merged element keeps the name of the first element of the group.
    """
    result = Circuit(circuit.name, circuit.title)
    cap_groups: Dict[Tuple[str, str], List[Capacitor]] = defaultdict(list)
    cond_groups: Dict[Tuple[str, str], List] = defaultdict(list)

    def pair_key(element):
        return tuple(sorted((element.node_pos, element.node_neg)))

    for element in circuit:
        if isinstance(element, Capacitor):
            cap_groups[pair_key(element)].append(element)
        elif isinstance(element, (Resistor, Conductor)):
            cond_groups[pair_key(element)].append(element)
        else:
            result.add(element)

    for group in cap_groups.values():
        total = sum(e.value for e in group)
        first = group[0]
        result.add_capacitor(first.name, first.node_pos, first.node_neg, total)

    for group in cond_groups.values():
        total = 0.0
        for e in group:
            total += (1.0 / e.value) if isinstance(e, Resistor) else e.value
        first = group[0]
        result.add_conductor(first.name, first.node_pos, first.node_neg, total)

    return result


def to_admittance_form(circuit, merge_parallel=False):
    """Return an admittance-form copy of ``circuit``.

    Applies :func:`transform_inductors` and (optionally)
    :func:`merge_parallel_admittances`, then verifies that only admittance-form
    elements plus independent sources remain.

    Raises
    ------
    FormulationError
        If VCVS / CCCS / CCVS elements remain — these have no exact
        admittance-form equivalent and require the MNA formulation.
    """
    result = transform_inductors(circuit)
    if merge_parallel:
        result = merge_parallel_admittances(result)
    offenders = [e.name for e in result.elements_of_type(VCVS, CCCS, CCVS)]
    if offenders:
        raise FormulationError(
            "circuit contains non-admittance controlled sources "
            f"({', '.join(offenders)}); use the MNA analysis instead or model "
            "them with VCCS/conductance equivalents"
        )
    return result
