"""Expansion of device small-signal models into primitive circuit elements.

The expansion functions stamp a device's small-signal equivalent into a
:class:`~repro.netlist.circuit.Circuit` using only admittance-form primitives
(conductors, capacitors, VCCSs), so expanded circuits are directly usable by
the interpolation engine.  Zero-valued parameters are skipped to keep the
element count (and the symbolic term count) minimal.

Element naming convention: ``<device>.<parameter>`` — e.g. expanding MOSFET
``M1`` adds ``M1.gm``, ``M1.gds``, ``M1.cgs`` …  This makes symbolic terms and
SBG rankings readable.
"""

from __future__ import annotations

from ..netlist.elements import GROUND
from .bjt import BjtSmallSignal
from .diode import DiodeSmallSignal
from .mosfet import MosfetSmallSignal

__all__ = ["expand_mosfet", "expand_bjt", "expand_diode"]


def _add_conductor(circuit, name, a, b, value):
    if value != 0.0 and a != b:
        circuit.add_conductor(name, a, b, value)


def _add_capacitor(circuit, name, a, b, value):
    if value != 0.0 and a != b:
        circuit.add_capacitor(name, a, b, value)


def _add_vccs(circuit, name, a, b, cp, cn, value):
    if value != 0.0 and not (a == b or cp == cn):
        circuit.add_vccs(name, a, b, cp, cn, value)


def expand_mosfet(circuit, name, drain, gate, source, bulk, model):
    """Stamp the small-signal equivalent of a MOSFET into ``circuit``.

    Parameters
    ----------
    circuit:
        Target circuit (modified in place).
    name:
        Device instance name used as the prefix of the created elements.
    drain, gate, source, bulk:
        Terminal node names.
    model:
        A :class:`~repro.devices.mosfet.MosfetSmallSignal`.

    Returns
    -------
    list of str
        Names of the elements that were added.
    """
    if not isinstance(model, MosfetSmallSignal):
        raise TypeError("model must be a MosfetSmallSignal")
    before = set(e.name for e in circuit)
    _add_vccs(circuit, f"{name}.gm", drain, source, gate, source, model.gm)
    _add_vccs(circuit, f"{name}.gmb", drain, source, bulk, source, model.gmb)
    _add_conductor(circuit, f"{name}.gds", drain, source, model.gds)
    _add_capacitor(circuit, f"{name}.cgs", gate, source, model.cgs)
    _add_capacitor(circuit, f"{name}.cgd", gate, drain, model.cgd)
    _add_capacitor(circuit, f"{name}.cgb", gate, bulk, model.cgb)
    _add_capacitor(circuit, f"{name}.cdb", drain, bulk, model.cdb)
    _add_capacitor(circuit, f"{name}.csb", source, bulk, model.csb)
    return [e.name for e in circuit if e.name not in before]


def expand_bjt(circuit, name, collector, base, emitter, model,
               substrate=GROUND):
    """Stamp the hybrid-π equivalent of a BJT into ``circuit``.

    When the model has a non-zero base resistance an internal node
    ``<name>.b`` is created between the external base and the intrinsic base.
    The collector-substrate capacitance ``ccs`` connects the collector to
    ``substrate`` (ground by default, matching a small-signal AC analysis where
    supplies are AC ground).

    Returns
    -------
    list of str
        Names of the elements that were added.
    """
    if not isinstance(model, BjtSmallSignal):
        raise TypeError("model must be a BjtSmallSignal")
    before = set(e.name for e in circuit)
    intrinsic_base = base
    if model.rb > 0.0:
        intrinsic_base = f"{name}.b"
        circuit.add_conductor(f"{name}.gb", base, intrinsic_base, 1.0 / model.rb)
    _add_conductor(circuit, f"{name}.gpi", intrinsic_base, emitter, model.gpi)
    _add_capacitor(circuit, f"{name}.cpi", intrinsic_base, emitter, model.cpi)
    _add_capacitor(circuit, f"{name}.cmu", intrinsic_base, collector, model.cmu)
    _add_vccs(circuit, f"{name}.gm", collector, emitter, intrinsic_base, emitter,
              model.gm)
    _add_conductor(circuit, f"{name}.go", collector, emitter, model.go)
    _add_capacitor(circuit, f"{name}.ccs", collector, substrate, model.ccs)
    return [e.name for e in circuit if e.name not in before]


def expand_diode(circuit, name, anode, cathode, model):
    """Stamp the small-signal equivalent of a diode into ``circuit``.

    Returns
    -------
    list of str
        Names of the elements that were added.
    """
    if not isinstance(model, DiodeSmallSignal):
        raise TypeError("model must be a DiodeSmallSignal")
    before = set(e.name for e in circuit)
    _add_conductor(circuit, f"{name}.gd", anode, cathode, model.gd)
    _add_capacitor(circuit, f"{name}.cd", anode, cathode, model.cd)
    return [e.name for e in circuit if e.name not in before]
