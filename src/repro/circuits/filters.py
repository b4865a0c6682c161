"""Active RC filter examples.

Two classic filter topologies built around ideal-ish transconductance /
integrator macromodels:

* a Sallen-Key low-pass (unity-gain buffer modelled as a high-gm VCCS with
  finite output conductance),
* a Tow-Thomas two-integrator biquad (each op-amp modelled as a single-pole
  transconductance stage).

Both have second-order transfer functions with textbook ``ω_0`` / ``Q``
formulas, which the tests compare against the interpolated references.
"""

from __future__ import annotations

from typing import Tuple

from ..netlist.circuit import Circuit
from ..nodal.reduce import TransferSpec

__all__ = ["build_sallen_key_lowpass", "build_tow_thomas_biquad"]


def _add_buffer(circuit, name, input_node, output_node, gm=1.0,
                output_conductance=None):
    """Unity-gain buffer: VCCS of transconductance ``gm`` driving its own
    output conductance ``gm`` (so the ideal gain is 1) at ``output_node``."""
    output_conductance = gm if output_conductance is None else output_conductance
    circuit.add_vccs(f"{name}.gm", output_node, "0", input_node, "0", gm)
    circuit.add_conductor(f"{name}.go", output_node, "0", output_conductance)


def build_sallen_key_lowpass(r1=10e3, r2=10e3, c1=10e-9, c2=5e-9,
                             buffer_gm=1.0) -> Tuple[Circuit, TransferSpec]:
    """Unity-gain Sallen-Key low-pass filter.

    With an ideal buffer the transfer function is
    ``1 / (1 + s C2 (R1 + R2) + s² R1 R2 C1 C2)``; the finite-gm buffer model
    perturbs it slightly (the interpolated reference captures the true
    behaviour, the formula is the design intent).

    Returns
    -------
    (Circuit, TransferSpec)
    """
    circuit = Circuit("sallen-key", "Sallen-Key low-pass filter")
    circuit.add_voltage_source("vin", "in", "0", 1.0)
    circuit.add_resistor("R1", "in", "n1", r1)
    circuit.add_resistor("R2", "n1", "n2", r2)
    circuit.add_capacitor("C2", "n2", "0", c2)
    # The feedback capacitor returns to the buffer output.
    circuit.add_capacitor("C1", "n1", "out", c1)
    _add_buffer(circuit, "buf", "n2", "out", gm=buffer_gm)
    spec = TransferSpec(inputs=["vin"], output="out")
    return circuit, spec


def build_tow_thomas_biquad(r=10e3, c=10e-9, q_factor=2.0,
                            integrator_gm=10.0) -> Tuple[Circuit, TransferSpec]:
    """Tow-Thomas two-integrator biquad (low-pass output).

    Each op-amp is modelled as a transconductor of ``integrator_gm`` siemens
    loaded by its feedback network, which approximates the ideal integrator /
    inverter behaviour while staying in admittance form.

    Returns
    -------
    (Circuit, TransferSpec)
    """
    circuit = Circuit("tow-thomas", "Tow-Thomas biquad (low-pass output)")
    circuit.add_voltage_source("vin", "in", "0", 1.0)
    rq = q_factor * r

    # First (lossy) integrator: input summing through R, damping through RQ,
    # integration capacitor C around an inverting transconductor.
    circuit.add_resistor("Rin", "in", "x1", r)
    circuit.add_resistor("RQ", "v1", "x1", rq)
    circuit.add_capacitor("C1", "x1", "v1", c)
    circuit.add_vccs("A1.gm", "v1", "0", "x1", "0", integrator_gm)
    circuit.add_conductor("A1.go", "v1", "0", 1e-6)

    # Second integrator.
    circuit.add_resistor("R2", "v1", "x2", r)
    circuit.add_capacitor("C2", "x2", "v2", c)
    circuit.add_vccs("A2.gm", "v2", "0", "x2", "0", integrator_gm)
    circuit.add_conductor("A2.go", "v2", "0", 1e-6)

    # Inverting feedback from the second integrator back to the first summer.
    circuit.add_resistor("R3", "v2", "x3", r)
    circuit.add_vccs("A3.gm", "v3", "0", "x3", "0", integrator_gm)
    circuit.add_conductor("A3.go", "v3", "0", 1e-6)
    circuit.add_resistor("R4", "v3", "x3", r)
    circuit.add_resistor("R5", "v3", "x1", r)

    spec = TransferSpec(inputs=["vin"], output="v2")
    return circuit, spec
