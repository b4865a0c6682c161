"""µA741 operational amplifier small-signal macro (Tables 2–3, Fig. 2).

The paper's large example is the µA741: its voltage-gain denominator spans
roughly fifty powers of ``s`` with consecutive coefficients 10^6–10^12 apart,
which is what defeats single-interpolation reference generation and motivates
the adaptive scaling algorithm.

This builder reconstructs the classic Fairchild topology (input stage with
lateral-PNP common-base pair and current-mirror load, Widlar bias core,
Darlington-style second stage with the 30 pF Miller compensation capacitor,
V_BE-multiplier-biased class-AB output stage) as a *small-signal* circuit:

* every transistor is expanded into its hybrid-π equivalent (``gm``, ``gpi``,
  ``go``, ``cpi``, ``cmu``, base resistance and collector-substrate
  capacitance) from textbook bias currents,
* supplies are AC ground,
* the exact foundry parameters of the original device are not public, so the
  absolute coefficient values differ from the paper's Table 2/3 — the
  reproduced claim is the *structure* of the problem: a ~40th-order
  denominator whose coefficients span several hundred decades once
  denormalized.

The netlist is written in the library's SPICE-like syntax and parsed with
:func:`repro.netlist.parser.parse_netlist`, so this module also doubles as an
integration test of the parser + device-expansion pipeline.
"""

from __future__ import annotations

from typing import Tuple

from ..netlist.circuit import Circuit
from ..netlist.parser import parse_netlist
from ..nodal.reduce import TransferSpec

__all__ = ["build_ua741", "build_ua741_macro", "UA741_NETLIST"]


#: SPICE-like source of the µA741 small-signal macro.  Node 0 is AC ground
#: (both supply rails).  Bias currents are the textbook operating point.
UA741_NETLIST = """
* uA741 operational amplifier - small-signal macro
.model npn  npn (beta=200 va=130 tf=0.35n cje=1p  cmu=0.3p rb=200 ccs=2p)
.model pnp  pnp (beta=50  va=50  tf=30n   cje=0.3p cmu=1p  rb=300 ccs=3p)
.model npnout npn (beta=150 va=100 tf=0.4n cje=2p cmu=0.6p rb=100 ccs=3p)
.model pnpout pnp (beta=50  va=60  tf=20n  cje=1p  cmu=1p  rb=150 ccs=3p)

* differential inputs (antisymmetric drive for the differential gain)
Vip inp 0 ac 0.5
Vim inm 0 ac -0.5

* ---- input stage -------------------------------------------------------
* Q1/Q2: NPN emitter followers, Q3/Q4: lateral PNP common base,
* Q5/Q6/Q7: NPN current-mirror load with emitter degeneration.
Q1 n8   inp  e1   npn ic=9.5u
Q2 n8   inm  e2   npn ic=9.5u
Q3 c3   b34  e1   pnp ic=9.5u
Q4 c4   b34  e2   pnp ic=9.5u
Q5 c3   b56  r1t  npn ic=9.5u
Q6 c4   b56  r2t  npn ic=9.5u
Q7 0    c3   b56  npn ic=10u
R1 r1t 0 1k
R2 r2t 0 1k
R3 b56 0 50k

* ---- bias core ---------------------------------------------------------
* Q8/Q9: PNP mirror feeding the input stage, Q10/Q11: Widlar source,
* Q12/Q13: PNP mirror feeding the second and output stages.
Q8  n8   n8    0   pnp ic=19u
Q9  b34  n8    0   pnp ic=19u
Q10 b34  b1011 r4t npn ic=19u
Q11 b1011 b1011 0  npn ic=730u
Q12 b1213 b1213 0  pnp ic=730u
Q13 b14  b1213 0   pnp ic=550u
R4 r4t 0 5k
R5 b1011 b1213 39k

* ---- second stage ------------------------------------------------------
* Q16: emitter follower, Q17: common-emitter gain device, Cc: 30 pF Miller
* compensation from the stage input (c4) to the stage output (c17).
Q16 0   c4   b17 npn ic=16u
Q17 c17 b17  r8t npn ic=550u
R8 r8t 0 100
R9 b17 0 50k
Cc c4 c17 30p

* ---- output stage ------------------------------------------------------
* Q18/Q19: VBE-multiplier bias chain between the output-stage input nodes,
* Q14/Q20: complementary emitter followers with current-sharing resistors.
Q18 b14 b14 mid npn ic=160u
Q19 mid mid c17 npn ic=160u
Q14 0   b14 r6t npnout ic=170u
Q20 0   c17 r7t pnpout ic=170u
R6 r6t out 27
R7 r7t out 22

* ---- load --------------------------------------------------------------
RL out 0 2k
CL out 0 100p
.end
"""


def build_ua741(load_resistance=2e3,
                load_capacitance=100e-12) -> Tuple[Circuit, TransferSpec]:
    """Build the µA741 small-signal circuit and its differential-gain spec.

    Parameters
    ----------
    load_resistance, load_capacitance:
        Output load; the defaults (2 kΩ, 100 pF) are the datasheet test load.

    Returns
    -------
    (Circuit, TransferSpec)
        The spec describes the differential voltage gain
        ``V(out) / (V(inp) - V(inm))`` with the antisymmetric ±0.5 V drive.
    """
    circuit = parse_netlist(UA741_NETLIST, name="ua741")
    if load_resistance != 2e3:
        circuit.replace(type(circuit["RL"])("RL", "out", "0", load_resistance))
    if load_capacitance != 100e-12:
        circuit.replace(type(circuit["CL"])("CL", "out", "0", load_capacitance))
    spec = TransferSpec(inputs=["Vip", "Vim"], output="out")
    return circuit, spec


#: The macro elements that carry tolerance metadata by default: the twelve
#: axes that dominate the closed-loop response spread (input stage, mirror
#: pole, compensation network, output stage and load).  Exactly twelve so
#: corner analysis still runs its full 2^12 factorial
#: (:data:`repro.montecarlo.space._FULL_FACTORIAL_LIMIT`).
UA741_MACRO_TOLERANCED = ("Rb1", "Rb2", "Cdm", "Rt", "Rdm", "Cc",
                          "Rz", "Rc2", "Rout", "RL", "CL", "G1")


def build_ua741_macro(tolerance=0.05, distribution="gaussian", *,
                      toleranced=True) -> Tuple[Circuit, TransferSpec]:
    """Behavioral µA741 macromodel: the symbolic-analysis-scale twin.

    The transistor-level macro of :func:`build_ua741` has a 39-unknown nodal
    matrix whose *flat* determinant is astronomically large — exactly the
    situation the paper's SDG/SBG error control exists for, and far beyond any
    exact sum-of-products expansion.  This builder provides the classic
    three-stage behavioral macromodel of the same amplifier (Boyle-style:
    differential input stage with mirror pole and common-mode tail, emitter
    follower interstage, Miller-compensated second stage with nulling
    resistor, resistive output stage into the datasheet load) at the size
    symbolic network functions are actually generated at — ten unknown
    nodes, every element value distinct so term magnitudes never tie exactly.

    It is the symbolic workload of the compiled-model benchmark: large
    enough that exact generation is real work, small enough that the
    minor-memoized expansion finishes in about a second.

    Parameters
    ----------
    tolerance, distribution:
        :class:`~repro.netlist.elements.Tolerance` metadata attached to the
        :data:`UA741_MACRO_TOLERANCED` elements (±5 % gaussian by default),
        so Monte Carlo / compiled-model workloads get a ready
        tolerance-annotated symbolic circuit without hand-decorating.
        Metadata only — the design-point numerics are unchanged.
    toleranced:
        Pass ``False`` to opt out (no tolerance metadata; matches the
        pre-tolerance fingerprint).

    Returns
    -------
    (Circuit, TransferSpec)
        Differential voltage gain ``V(out) / (V(inp) - V(inm))`` with the
        antisymmetric ±0.5 V drive, like :func:`build_ua741`.
    """
    circuit = Circuit("ua741-macro", "uA741 behavioral macromodel")
    circuit.add_voltage_source("Vip", "inp", "0", +0.5)
    circuit.add_voltage_source("Vim", "inm", "0", -0.5)

    # Input stage: base spreading resistances, input capacitances, the
    # differential capacitance, and the common-mode tail node.
    circuit.add_resistor("Rb1", "inp", "b1", 200.0)
    circuit.add_resistor("Rb2", "inm", "b2", 205.0)
    circuit.add_capacitor("Cb1", "b1", "0", 1.4e-12)
    circuit.add_capacitor("Cb2", "b2", "0", 1.5e-12)
    circuit.add_capacitor("Cdm", "b1", "b2", 0.7e-12)
    circuit.add_capacitor("Ce1", "b1", "t", 0.9e-12)
    circuit.add_capacitor("Ce2", "b2", "t", 1.0e-12)
    circuit.add_resistor("Rt", "t", "0", 1.8e6)
    circuit.add_capacitor("Ct", "t", "0", 2.3e-12)

    # Differential transconductance into the first-stage output d1, with the
    # current-mirror pole modelled on its own node dm.
    circuit.add_vccs("G1", "d1", "0", "b1", "b2", 190e-6)
    circuit.add_vccs("Gmir", "dm", "0", "b2", "b1", 92e-6)
    circuit.add_resistor("Rdm", "dm", "0", 2.4e4)
    circuit.add_capacitor("Cdm2", "dm", "0", 4.3e-12)
    circuit.add_vccs("Gm2", "d1", "0", "dm", "0", 96e-6)
    circuit.add_resistor("Rd1", "d1", "0", 6.7e6)
    circuit.add_capacitor("Cd1", "d1", "0", 1.8e-12)

    # Emitter-follower interstage into the second-stage input m1.
    circuit.add_resistor("Rf", "d1", "m1", 2.6e4)
    circuit.add_resistor("Rm1", "m1", "0", 4.9e6)
    circuit.add_capacitor("Cm1", "m1", "0", 2.6e-12)

    # Second stage with the 30 pF Miller compensation through the nulling
    # resistor node x.
    circuit.add_vccs("G2", "c2", "0", "m1", "0", 6.5e-3)
    circuit.add_resistor("Rc2", "c2", "0", 4.8e5)
    circuit.add_capacitor("Cc2", "c2", "0", 5.1e-12)
    circuit.add_capacitor("Cc", "m1", "x", 30e-12)
    circuit.add_resistor("Rz", "x", "c2", 60.0)

    # Class-AB output stage: follower drive node e, current-sharing
    # resistance into the datasheet test load.
    circuit.add_vccs("Go", "e", "0", "c2", "e", 38e-3)
    circuit.add_resistor("Ro", "e", "0", 3.3e4)
    circuit.add_capacitor("Co", "c2", "e", 10.5e-12)
    circuit.add_resistor("Rout", "e", "out", 47.0)
    circuit.add_capacitor("Cf2", "c2", "out", 3.2e-12)
    circuit.add_resistor("RL", "out", "0", 2e3)
    circuit.add_capacitor("CL", "out", "0", 100e-12)

    if toleranced:
        for name in UA741_MACRO_TOLERANCED:
            circuit.replace(
                circuit[name].with_tolerance(tolerance, distribution))

    spec = TransferSpec(inputs=["Vip", "Vim"], output="out")
    return circuit, spec
