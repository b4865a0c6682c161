"""Quickstart: generate a numerical reference for an RC ladder.

The example builds a 10-section RC ladder, generates the numerical reference
(network-function coefficients with only ``s`` symbolic) using the adaptive
scaling interpolation, verifies the coefficients against the ladder's exact
polynomial recursion and prints a small Bode table.

Run with::

    python examples/quickstart.py
"""

import numpy as np

from repro import build_rc_ladder, generate_reference
from repro.circuits.rc_ladder import rc_ladder_denominator_coefficients


def main():
    stages = 10
    resistances = [1e3 * (1 + 0.5 * i) for i in range(stages)]
    capacitances = [1e-9 / (1 + 0.7 * i) for i in range(stages)]
    circuit, spec = build_rc_ladder(stages, resistances, capacitances)

    print(f"circuit: {circuit.name} ({len(circuit)} elements, "
          f"{len(circuit.nodes)} nodes)")
    print(f"transfer function: {spec.describe()}")
    print()

    reference = generate_reference(circuit, spec)
    print(reference.summary())
    print()

    # The ladder's denominator has an exact polynomial recursion — compare.
    expected = rc_ladder_denominator_coefficients(resistances, capacitances)
    denominator = reference.coefficients("denominator")
    scale = float(denominator[0])
    print("denominator coefficients (normalized to d0 = 1):")
    print(f"{'power':>6} | {'interpolated':>14} | {'exact recursion':>15} | rel. error")
    for power, exact in enumerate(expected):
        interpolated = float(denominator[power]) / scale
        relative = abs(interpolated - exact) / abs(exact)
        print(f"{power:>6} | {interpolated:>14.6e} | {exact:>15.6e} | {relative:.2e}")
    print()

    frequencies = np.logspace(2, 7, 11)
    magnitude, phase = reference.bode(frequencies)
    print("Bode table of the reference transfer function:")
    print(f"{'f [Hz]':>10} | {'mag [dB]':>9} | {'phase [deg]':>11}")
    for f, m, p in zip(frequencies, magnitude, phase):
        print(f"{f:>10.3g} | {m:>9.2f} | {p:>11.1f}")


if __name__ == "__main__":
    main()
