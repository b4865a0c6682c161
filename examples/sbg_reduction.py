"""SBG circuit reduction driven by the numerical reference.

Uses the numerical reference of the two-stage Miller OTA as the error-control
baseline for simplification *before* generation: elements whose removal keeps
the frequency response within ε of the reference are deleted from the circuit,
and the symbolic expression of the reduced circuit is compared (in term count
and in accuracy) with that of the full circuit.

Run with::

    python examples/sbg_reduction.py
"""

import numpy as np

from repro import build_miller_ota, generate_reference
from repro.analysis.ac import ACAnalysis
from repro.symbolic.generation import symbolic_network_function
from repro.symbolic.sbg import simplification_before_generation


def main():
    circuit, spec = build_miller_ota()
    reference = generate_reference(circuit, spec)
    print(reference.summary())
    print()

    epsilon = 0.05
    result = simplification_before_generation(circuit, spec, reference,
                                              epsilon=epsilon)
    print(result.summary())
    print()
    print("removed elements (least influential first):")
    for removal in result.removals:
        print(f"  {removal.element:<12} individual error {removal.individual_error:.2e}, "
              f"accumulated {removal.accumulated_error:.2e}")
    print()

    full = symbolic_network_function(circuit, spec)
    reduced = symbolic_network_function(result.reduced, spec)
    print(f"symbolic terms, full circuit    : numerator {full.term_count()[0]}, "
          f"denominator {full.term_count()[1]}")
    print(f"symbolic terms, reduced circuit : numerator {reduced.term_count()[0]}, "
          f"denominator {reduced.term_count()[1]}")
    print()

    frequencies = np.logspace(1, 9, 17)
    full_response = ACAnalysis(circuit, spec).frequency_response(frequencies)
    reduced_response = ACAnalysis(result.reduced, spec).frequency_response(frequencies)
    worst = float(np.max(np.abs(reduced_response - full_response)
                         / np.abs(full_response)))
    print(f"worst-case response deviation of the reduced circuit: {worst:.2e} "
          f"(budget {epsilon})")


if __name__ == "__main__":
    main()
