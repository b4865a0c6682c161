"""Accuracy oracles that share no solver code with the library.

The library's own AC analysis runs through ``SweepEngine`` and the same LU
kernels the reference generator uses, so a kernel change would move the
reference and that oracle together.  Here every point is assembled with
``build_mna_system(circuit).assemble(s)`` and solved by ``numpy.linalg.solve``.
"""

from __future__ import annotations

import math

import numpy as np

from repro.mna.builder import build_mna_system

#: Grid points where the oracle's |H| is below this floor (-120 dB) are left
#: out of the reference error: there the comparison measures round-off of two
#: tiny numbers, not the reference.
MAGNITUDE_FLOOR = 1e-6


def mna_response(circuit, spec, frequencies):
    """Complex ``H(j2πf)`` of ``circuit`` at ``spec``'s output, per frequency."""
    system = build_mna_system(circuit)
    positive, negative = spec.output_nodes()
    terms = [(system.node_index(positive), 1.0)]
    if negative is not None:
        terms.append((system.node_index(negative), -1.0))
    response = np.empty(len(frequencies), dtype=complex)
    for k, frequency in enumerate(frequencies):
        matrix = system.assemble(2j * math.pi * frequency).to_dense()
        solution = np.linalg.solve(matrix, system.rhs)
        response[k] = sum(sign * solution[index] for index, sign in terms)
    return response


def reference_error(reference, exact, frequencies):
    """``(max dB error, max degree error, points compared)`` of a reference.

    Only grid points with ``|exact| >= MAGNITUDE_FLOOR`` are compared.
    """
    candidate = reference.frequency_response(frequencies)
    keep = np.abs(exact) >= MAGNITUDE_FLOOR
    if not keep.any():
        raise ValueError("every grid point is below the magnitude floor")
    ratio = candidate[keep] / exact[keep]
    error_db = float(np.max(np.abs(20.0 * np.log10(np.abs(ratio)))))
    error_deg = float(np.max(np.abs(np.degrees(np.angle(ratio)))))
    return error_db, error_deg, int(keep.sum())


def coverage(reference):
    """Share of numerator and denominator coefficients valid or negligible."""
    status = list(reference.numerator.status) + list(reference.denominator.status)
    resolved = sum(1 for value in status if value in ("valid", "negligible"))
    return resolved / len(status)


def ensemble_magnitudes_db(space, values, spec, frequencies):
    """``(M, F)`` oracle magnitudes in dB of the samples in ``values``."""
    rows = [np.abs(mna_response(space.apply(row), spec, frequencies))
            for row in values]
    return 20.0 * np.log10(np.array(rows))
