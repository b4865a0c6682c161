"""Reference accuracy at post-layout size — the title's "large circuits".

One seeded nodal n≈200 circuit per generator family runs through
:func:`~repro.interpolation.reference.generate_reference`, which puts it on
the sparse path (pivot search once, compiled refactorization over every
interpolation sweep).  The reference is checked on Fig. 2's grid against an
oracle that shares no solver code with the library: per point,
``build_mna_system(circuit).assemble(s)`` solved by ``numpy.linalg.solve``.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.circuits.generators import build_generator
from repro.interpolation.reference import generate_reference
from repro.linalg.config import dense_cutoff
from repro.mna.builder import build_mna_system

#: Fig. 2's grid: 1 Hz to 100 MHz, 8 points per decade.
FIG2_GRID = np.logspace(0.0, 8.0, 65)
#: Points where the oracle's |H| is below -120 dB compare round-off of two
#: tiny numbers, not the reference.
MAGNITUDE_FLOOR = 1e-6
MAX_ERROR_DB = 0.3
MAX_ERROR_DEG = 2.0


def _oracle(circuit, spec, frequencies):
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


@pytest.mark.parametrize("family,seed", [("tree", 1), ("bus", 2),
                                         ("mesh", 3)])
def test_reference_matches_ac_oracle(family, seed):
    circuit, spec = build_generator(family, 200, seed=seed)
    reference = generate_reference(circuit, spec)
    assert reference.converged
    statuses = (list(reference.numerator.status)
                + list(reference.denominator.status))
    assert all(status in ("valid", "negligible") for status in statuses)

    exact = _oracle(circuit, spec, FIG2_GRID)
    keep = np.abs(exact) >= MAGNITUDE_FLOOR
    assert keep.sum() >= len(FIG2_GRID) // 2
    ratio = reference.frequency_response(FIG2_GRID)[keep] / exact[keep]
    error_db = float(np.max(np.abs(20.0 * np.log10(np.abs(ratio)))))
    error_deg = float(np.max(np.abs(np.degrees(np.angle(ratio)))))
    assert error_db <= MAX_ERROR_DB, (family, error_db)
    assert error_deg <= MAX_ERROR_DEG, (family, error_deg)


def test_the_families_run_above_the_dense_cutoff():
    from repro.netlist.transform import to_admittance_form
    from repro.nodal.admittance import build_nodal_formulation

    for family in ("tree", "bus", "mesh"):
        circuit, spec = build_generator(family, 200, seed=1)
        formulation = build_nodal_formulation(to_admittance_form(circuit),
                                              spec)
        assert formulation.dimension > dense_cutoff(), family
