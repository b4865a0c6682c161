"""Per-point scalar oracle for the sweep engine's equivalence tests.

The library serves every point, single points included, through
:class:`~repro.engine.sweep.SweepEngine`.  This module keeps the per-point
computation those sweeps are checked against: one scalar factorization of
the point's assembled matrix ``g·G + s·f·C``, giving the determinant and the
solve — :func:`~repro.linalg.dense.dense_lu` at or below the dense cutoff, a
fresh Markowitz :func:`~repro.linalg.lu.sparse_lu` above it.

* :func:`oracle_factor` — that factorization;
* :func:`oracle_sample` — the Eqs. (7)–(10) sample built from it, normalized
  as the sampler normalizes its samples;
* :func:`oracle_solve` — an MNA system's solution with its own excitation.
"""

from __future__ import annotations

import math

import numpy as np

from repro.linalg.config import dense_cutoff
from repro.linalg.dense import dense_lu
from repro.linalg.lu import sparse_lu
from repro.nodal.sampler import SampleValue

__all__ = ["oracle_factor", "oracle_sample", "oracle_solve"]


def oracle_factor(formulation, s, conductance_scale=1.0, frequency_scale=1.0,
                  method="auto"):
    """Scalar LU of ``formulation``'s matrix at ``s`` (``method`` as the
    engine's: ``"auto"``, ``"dense"`` or ``"sparse"``)."""
    matrix = formulation.assemble(s, conductance_scale, frequency_scale)
    if method == "dense" or (method == "auto"
                             and formulation.dimension <= dense_cutoff()):
        return dense_lu(matrix)
    return sparse_lu(matrix)


def _normalized(mantissa, exponent):
    """``mantissa · 10**exponent`` with ``|mantissa|`` in [1, 10) (or 0)."""
    if mantissa == 0:
        return 0.0 + 0.0j, 0
    shift = int(math.floor(math.log10(abs(mantissa))))
    if shift:
        mantissa /= 10.0**shift
        exponent += shift
    return mantissa, exponent


def oracle_sample(formulation, s, conductance_scale=1.0, frequency_scale=1.0,
                  method="auto") -> SampleValue:
    """``N(s)`` and ``D(s)`` of a nodal formulation from one scalar LU."""
    factorization = oracle_factor(formulation, s, conductance_scale,
                                  frequency_scale, method)
    mantissa, exponent = factorization.determinant_mantissa_exponent()
    if mantissa == 0:
        return SampleValue(s=complex(s), numerator=(0.0 + 0.0j, 0),
                           denominator=(0.0 + 0.0j, 0))
    if formulation.output_is_forced():
        solution = np.zeros(formulation.dimension, dtype=complex)
    else:
        solution = factorization.solve(
            formulation.rhs(s, conductance_scale, frequency_scale))
    transfer = formulation.output_voltage(solution)
    return SampleValue(s=complex(s),
                       numerator=_normalized(transfer * mantissa, exponent),
                       denominator=(mantissa, exponent))


def oracle_solve(system, s, method="auto") -> np.ndarray:
    """An MNA system's unknowns at ``s`` under its own excitation."""
    return oracle_factor(system, s, method=method).solve(system.rhs)
