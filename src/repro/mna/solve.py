"""Frequency-domain solution of MNA systems.

:func:`ac_solve` handles one complex frequency as a one-point sweep;
:func:`ac_sweep` and :func:`ac_factor_sweep` handle whole grids.  All of them
run through the shared sweep engine (:mod:`repro.engine.sweep`), which
assembles the constant (``G``) and frequency-proportional (``C``) parts a
single time and reuses the factorization structure across points: dense
systems go through the vectorized
:func:`~repro.linalg.dense.batched_dense_lu`, sparse systems run the pivot
search once and refactor numerically everywhere else.
"""

from __future__ import annotations

from typing import Union

import numpy as np

from ..engine.sweep import SweepEngine, SweepFactors
from .builder import MnaSystem, build_mna_system

__all__ = ["ac_solve", "ac_sweep", "ac_factor_sweep", "operating_transfer"]

#: Noun used in singular-matrix diagnostics from MNA sweeps.
_SINGULAR_LABEL = "MNA matrix"


def ac_solve(system: Union[MnaSystem, "object"], s, method="auto") -> np.ndarray:
    """Solve the MNA system at complex frequency ``s`` with its own excitation.

    ``system`` may be an :class:`MnaSystem` or a circuit (built on the fly).
    Returns the full unknown vector (node voltages then branch currents):
    the one row of a one-point :func:`ac_sweep`.
    """
    if not isinstance(system, MnaSystem):
        system = build_mna_system(system)
    return SweepEngine(system, method=method,
                       singular_label=_SINGULAR_LABEL).solve_sweep(
                           [s], system.rhs)[0]


def ac_sweep(system: Union[MnaSystem, "object"], s_values,
             method="auto") -> np.ndarray:
    """Solve the MNA system at every complex frequency of ``s_values``.

    The system is built (at most) once and the sweep runs through
    :class:`~repro.engine.sweep.SweepEngine`, which reuses everything that
    does not depend on the frequency: the dense path stacks all matrices and
    factors them in one vectorized pass, the sparse path derives the pivot
    order at the first point and refactors numerically at the others (with a
    fresh factorization as fallback when a reused pivot degrades).

    Parameters
    ----------
    system:
        An :class:`MnaSystem` or a circuit (built on the fly).
    s_values:
        Sequence of complex frequencies.
    method:
        ``"auto"`` (dense at or below the configured
        :func:`~repro.linalg.config.dense_cutoff`), ``"dense"`` or
        ``"sparse"``.

    Returns
    -------
    numpy.ndarray
        ``(K, dimension)`` complex solutions, one row per frequency, in input
        order (node voltages then branch currents, as in :func:`ac_solve`).
    """
    if not isinstance(system, MnaSystem):
        system = build_mna_system(system)
    s = np.asarray(list(s_values), dtype=complex)
    engine = SweepEngine(system, method=method,
                         singular_label=_SINGULAR_LABEL)
    return engine.solve_sweep(s, system.rhs)


def ac_factor_sweep(system: Union[MnaSystem, "object"], s_values,
                    method="auto") -> SweepFactors:
    """Factor the MNA system at every point of a sweep and keep the factors.

    ``system`` may be an :class:`MnaSystem` or a circuit (built on the fly).
    The returned :class:`~repro.engine.sweep.SweepFactors` serves repeated
    solves against the same sweep at O(n²) per right-hand side (the rank-1
    sensitivity screening's baseline); its solutions are bit-identical to
    :func:`ac_sweep`.

    Raises
    ------
    SingularMatrixError
        When the matrix is singular at some sweep point (matching
        :func:`ac_sweep`).
    """
    if not isinstance(system, MnaSystem):
        system = build_mna_system(system)
    engine = SweepEngine(system, method=method,
                         singular_label=_SINGULAR_LABEL)
    return engine.factor_sweep(s_values)


def operating_transfer(system: Union[MnaSystem, "object"], s, output,
                       method="auto") -> complex:
    """Output voltage at complex frequency ``s`` with the circuit's own sources.

    Parameters
    ----------
    output:
        Node name, or ``(positive, negative)`` pair for differential outputs.

    Notes
    -----
    With the input sources set to a unit (or ±half for differential drives)
    AC value, the returned voltage *is* the transfer function value — this is
    exactly what an electrical simulator's ``.AC`` analysis reports and serves
    as the Fig. 2 reference curve.
    """
    if not isinstance(system, MnaSystem):
        system = build_mna_system(system)
    solution = ac_solve(system, s, method=method)
    if isinstance(output, (tuple, list)):
        positive, negative = output
        return (system.node_voltage(solution, positive)
                - system.node_voltage(solution, negative))
    return system.node_voltage(solution, output)
