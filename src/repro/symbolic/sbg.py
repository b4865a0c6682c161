"""Simplification before generation (SBG) using the numerical reference.

SBG removes from the *circuit* those elements whose contribution to the
network function is negligible, replacing them with opens (zero admittance) —
the reduced circuit is then cheap to analyse symbolically.  The error control
compares the response of the candidate reduced circuit with the numerical
reference of the full circuit over a frequency grid, exactly the "numerical
estimate of the complete (exact) expression" the paper says SBG needs.

The driver is greedy: elements are ranked by their individual removal error
(least influential first) and removed one at a time while the accumulated
deviation from the reference stays below the error budget.
"""

from __future__ import annotations

import dataclasses
import math
from typing import List

import numpy as np

from ..analysis.ac import ACAnalysis
from ..analysis.sensitivity import element_sensitivities
from ..errors import (FormulationError, SimplificationError,
                      SingularMatrixError)
from ..netlist.circuit import Circuit

__all__ = ["SBGResult", "simplification_before_generation"]


@dataclasses.dataclass
class SBGRemoval:
    """One accepted element removal and the deviation after it."""

    element: str
    individual_error: float
    accumulated_error: float


@dataclasses.dataclass
class SBGResult:
    """Outcome of the SBG circuit reduction."""

    original: Circuit
    reduced: Circuit
    removals: List[SBGRemoval]
    rejected: List[str]
    final_error: float
    epsilon: float
    frequencies: np.ndarray

    @property
    def removed_names(self) -> List[str]:
        """Names of every removed element."""
        return [removal.element for removal in self.removals]

    def element_reduction(self) -> float:
        """Fraction of candidate elements removed."""
        total = len(self.removals) + len(self.rejected)
        original_count = len(self.original)
        if original_count == 0:
            return 0.0
        return len(self.removals) / original_count

    def summary(self) -> str:
        """One-line human-readable summary."""
        return (
            f"SBG @ ε={self.epsilon:g}: removed {len(self.removals)} of "
            f"{len(self.original)} elements (final deviation "
            f"{self.final_error:.3g})"
        )

    def generate_symbolic(self, spec, max_terms=None, session=None):
        """Symbolic network function of the *reduced* circuit.

        This is the second half of the paper's SBG workflow: reduce first,
        then generate — the reduced circuit's determinant fits term budgets
        the full circuit would blow.  Runs on the minor-memoized kernel, so
        ``max_terms`` bounds distinct terms; pass ``session`` to cache the
        result (and its determinant engine) under the reduced circuit's
        fingerprint.
        """
        from .determinant import DEFAULT_MAX_TERMS
        from .generation import symbolic_network_function

        if max_terms is None:
            max_terms = DEFAULT_MAX_TERMS
        return symbolic_network_function(self.reduced, spec,
                                         max_terms=max_terms,
                                         session=session)


def _reference_response(reference, frequencies):
    return reference.frequency_response(frequencies)


def _relative_deviation(reference_response, candidate_response) -> float:
    scale = np.maximum(np.abs(reference_response), np.finfo(float).tiny)
    return float(np.max(np.abs(candidate_response - reference_response) / scale))


def simplification_before_generation(circuit, spec, reference, epsilon=0.05,
                                     frequencies=None, candidates=None,
                                     session=None) -> SBGResult:
    """Reduce ``circuit`` against its numerical reference.

    Parameters
    ----------
    circuit, spec:
        The full circuit and the transfer specification used for the reference.
    reference:
        :class:`~repro.interpolation.reference.NumericalReference` of the full
        circuit.
    epsilon:
        Maximum allowed relative deviation of the reduced circuit's response
        from the reference over the frequency grid.
    frequencies:
        Frequency grid in hertz (default: 30 points per decade from 1 Hz to
        1 GHz).
    candidates:
        Element names eligible for removal (default: all passive admittances
        and VCCS elements that are not input sources).
    session:
        Optional :class:`~repro.engine.session.AnalysisSession`.  The
        element screening and the full-circuit baseline then reuse whatever
        an earlier stage (Bode, sensitivity) already built — in a chained
        workload the expensive baseline factorization happens exactly once.
        Candidate (reduced) circuits are evaluated outside the session: each
        is visited once, so caching them would only grow memory.

    Returns
    -------
    SBGResult
    """
    if epsilon <= 0.0:
        raise SimplificationError("epsilon must be positive")
    if frequencies is None:
        frequencies = np.logspace(0, 9, 46)
    frequencies = np.asarray(frequencies, dtype=float)
    output_pos, output_neg = spec.output_nodes()
    output = output_pos if output_neg is None else (output_pos, output_neg)

    reference_response = _reference_response(reference, frequencies)

    influences = element_sensitivities(circuit, output, frequencies,
                                       elements=candidates, session=session)
    current = circuit.copy(f"{circuit.name}-sbg")
    removals: List[SBGRemoval] = []
    rejected: List[str] = []
    final_error = _relative_deviation(
        reference_response,
        ACAnalysis(current, output,
                   session=session).frequency_response(frequencies),
    )

    for influence in influences:
        if influence.removal_error == math.inf:
            rejected.append(influence.name)
            continue
        candidate = current.with_element_removed(influence.name)
        try:
            candidate_response = ACAnalysis(candidate, output).frequency_response(
                frequencies)
        except (FormulationError, SingularMatrixError):
            # Only "this reduced circuit cannot be solved" disqualifies the
            # removal; anything else (bad element names, plain bugs) must
            # propagate instead of silently shrinking the search space.
            rejected.append(influence.name)
            continue
        deviation = _relative_deviation(reference_response, candidate_response)
        if deviation <= epsilon:
            current = candidate
            final_error = deviation
            removals.append(SBGRemoval(
                element=influence.name,
                individual_error=influence.removal_error,
                accumulated_error=deviation,
            ))
        else:
            rejected.append(influence.name)

    return SBGResult(
        original=circuit,
        reduced=current,
        removals=removals,
        rejected=rejected,
        final_error=final_error,
        epsilon=epsilon,
        frequencies=frequencies,
    )
