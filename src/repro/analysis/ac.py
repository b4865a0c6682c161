"""Direct numeric AC analysis of a circuit.

:class:`ACAnalysis` performs the classical small-signal frequency sweep: the
full MNA system is assembled once, solved at every frequency with the
circuit's own source values as excitation, and the requested output voltage is
recorded.  This is what a commercial electrical simulator's ``.AC`` analysis
does and is the reference curve of Fig. 2.  Whole-grid sweeps route through
the batched engine of :func:`repro.mna.solve.ac_sweep` (matrix parts
assembled once, factorization structure shared across points).
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np

from ..mna.builder import build_mna_system
from ..mna.solve import ac_sweep as mna_ac_sweep, operating_transfer
from ..nodal.reduce import _normalize_output

__all__ = ["ACAnalysis", "ac_sweep"]


class ACAnalysis:
    """Reusable AC analysis of one circuit.

    Parameters
    ----------
    circuit:
        Any circuit supported by the MNA builder (no admittance-form
        restriction).
    output:
        Node name, ``(positive, negative)`` pair, or a
        :class:`~repro.nodal.reduce.TransferSpec` (its output is used; its
        sources are assumed to carry their drive values already).
    method:
        LU backend selection (``"auto"``, ``"dense"``, ``"sparse"``).
    session:
        Optional :class:`~repro.engine.session.AnalysisSession`.  When given,
        the MNA system comes from the session cache and whole-grid sweeps
        reuse the session's kept factorizations — repeating a grid (or
        running one after a screening pass factored it) skips the O(n³)
        work.  Results are bit-identical to the session-less path: both
        analyse the *snapshot* taken at construction (the circuit's content
        hash is pinned here), so mutating the circuit in place afterwards
        cannot mix old and new artifacts.
    """

    def __init__(self, circuit, output, method="auto", session=None):
        self.circuit = circuit
        self.output = _normalize_output(output)
        self.method = method
        self._session = session
        if session is not None:
            self._fingerprint = session.fingerprint(circuit)
            self.system = session.mna_system(circuit,
                                             fingerprint=self._fingerprint)
        else:
            self._fingerprint = None
            self.system = build_mna_system(circuit)
        #: Number of sweep points LU-processed so far.  Batched sweeps count
        #: one per point even when the sparse path served most points by
        #: cheap structure-reusing refactorization.
        self.factorization_count = 0

    def value_at(self, s) -> complex:
        """Output voltage (per the circuit's own excitation) at complex ``s``."""
        value = operating_transfer(self.system, s, self.output,
                                   method=self.method)
        self.factorization_count += 1
        return value

    def frequency_response(self, frequencies) -> np.ndarray:
        """Complex output over an array of frequencies in hertz (batched)."""
        frequencies = np.asarray(frequencies, dtype=float)
        s = 2j * math.pi * frequencies
        if self._session is not None:
            misses_before = self._session.misses
            sweep = self._session.factored_sweep(
                self.circuit, s, method=self.method,
                system=self.system, fingerprint=self._fingerprint)
            solutions = sweep.solve(self.system.rhs)
            # A pure cache hit performed no LU work — only count points the
            # session actually had to factor.
            if self._session.misses != misses_before:
                self.factorization_count += len(frequencies)
        else:
            solutions = mna_ac_sweep(self.system, s, method=self.method)
            self.factorization_count += len(frequencies)
        if isinstance(self.output, (tuple, list)):
            positive, negative = self.output
            return (self.system.node_voltages(solutions, positive)
                    - self.system.node_voltages(solutions, negative))
        return self.system.node_voltages(solutions, self.output)

    def bode(self, frequencies) -> Tuple[np.ndarray, np.ndarray]:
        """``(magnitude_db, phase_deg)`` over ``frequencies`` (hertz)."""
        response = self.frequency_response(frequencies)
        magnitude = np.abs(response)
        magnitude[magnitude == 0.0] = np.finfo(float).tiny
        phase = np.degrees(np.unwrap(np.angle(response)))
        return 20.0 * np.log10(magnitude), phase


def ac_sweep(circuit, output, frequencies, method="auto") -> np.ndarray:
    """One-shot complex frequency sweep (see :class:`ACAnalysis`)."""
    return ACAnalysis(circuit, output, method=method).frequency_response(frequencies)
