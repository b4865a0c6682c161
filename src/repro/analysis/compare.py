"""Comparison of interpolated and simulated frequency responses (Fig. 2).

The paper's Fig. 2 demonstrates the accuracy of the adaptive-scaling
coefficients by overlaying their Bode plot with an electrical simulator's
output and observing "perfect matching".  :func:`compare_responses` quantifies
that overlay: maximum magnitude error in dB, maximum phase error in degrees,
and worst relative complex error.
"""

from __future__ import annotations

import dataclasses

import numpy as np

__all__ = ["BodeComparison", "compare_responses"]


@dataclasses.dataclass
class BodeComparison:
    """Error metrics between two complex frequency responses on the same grid."""

    frequencies: np.ndarray
    max_magnitude_error_db: float
    max_phase_error_deg: float
    max_relative_error: float
    rms_magnitude_error_db: float

    def matches(self, magnitude_tolerance_db=0.1, phase_tolerance_deg=1.0):
        """True when both error metrics stay inside the given tolerances."""
        return (self.max_magnitude_error_db <= magnitude_tolerance_db
                and self.max_phase_error_deg <= phase_tolerance_deg)

    def summary(self) -> str:
        """One-line human-readable summary."""
        return (
            f"max |Δmag| {self.max_magnitude_error_db:.3g} dB, "
            f"max |Δphase| {self.max_phase_error_deg:.3g}°, "
            f"max relative error {self.max_relative_error:.3g}"
        )


def compare_responses(frequencies, reference_response,
                      candidate_response) -> BodeComparison:
    """Compare two complex responses sampled on the same frequency grid.

    ``reference_response`` is typically the direct AC-simulation curve and
    ``candidate_response`` the interpolated-coefficient curve.
    """
    frequencies = np.asarray(frequencies, dtype=float)
    reference = np.asarray(reference_response, dtype=complex)
    candidate = np.asarray(candidate_response, dtype=complex)
    if reference.shape != candidate.shape or reference.shape != frequencies.shape:
        raise ValueError("responses and frequency grid must have the same shape")

    tiny = np.finfo(float).tiny
    reference_magnitude = np.maximum(np.abs(reference), tiny)
    candidate_magnitude = np.maximum(np.abs(candidate), tiny)
    magnitude_error_db = np.abs(
        20.0 * np.log10(candidate_magnitude) - 20.0 * np.log10(reference_magnitude)
    )

    reference_phase = np.degrees(np.unwrap(np.angle(reference)))
    candidate_phase = np.degrees(np.unwrap(np.angle(candidate)))
    phase_error = np.abs(candidate_phase - reference_phase)

    # Symmetric relative error with a floored denominator: a reference that
    # passes exactly through zero (a deep notch sample, or a response that is
    # identically zero at DC) must not blow the metric up to 1/tiny — the
    # error is measured against whichever curve is larger at that point,
    # matching the screening benchmark's max(|response|, |baseline|) scale.
    scale = np.maximum(np.maximum(np.abs(reference), np.abs(candidate)), tiny)
    relative_error = np.abs(candidate - reference) / scale

    return BodeComparison(
        frequencies=frequencies,
        max_magnitude_error_db=float(np.max(magnitude_error_db)),
        max_phase_error_deg=float(np.max(phase_error)),
        max_relative_error=float(np.max(relative_error)),
        rms_magnitude_error_db=float(np.sqrt(np.mean(magnitude_error_db**2))),
    )
