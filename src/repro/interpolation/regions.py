"""Valid-coefficient region detection (Eq. 12 of the paper).

In a single interpolation, only coefficients whose normalized magnitude stays
above the round-off error level are trustworthy.  With a 16-decimal-digit
machine the error level is ``10^-13 · max_i |p'_i|``; to guarantee ``σ``
significant digits, every coefficient below ``10^(σ-13) · max_i |p'_i|`` must
be discarded (Eq. 12 uses σ = 6).  The valid *region* is the contiguous run of
indices around the largest coefficient that stays above that threshold — the
adaptive algorithm stitches such regions together across interpolations.
"""

from __future__ import annotations

import dataclasses
import math
from typing import List

import numpy as np

from ..errors import InterpolationError
from .scaling import MACHINE_DIGITS

__all__ = ["ValidRegion", "find_valid_region", "error_level", "coefficient_log10"]


def coefficient_log10(values, common_exponent=0) -> List[float]:
    """``log10`` magnitude of each (complex) coefficient; ``-inf`` for zeros."""
    result = []
    for value in np.asarray(values, dtype=complex):
        magnitude = abs(value)
        if magnitude == 0.0:
            result.append(-math.inf)
        else:
            result.append(math.log10(magnitude) + common_exponent)
    return result


def error_level(values, common_exponent=0, machine_digits=MACHINE_DIGITS) -> float:
    """``log10`` of the interpolation round-off level: ``max_i log10|p'_i| - 13``."""
    logs = coefficient_log10(values, common_exponent)
    peak = max(logs)
    if peak == -math.inf:
        return -math.inf
    return peak - machine_digits


@dataclasses.dataclass
class ValidRegion:
    """Contiguous run of trustworthy coefficients in one interpolation.

    Attributes
    ----------
    start, end:
        First and last valid coefficient index (inclusive).
    max_index:
        Index of the coefficient with the largest normalized magnitude.
    log10_magnitudes:
        ``log10 |p'_i|`` for every index of the interpolation (``-inf`` for
        exact zeros).
    threshold_log10:
        ``log10`` of the validity threshold (Eq. 12).
    error_level_log10:
        ``log10`` of the raw round-off level (``max - 13``).
    mask:
        Boolean validity of every index (above threshold), not restricted to
        the contiguous region.
    """

    start: int
    end: int
    max_index: int
    log10_magnitudes: List[float]
    threshold_log10: float
    error_level_log10: float
    mask: List[bool]

    @property
    def indices(self) -> List[int]:
        """Indices of the contiguous valid region."""
        return list(range(self.start, self.end + 1))

    @property
    def width(self) -> int:
        """Number of coefficients in the contiguous region."""
        return self.end - self.start + 1

    def contains(self, index) -> bool:
        """True when ``index`` lies inside the contiguous region."""
        return self.start <= index <= self.end

    def log10_at(self, index) -> float:
        """``log10 |p'_index|``."""
        return self.log10_magnitudes[index]

    def __repr__(self):
        return (
            f"ValidRegion([{self.start}..{self.end}], max at {self.max_index}, "
            f"threshold 1e{self.threshold_log10:.1f})"
        )


def find_valid_region(values, common_exponent=0, significant_digits=6,
                      machine_digits=MACHINE_DIGITS) -> ValidRegion:
    """Locate the valid coefficient region of one interpolation.

    Parameters
    ----------
    values:
        Complex normalized coefficients (inverse-DFT output mantissas).
    common_exponent:
        Shared decimal exponent of ``values``.
    significant_digits:
        Desired significant digits σ; the threshold is
        ``10^(σ - machine_digits) · max|p'_i|`` (Eq. 12).
    machine_digits:
        Decimal digits of the arithmetic (13 for IEEE doubles as in the paper).

    Raises
    ------
    InterpolationError
        If every coefficient is exactly zero.
    """
    if significant_digits < 1 or significant_digits >= machine_digits:
        raise InterpolationError(
            "significant_digits must be in [1, machine_digits)"
        )
    logs = coefficient_log10(values, common_exponent)
    peak = max(logs)
    if peak == -math.inf:
        raise InterpolationError("all interpolated coefficients are zero")
    max_index = logs.index(peak)
    threshold = peak - machine_digits + significant_digits
    noise = peak - machine_digits
    mask = [value >= threshold for value in logs]

    start = max_index
    while start > 0 and mask[start - 1]:
        start -= 1
    end = max_index
    while end < len(logs) - 1 and mask[end + 1]:
        end += 1

    return ValidRegion(
        start=start,
        end=end,
        max_index=max_index,
        log10_magnitudes=logs,
        threshold_log10=threshold,
        error_level_log10=noise,
        mask=mask,
    )
