"""Problem-size reduction between interpolations (Section 3.3, Eq. 17).

Once the coefficients of the lowest powers ``0..k-1`` and the highest powers
``l+1..n`` are known, the remaining ones can be obtained from a *deflated*
polynomial

``P'(s) = (P(s) - Σ_{i<k} p_i s^i - Σ_{i>l} p_i s^i) / s^k``

of degree ``l - k``, which needs only ``l - k + 1`` interpolation points — the
mechanism behind the decreasing per-iteration CPU times the paper reports
(3.9 s → 2.3 s → 0.9 s).

Because the interpolation points sit on the unit circle, the magnitude of each
known contribution equals the magnitude of its *normalized* coefficient under
the current scale factors, so the subtraction can be carried out safely with a
common-decimal-exponent rescaling.
"""

from __future__ import annotations

import cmath
import math
from typing import List, Tuple

from ..errors import InterpolationError
from .scaling import normalize_coefficient

__all__ = ["deflate_samples", "deflation_point_count"]


def deflation_point_count(first_unknown, last_unknown):
    """Number of interpolation points needed after deflation (Eq. 17)."""
    if last_unknown < first_unknown:
        raise InterpolationError("empty unknown coefficient range")
    return last_unknown - first_unknown + 1


def deflate_samples(samples, points, known_coefficients, first_unknown,
                    factors, admittance_order) -> List[Tuple[complex, int]]:
    """Subtract known-coefficient contributions and shift down by ``s^k``.

    Parameters
    ----------
    samples:
        Sequence of ``(mantissa, exponent)`` pairs — raw samples ``P(s_j)`` of
        the *scaled* polynomial at the unit-circle ``points``.
    points:
        The interpolation points (must have unit magnitude).
    known_coefficients:
        Mapping power → true (denormalized) coefficient :class:`XFloat` for
        every already-known power.
    first_unknown:
        ``k`` in Eq. 17 — every power below it must be in
        ``known_coefficients``.
    factors:
        Scale factors of the *current* interpolation (used to re-normalize the
        known coefficients before subtraction).
    admittance_order:
        ``M`` of Eq. (11) for this polynomial.

    Returns
    -------
    list of (complex, int)
        Deflated samples ``P'(s_j)`` in the same extended-range representation.
    """
    samples = list(samples)
    points = list(points)
    if len(samples) != len(points):
        raise InterpolationError("samples and points must have the same length")
    for power in range(first_unknown):
        if power not in known_coefficients:
            raise InterpolationError(
                f"deflation requires coefficient {power} to be known"
            )

    # Normalized magnitudes (log10) and signs of the known coefficients under
    # the current scale factors.  |s_j| == 1, so these are also the term
    # magnitudes at every point.
    normalized: List[Tuple[int, float, float]] = []  # (power, log10 |p'|, sign)
    for power, coefficient in known_coefficients.items():
        if coefficient.is_zero():
            continue
        scaled = normalize_coefficient(coefficient, power, admittance_order,
                                       factors)
        normalized.append((power, scaled.log10(), scaled.sign()))

    deflated: List[Tuple[complex, int]] = []
    for sample, point in zip(samples, points):
        mantissa, exponent = sample
        magnitude = abs(point)
        if not math.isclose(magnitude, 1.0, rel_tol=1e-9):
            raise InterpolationError("deflation expects unit-circle points")
        theta = cmath.phase(point)
        # Common exponent across the raw sample and every known term.
        candidates = [exponent] if mantissa != 0 else []
        candidates.extend(int(math.floor(log_mag)) for __, log_mag, __s in normalized)
        if not candidates:
            deflated.append((0.0 + 0.0j, 0))
            continue
        common = max(candidates)
        accumulator = 0.0 + 0.0j
        if mantissa != 0:
            shift = exponent - common
            if shift >= -300:
                accumulator += mantissa * 10.0**shift
        for power, log_mag, sign in normalized:
            shift = log_mag - common
            if shift < -300:
                continue
            term = sign * 10.0**shift * cmath.exp(1j * power * theta)
            accumulator -= term
        # Divide by s^k: unit magnitude, phase rotation only.
        if first_unknown:
            accumulator *= cmath.exp(-1j * first_unknown * theta)
        if accumulator == 0:
            deflated.append((0.0 + 0.0j, 0))
            continue
        shift = int(math.floor(math.log10(abs(accumulator))))
        deflated.append((accumulator / 10.0**shift, common + shift))
    return deflated
