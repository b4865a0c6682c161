"""Pole / zero extraction from extended-range polynomial coefficients.

Roots of the interpolated numerator and denominator give the poles and zeros
of the reference network function — a convenient design-oriented view of the
result (and an extension beyond what the paper reports).

Because the coefficients span hundreds of decades, the polynomial is first
rescaled: with ``s = λ·z`` and ``λ`` chosen as the geometric mean of the
per-power coefficient ratios, the transformed coefficients fit comfortably in
double precision and ``numpy.roots`` can be applied; the roots are then scaled
back by ``λ``.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from ..errors import InterpolationError
from ..xfloat import XFloat

__all__ = ["polynomial_roots", "reference_poles_zeros"]


def _nonzero_indices(coefficients) -> List[int]:
    return [index for index, value in enumerate(coefficients)
            if not (isinstance(value, XFloat) and value.is_zero())
            and not (not isinstance(value, XFloat) and float(value) == 0.0)]


def polynomial_roots(coefficients: Sequence) -> np.ndarray:
    """Roots of a polynomial with float or :class:`XFloat` coefficients.

    Parameters
    ----------
    coefficients:
        Ascending powers of ``s``; trailing (and leading) zero coefficients
        are handled (zero roots are reported for missing low-order terms).

    Returns
    -------
    numpy.ndarray
        Complex roots in the original (unscaled) ``s`` domain.
    """
    values = [value if isinstance(value, XFloat) else XFloat(float(value), 0)
              for value in coefficients]
    nonzero = _nonzero_indices(values)
    if not nonzero:
        raise InterpolationError("cannot take roots of the zero polynomial")
    lowest, highest = nonzero[0], nonzero[-1]
    degree = highest - lowest
    if degree == 0:
        return np.zeros(lowest, dtype=complex)

    # Scale factor: geometric mean of the per-power magnitude decay, i.e. the
    # (degree)-th root of |p_low / p_high|.
    low_log = values[lowest].log10()
    high_log = values[highest].log10()
    lambda_log = (low_log - high_log) / degree
    # Transformed coefficients c_k = p_(lowest+k) * λ^k / p_lowest (so c_0 = 1).
    transformed = np.zeros(degree + 1, dtype=float)
    for k in range(degree + 1):
        value = values[lowest + k]
        if value.is_zero():
            continue
        log_magnitude = value.log10() + k * lambda_log - low_log
        if log_magnitude < -300:
            continue
        transformed[k] = value.sign() * 10.0**log_magnitude
    # numpy.roots expects descending powers.
    roots = np.roots(transformed[::-1])
    scale = 10.0**lambda_log
    scaled_roots = roots * scale
    if lowest:
        scaled_roots = np.concatenate([scaled_roots,
                                       np.zeros(lowest, dtype=complex)])
    return scaled_roots


def reference_poles_zeros(reference) -> Tuple[np.ndarray, np.ndarray]:
    """Poles and zeros of a :class:`~repro.interpolation.reference.NumericalReference`.

    Returns
    -------
    (numpy.ndarray, numpy.ndarray)
        ``(poles, zeros)`` in rad/s.
    """
    poles = polynomial_roots(reference.coefficients("denominator"))
    zeros = polynomial_roots(reference.coefficients("numerator"))
    return poles, zeros
