"""Inverse discrete Fourier transform for coefficient recovery.

With samples ``P(s_k)`` at the ``K`` unit-circle points the polynomial
coefficients follow from the inverse DFT (Eq. 5 of the paper):

``p_i = (1/K) Σ_k P(s_k) · exp(-2πj i k / K)``.

Two entry points are provided:

* :func:`inverse_dft` — plain complex samples (numpy array in, numpy array
  out) through numpy's FFT, tested against the direct ``O(K²)`` reference
  :func:`inverse_dft_direct`;
* :func:`inverse_dft_scaled` — samples given as ``(mantissa, exponent)`` pairs
  (the sampler's extended-range representation).  The whole batch is rescaled
  by a common power of ten before the transform, and that common exponent is
  returned alongside the coefficients, so nothing overflows regardless of the
  determinant magnitudes.
"""

from __future__ import annotations

import cmath
import math
from typing import Tuple

import numpy as np

from ..errors import InterpolationError

__all__ = ["inverse_dft", "inverse_dft_direct", "inverse_dft_scaled"]

#: ``10**e`` for ``e`` in ``[-300, 0]``, built with Python's scalar pow so the
#: vectorized rescaling reproduces the historical per-sample loop bit for bit
#: (numpy's vectorized ``10.0**x`` does not always match scalar pow to the
#: last ulp).  Shifts are relative to the batch maximum, hence never positive,
#: and anything below -300 is flushed to zero before lookup.
_POW10_SHIFT_FLOOR = -300
_POW10 = np.array([10.0**e for e in range(_POW10_SHIFT_FLOOR, 1)])


def inverse_dft_direct(samples) -> np.ndarray:
    """Direct ``O(K²)`` inverse DFT (reference implementation)."""
    samples = np.asarray(samples, dtype=complex)
    count = samples.shape[0]
    if count == 0:
        raise InterpolationError("inverse DFT of an empty sample vector")
    coefficients = np.zeros(count, dtype=complex)
    for i in range(count):
        accumulator = 0.0 + 0.0j
        for k in range(count):
            accumulator += samples[k] * cmath.exp(-2j * math.pi * i * k / count)
        coefficients[i] = accumulator / count
    return coefficients


def inverse_dft(samples) -> np.ndarray:
    """Inverse DFT of equally spaced unit-circle samples.

    Parameters
    ----------
    samples:
        ``P(s_k)`` for ``s_k = exp(2πjk/K)``, ``k = 0..K-1``.

    Returns
    -------
    numpy.ndarray
        Complex coefficient estimates ``p_0 .. p_{K-1}``.
    """
    samples = np.asarray(samples, dtype=complex)
    if samples.ndim != 1 or samples.shape[0] == 0:
        raise InterpolationError("samples must be a non-empty 1-D sequence")
    # numpy.fft.fft computes sum x_k exp(-2πjik/K), i.e. exactly K * p_i.
    return np.fft.fft(samples) / samples.shape[0]


def inverse_dft_scaled(samples) -> Tuple[np.ndarray, int]:
    """Inverse DFT of extended-range samples.

    Parameters
    ----------
    samples:
        Sequence of ``(mantissa, exponent)`` pairs representing
        ``mantissa * 10**exponent`` with complex mantissas.

    Returns
    -------
    (numpy.ndarray, int)
        ``(coefficients, common_exponent)`` such that the true coefficient
        ``p_i`` equals ``coefficients[i] * 10**common_exponent``.

    Notes
    -----
    All samples of one interpolation lie on a circle and have comparable
    magnitudes; samples more than ~300 decades below the largest one are
    flushed to zero (they cannot influence double-precision sums anyway).
    """
    pairs = list(samples)
    if not pairs:
        raise InterpolationError("inverse DFT of an empty sample vector")
    mantissas = np.array([mantissa for mantissa, __ in pairs], dtype=complex)
    exponents = np.array([exponent for __, exponent in pairs], dtype=np.int64)
    nonzero = mantissas != 0
    if not nonzero.any():
        return np.zeros(len(pairs), dtype=complex), 0
    common = int(exponents[nonzero].max())
    shifts = exponents - common
    keep = nonzero & (shifts >= _POW10_SHIFT_FLOOR)
    rescaled = np.zeros(len(pairs), dtype=complex)
    rescaled[keep] = mantissas[keep] * _POW10[shifts[keep]
                                              - _POW10_SHIFT_FLOOR]
    return inverse_dft(rescaled), common
