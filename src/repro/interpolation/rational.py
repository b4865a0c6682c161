"""Rational network functions ``H(s) = N(s) / D(s)`` and Bode evaluation.

The numerical reference produced by the interpolation engine is a pair of
extended-range polynomials; :class:`RationalFunction` combines them and
provides the frequency-domain views used by Fig. 2 of the paper (magnitude and
phase over a log-frequency sweep) and by the SBG/SDG error-control consumers
(evaluation at arbitrary ``s``).
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np

from ..errors import InterpolationError
from .polynomial import Polynomial

__all__ = ["RationalFunction"]


class RationalFunction:
    """A ratio of two extended-range polynomials in ``s``."""

    def __init__(self, numerator, denominator):
        if not isinstance(numerator, Polynomial):
            numerator = Polynomial(numerator)
        if not isinstance(denominator, Polynomial):
            denominator = Polynomial(denominator)
        if denominator.is_zero():
            raise InterpolationError("rational function with zero denominator")
        self.numerator = numerator
        self.denominator = denominator

    # ------------------------------------------------------------------ #

    @property
    def degree(self) -> Tuple[int, int]:
        """``(numerator degree, denominator degree)``."""
        return self.numerator.degree, self.denominator.degree

    def evaluate(self, s) -> complex:
        """``H(s)`` as a plain complex number.

        The numerator and denominator exponents largely cancel, so the ratio
        is representable even when the individual polynomial values are not.
        """
        n_mantissa, n_exponent = self.numerator.evaluate(s)
        d_mantissa, d_exponent = self.denominator.evaluate(s)
        if d_mantissa == 0:
            raise ZeroDivisionError(f"denominator is zero at s={s!r}")
        if n_mantissa == 0:
            return 0.0 + 0.0j
        ratio = n_mantissa / d_mantissa
        shift = n_exponent - d_exponent
        if shift > 300:
            return ratio * math.inf
        if shift < -300:
            return 0.0 + 0.0j
        return ratio * 10.0**shift

    def evaluate_many(self, s_values) -> np.ndarray:
        """Vectorized :meth:`evaluate` over an array of complex points.

        Numerator and denominator are evaluated with the batched polynomial
        path (:meth:`~repro.interpolation.polynomial.Polynomial.evaluate_many`,
        which runs on each polynomial's compiled coefficient arrays) and
        combined per point with the same exponent-cancelling rule as the
        scalar evaluation.
        """
        s = np.asarray(s_values, dtype=complex)
        n_mantissas, n_exponents = self.numerator.evaluate_many(s)
        d_mantissas, d_exponents = self.denominator.evaluate_many(s)
        if (d_mantissas == 0).any():
            index = np.unravel_index(int(np.argmax(d_mantissas == 0)), s.shape)
            raise ZeroDivisionError(
                f"denominator is zero at s={complex(s[index])!r}"
            )
        ratio = n_mantissas / d_mantissas
        shift = n_exponents - d_exponents
        values = ratio * 10.0 ** np.clip(shift, -300, 300).astype(float)
        overflow = shift > 300
        if overflow.any():
            values[overflow] = ratio[overflow] * math.inf
        values[(shift < -300) | (n_mantissas == 0)] = 0.0 + 0.0j
        return values

    def __call__(self, s) -> complex:
        return self.evaluate(s)

    def dc_gain(self) -> complex:
        """``H(0)``."""
        return self.evaluate(0.0)

    # ------------------------------------------------------------------ #
    # frequency-domain views
    # ------------------------------------------------------------------ #

    def frequency_response(self, frequencies) -> np.ndarray:
        """``H(j 2π f)`` for an array of frequencies in hertz (batched)."""
        frequencies = np.asarray(frequencies, dtype=float)
        return self.evaluate_many(2j * math.pi * frequencies)

    def magnitude_db(self, frequencies) -> np.ndarray:
        """Magnitude in dB over ``frequencies`` (hertz)."""
        response = self.frequency_response(frequencies)
        magnitude = np.abs(response)
        magnitude[magnitude == 0.0] = np.finfo(float).tiny
        return 20.0 * np.log10(magnitude)

    def phase_deg(self, frequencies, unwrap=True) -> np.ndarray:
        """Phase in degrees over ``frequencies`` (hertz), unwrapped by default."""
        response = self.frequency_response(frequencies)
        phase = np.angle(response)
        if unwrap:
            phase = np.unwrap(phase)
        return np.degrees(phase)

    def bode(self, frequencies) -> Tuple[np.ndarray, np.ndarray]:
        """``(magnitude_db, phase_deg)`` over ``frequencies`` (hertz)."""
        response = self.frequency_response(frequencies)
        magnitude = np.abs(response)
        magnitude[magnitude == 0.0] = np.finfo(float).tiny
        phase = np.degrees(np.unwrap(np.angle(response)))
        return 20.0 * np.log10(magnitude), phase

    def unity_gain_frequency(self, f_min=1.0, f_max=1e12, points=2000):
        """Approximate frequency (Hz) where ``|H|`` crosses unity, or None."""
        frequencies = np.logspace(math.log10(f_min), math.log10(f_max), points)
        magnitude = np.abs(self.frequency_response(frequencies))
        above = magnitude >= 1.0
        for index in range(len(frequencies) - 1):
            if above[index] and not above[index + 1]:
                # log-linear interpolation of the crossing
                x0, x1 = math.log10(frequencies[index]), math.log10(frequencies[index + 1])
                y0, y1 = math.log10(magnitude[index]), math.log10(magnitude[index + 1])
                if y0 == y1:
                    return frequencies[index]
                t = (0.0 - y0) / (y1 - y0)
                return 10.0 ** (x0 + t * (x1 - x0))
        return None

    def __repr__(self):
        n_degree, d_degree = self.degree
        return f"RationalFunction(numerator degree {n_degree}, denominator degree {d_degree})"
