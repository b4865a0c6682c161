"""Extended-range polynomials in the complex frequency ``s``.

Network-function coefficients of large analog circuits span hundreds of
decades, so :class:`Polynomial` stores its coefficients as
:class:`~repro.xfloat.XFloat` values and evaluates in log-magnitude space:
each term's magnitude is accumulated as ``log10 |p_i| + i log10 |s|`` and the
common exponent is factored out before summation.  The result of
:meth:`Polynomial.evaluate` is therefore an ``(mantissa, exponent)`` pair that
never overflows, with :meth:`evaluate_complex` available when a plain complex
number is wanted.
"""

from __future__ import annotations

import cmath
import math
from typing import Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..errors import InterpolationError
from ..xfloat import XFloat, decimal_complex

__all__ = ["Polynomial"]


def _as_xfloat(value) -> XFloat:
    if isinstance(value, XFloat):
        return value
    return XFloat(float(value), 0)


class Polynomial:
    """A polynomial ``p_0 + p_1 s + … + p_n s^n`` with extended-range coefficients.

    Parameters
    ----------
    coefficients:
        Sequence of coefficients in ascending powers of ``s``; entries may be
        floats or :class:`~repro.xfloat.XFloat`.
    """

    def __init__(self, coefficients: Sequence[Union[float, XFloat]]):
        self._coefficients: List[XFloat] = [_as_xfloat(c) for c in coefficients]
        if not self._coefficients:
            self._coefficients = [XFloat.zero()]
        # Compiled nonzero-coefficient arrays for evaluate_many, built on
        # first use.  Safe to cache: every algebraic operation returns a
        # new Polynomial, so the coefficient list never mutates.
        self._compiled = None

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_floats(cls, values: Iterable[float]):
        """Build from plain floats."""
        return cls([float(v) for v in values])

    @classmethod
    def zero(cls, degree=0):
        """The zero polynomial padded to ``degree``."""
        return cls([XFloat.zero()] * (degree + 1))

    # -- container behaviour ---------------------------------------------------

    @property
    def coefficients(self) -> List[XFloat]:
        """Coefficients in ascending powers (including trailing zeros)."""
        return list(self._coefficients)

    def coefficient(self, power) -> XFloat:
        """Coefficient of ``s**power`` (zero beyond the stored length)."""
        if power < 0:
            raise InterpolationError("coefficient power must be non-negative")
        if power >= len(self._coefficients):
            return XFloat.zero()
        return self._coefficients[power]

    def __len__(self):
        return len(self._coefficients)

    def __getitem__(self, power):
        return self.coefficient(power)

    def __iter__(self):
        return iter(self._coefficients)

    @property
    def degree(self):
        """Degree ignoring trailing zero coefficients (0 for the zero polynomial)."""
        for power in range(len(self._coefficients) - 1, -1, -1):
            if not self._coefficients[power].is_zero():
                return power
        return 0

    def is_zero(self):
        """True when every coefficient is zero."""
        return all(c.is_zero() for c in self._coefficients)

    def trimmed(self):
        """Copy without trailing zero coefficients."""
        return Polynomial(self._coefficients[: self.degree + 1])

    # -- algebra ----------------------------------------------------------------

    def scaled(self, factor):
        """Return ``factor * P(s)``."""
        factor = _as_xfloat(factor)
        return Polynomial([c * factor for c in self._coefficients])

    def variable_scaled(self, scale):
        """Return ``P(scale · s)`` — every coefficient ``p_i`` becomes ``p_i scale^i``."""
        scale = _as_xfloat(scale)
        return Polynomial([c * scale**i for i, c in enumerate(self._coefficients)])

    def derivative(self):
        """Formal derivative ``dP/ds``."""
        if len(self._coefficients) <= 1:
            return Polynomial([XFloat.zero()])
        return Polynomial([
            self._coefficients[i] * float(i)
            for i in range(1, len(self._coefficients))
        ])

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        size = max(len(self), len(other))
        return Polynomial([
            self.coefficient(i) + other.coefficient(i) for i in range(size)
        ])

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        size = max(len(self), len(other))
        return Polynomial([
            self.coefficient(i) - other.coefficient(i) for i in range(size)
        ])

    def __neg__(self):
        return Polynomial([-c for c in self._coefficients])

    # -- evaluation ---------------------------------------------------------------

    def evaluate(self, s) -> Tuple[complex, int]:
        """Evaluate at complex ``s``; returns ``(mantissa, exponent)``.

        The value is ``mantissa * 10**exponent``.  Terms more than 300 decades
        below the largest term are dropped (they cannot affect the sum at
        double precision).
        """
        s = complex(s)
        terms: List[Tuple[float, float]] = []  # (log10 magnitude, phase)
        if s == 0:
            constant = self._coefficients[0]
            if constant.is_zero():
                return 0.0 + 0.0j, 0
            phase = 0.0 if constant.sign() > 0 else math.pi
            log_magnitude = constant.log10()
            exponent = int(math.floor(log_magnitude))
            mantissa = 10.0 ** (log_magnitude - exponent) * cmath.exp(1j * phase)
            return mantissa, exponent
        log_s = math.log10(abs(s))
        arg_s = cmath.phase(s)
        for power, coefficient in enumerate(self._coefficients):
            if coefficient.is_zero():
                continue
            log_magnitude = coefficient.log10() + power * log_s
            phase = (0.0 if coefficient.sign() > 0 else math.pi) + power * arg_s
            terms.append((log_magnitude, phase))
        if not terms:
            return 0.0 + 0.0j, 0
        peak = max(log_magnitude for log_magnitude, __ in terms)
        exponent = int(math.floor(peak))
        accumulator = 0.0 + 0.0j
        for log_magnitude, phase in terms:
            shift = log_magnitude - exponent
            if shift < -300:
                continue
            accumulator += 10.0**shift * cmath.exp(1j * phase)
        return accumulator, exponent

    def evaluate_many(self, s_values) -> Tuple[np.ndarray, np.ndarray]:
        """Vectorized :meth:`evaluate` over an array of complex points.

        The grid runs on the compiled coefficient arrays shared with the
        transfer-model compiler
        (:func:`repro.symbolic.compile.log_polynomial_grid`): the nonzero
        coefficients are lowered once per polynomial instead of being
        re-extracted and re-broadcast on every call, with bit-identical
        arithmetic.  Returns ``(mantissas, exponents)`` arrays with value
        ``mantissa * 10**exponent`` per point.
        """
        s = np.asarray(s_values, dtype=complex)
        shape = s.shape
        s = s.ravel()
        mantissas = np.zeros(s.shape, dtype=complex)
        exponents = np.zeros(s.shape, dtype=np.int64)
        zero_points = s == 0
        if zero_points.any():
            mantissa, exponent = self.evaluate(0.0)
            mantissas[zero_points] = mantissa
            exponents[zero_points] = exponent
        live = ~zero_points
        if live.any():
            if self._compiled is None:
                from ..symbolic.compile import compile_polynomial

                self._compiled = compile_polynomial(self._coefficients)
            if self._compiled.powers.size:
                mantissas[live], exponents[live] = \
                    self._compiled.grid(s[live])
        return mantissas.reshape(shape), exponents.reshape(shape)

    def evaluate_complex(self, s) -> complex:
        """Evaluate as a plain complex number (see
        :func:`~repro.xfloat.decimal_complex`)."""
        return decimal_complex(*self.evaluate(s))

    def log10_magnitude(self, s) -> float:
        """``log10 |P(s)|`` (``-inf`` when the value is zero)."""
        mantissa, exponent = self.evaluate(s)
        if mantissa == 0:
            return -math.inf
        return math.log10(abs(mantissa)) + exponent

    # -- comparison helpers ----------------------------------------------------------

    def max_relative_coefficient_error(self, other, ignore_below=None) -> float:
        """Largest relative difference between coefficients of two polynomials.

        Coefficients whose magnitude (in the larger polynomial) is below
        ``ignore_below`` (an :class:`XFloat` or float) are skipped — useful
        when comparing against a reference that treats tiny coefficients as
        zero.
        """
        if not isinstance(other, Polynomial):
            raise TypeError("comparison requires another Polynomial")
        worst = 0.0
        threshold = None if ignore_below is None else _as_xfloat(ignore_below)
        for power in range(max(len(self), len(other))):
            mine = self.coefficient(power)
            theirs = other.coefficient(power)
            larger = abs(mine) if abs(mine) > abs(theirs) else abs(theirs)
            if larger.is_zero():
                continue
            if threshold is not None and larger < threshold:
                continue
            difference = abs(mine - theirs)
            relative = float(difference / larger)
            worst = max(worst, relative)
        return worst

    def __repr__(self):
        inner = ", ".join(str(c) for c in self._coefficients[:6])
        if len(self._coefficients) > 6:
            inner += ", …"
        return f"Polynomial(degree={self.degree}, [{inner}])"
