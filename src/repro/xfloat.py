"""Extended-range floating point numbers.

The denormalized network-function coefficients of large analog circuits lie far
outside the range of IEEE double precision: the µA741 denominator coefficients
reported in the paper span ``-1.6e-90`` (s^0) down to ``-1.1e-522`` (s^48),
while IEEE doubles underflow at roughly ``1e-308``.  Inside the interpolation
engine coefficients only ever exist as *normalized* values together with the
frequency / conductance scale factors, but user-facing results (and the SDG /
SBG error-control consumers) need the true magnitudes.

:class:`XFloat` stores a number as ``mantissa * 10**exponent`` with a float
mantissa normalized to ``[1, 10)`` (or ``(-10, -1]``) and an integer decimal
exponent, giving an essentially unbounded dynamic range while keeping ordinary
double-precision accuracy in the mantissa.

The class supports the arithmetic needed by the library (multiplication,
division, addition, powers, comparisons, ``abs``, ``log10``) and converts to
``float`` when the value is representable.
"""

from __future__ import annotations

import cmath
import math
from typing import Union

import numpy as np

__all__ = ["XFloat", "xfloat", "log10_abs", "decimal_complex",
           "TrackedDeterminant"]

Number = Union[int, float, "XFloat"]

#: Mantissas closer to zero than this are treated as exactly zero.
_ZERO_EPS = 0.0


class XFloat:
    """A floating-point value ``mantissa * 10**exponent`` with unbounded range.

    Parameters
    ----------
    mantissa:
        Any finite float (it is renormalized into ``[1, 10)`` by magnitude).
    exponent:
        Integer power of ten.

    Notes
    -----
    Instances are immutable and hashable.  Arithmetic with plain ``int`` /
    ``float`` operands is supported and returns :class:`XFloat`.
    """

    __slots__ = ("_m", "_e")

    def __init__(self, mantissa=0.0, exponent=0):
        if isinstance(mantissa, XFloat):
            mantissa, extra = mantissa._m, mantissa._e
            exponent = exponent + extra
        mantissa = float(mantissa)
        if math.isnan(mantissa) or math.isinf(mantissa):
            raise ValueError(f"XFloat mantissa must be finite, got {mantissa!r}")
        if mantissa == _ZERO_EPS:
            self._m = 0.0
            self._e = 0
            return
        shift = int(math.floor(math.log10(abs(mantissa))))
        if -308 < shift < 308:
            mantissa = mantissa / 10.0**shift
        else:
            # Subnormal or near-overflow inputs: 10**shift is not representable,
            # so renormalize through logarithms instead of a direct division.
            mantissa = math.copysign(
                10.0 ** (math.log10(abs(mantissa)) - shift), mantissa
            )
        # Guard against log10 edge cases (e.g. mantissa exactly 10 after division).
        if abs(mantissa) >= 10.0:
            mantissa /= 10.0
            shift += 1
        elif abs(mantissa) < 1.0:
            mantissa *= 10.0
            shift -= 1
        self._m = mantissa
        self._e = int(exponent) + shift

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_float(cls, value):
        """Build an :class:`XFloat` from a plain float."""
        return cls(value, 0)

    @classmethod
    def from_log10(cls, log10_magnitude, sign=1.0):
        """Build an :class:`XFloat` with ``|x| = 10**log10_magnitude``.

        Parameters
        ----------
        log10_magnitude:
            Base-10 logarithm of the magnitude (any float).
        sign:
            Sign of the result (only its sign is used).
        """
        exponent = int(math.floor(log10_magnitude))
        mantissa = 10.0 ** (log10_magnitude - exponent)
        if sign < 0:
            mantissa = -mantissa
        return cls(mantissa, exponent)

    @classmethod
    def zero(cls):
        """The exact zero value."""
        return cls(0.0, 0)

    @classmethod
    def _raw(cls, mantissa, exponent):
        """Construct without renormalizing — ``mantissa`` MUST already be
        normalized to ``[1, 10)`` by magnitude (or exactly 0.0 with exponent
        0).  Internal fast path for bulk construction in
        :mod:`repro.symbolic.kernel`."""
        value = object.__new__(cls)
        value._m = mantissa
        value._e = exponent
        return value

    # -- accessors ---------------------------------------------------------

    @property
    def mantissa(self):
        """Normalized mantissa in ``[1, 10)`` by magnitude (0.0 for zero)."""
        return self._m

    @property
    def exponent(self):
        """Integer decimal exponent."""
        return self._e

    def is_zero(self):
        """True when the value is exactly zero."""
        return self._m == 0.0

    def sign(self):
        """Return -1.0, 0.0 or +1.0."""
        if self._m > 0:
            return 1.0
        if self._m < 0:
            return -1.0
        return 0.0

    def log10(self):
        """Return ``log10(|x|)`` as a float.

        Raises
        ------
        ValueError
            If the value is zero.
        """
        if self.is_zero():
            raise ValueError("log10 of zero XFloat")
        return math.log10(abs(self._m)) + self._e

    def __float__(self):
        if self.is_zero():
            return 0.0
        if -320 < self._e < 308:
            return self._m * 10.0**self._e
        if self._e >= 308:
            return math.inf if self._m > 0 else -math.inf
        return 0.0 if self._m > 0 else -0.0

    def to_float(self):
        """Convert to ``float`` (may overflow to inf / underflow to 0)."""
        return float(self)

    # -- arithmetic --------------------------------------------------------

    @staticmethod
    def _coerce(value):
        if isinstance(value, XFloat):
            return value
        if isinstance(value, (int, float)):
            return XFloat(value, 0)
        return NotImplemented

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return XFloat.zero()
        return XFloat(self._m * other._m, self._e + other._e)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("XFloat division by zero")
        if self.is_zero():
            return XFloat.zero()
        return XFloat(self._m / other._m, self._e - other._e)

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other.__truediv__(self)

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        # Align to the larger exponent; a difference beyond ~30 decades cannot
        # change the larger operand at double precision.
        if self._e >= other._e:
            big, small = self, other
        else:
            big, small = other, self
        shift = small._e - big._e
        if shift < -30:
            return big
        return XFloat(big._m + small._m * 10.0**shift, big._e)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.__add__(-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other.__add__(-self)

    def __neg__(self):
        if self.is_zero():
            return XFloat.zero()
        return XFloat(-self._m, self._e)

    def __abs__(self):
        if self._m < 0:
            return XFloat(-self._m, self._e)
        return self

    def __pow__(self, power):
        if not isinstance(power, int):
            raise TypeError("XFloat only supports integer powers")
        if power == 0:
            return XFloat(1.0, 0)
        if self.is_zero():
            if power < 0:
                raise ZeroDivisionError("zero XFloat to a negative power")
            return XFloat.zero()
        log_mag = self.log10() * power
        sign = 1.0
        if self._m < 0 and power % 2 == 1:
            sign = -1.0
        return XFloat.from_log10(log_mag, sign)

    # -- comparisons -------------------------------------------------------

    def _cmp(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        diff = self - other
        return diff.sign()

    def __eq__(self, other):
        result = self._cmp(other)
        if result is NotImplemented:
            return NotImplemented
        return result == 0.0

    def __ne__(self, other):
        result = self.__eq__(other)
        if result is NotImplemented:
            return NotImplemented
        return not result

    def __lt__(self, other):
        result = self._cmp(other)
        if result is NotImplemented:
            return NotImplemented
        return result < 0

    def __le__(self, other):
        result = self._cmp(other)
        if result is NotImplemented:
            return NotImplemented
        return result <= 0

    def __gt__(self, other):
        result = self._cmp(other)
        if result is NotImplemented:
            return NotImplemented
        return result > 0

    def __ge__(self, other):
        result = self._cmp(other)
        if result is NotImplemented:
            return NotImplemented
        return result >= 0

    def __hash__(self):
        return hash((round(self._m, 12), self._e))

    def __bool__(self):
        return not self.is_zero()

    # -- helpers -----------------------------------------------------------

    def approx_equal(self, other, rel_tol=1e-9):
        """Relative comparison robust to exponent differences."""
        other = self._coerce(other)
        if self.is_zero() and other.is_zero():
            return True
        if self.is_zero() or other.is_zero():
            return False
        if self.sign() != other.sign():
            return False
        return abs(self.log10() - other.log10()) <= -math.log10(1.0 - rel_tol) + rel_tol

    def __repr__(self):
        return f"XFloat({self._m!r}, {self._e})"

    def __str__(self):
        if self.is_zero():
            return "0"
        return f"{self._m:.6g}e{self._e:+d}"

    def format(self, digits=5):
        """Format with a fixed number of significant digits, e.g. ``-4.3694e-176``."""
        if self.is_zero():
            return "0"
        return f"{self._m:.{digits}g}e{self._e:+03d}"


def xfloat(value, exponent=0):
    """Convenience constructor: ``xfloat(3.2, -100)`` → ``3.2e-100``."""
    return XFloat(value, exponent)


def log10_abs(value):
    """Return ``log10(|value|)`` for floats or :class:`XFloat`, -inf for zero."""
    if isinstance(value, XFloat):
        if value.is_zero():
            return -math.inf
        return value.log10()
    value = float(value)
    if value == 0.0:
        return -math.inf
    return math.log10(abs(value))


#: Largest decimal exponent :func:`decimal_complex` applies; beyond it every
#: non-zero double overflows (or underflows) anyway.  Each of the two halves
#: it is split into stays a finite power of ten.
_TWO_STEP_EXPONENT = 2 * 308


def decimal_complex(mantissa, exponent):
    """``mantissa · 10**exponent`` as a plain complex number (or array).

    The one conversion from the library's ``(complex mantissa, decimal
    exponent)`` pairs — determinants, polynomial values — to complex values.
    The power of ten is applied to each component in two halves, so a value
    inside the double range comes out finite even where ``10**exponent``
    alone is not (``5e305``, ``3e-305``).  Beyond the range a non-zero
    component overflows to a signed infinity while a zero component stays
    zero, so the result is complex infinity in the mantissa's direction,
    never ``nan``; values below the range underflow to zero.

    ``mantissa`` and ``exponent`` are scalars (a ``complex`` is returned) or
    broadcastable arrays (a complex array is returned).
    """
    mantissa = np.asarray(mantissa, dtype=complex)
    exponent = np.clip(np.asarray(exponent, dtype=np.int64),
                       -_TWO_STEP_EXPONENT, _TWO_STEP_EXPONENT)
    half = exponent // 2
    first = 10.0 ** half.astype(float)
    second = 10.0 ** (exponent - half).astype(float)
    with np.errstate(over="ignore", under="ignore"):
        real = mantissa.real * first * second
        imag = mantissa.imag * first * second
    value = np.empty(np.shape(real), dtype=complex)
    value.real = real
    value.imag = imag
    return complex(value) if value.ndim == 0 else value


class TrackedDeterminant:
    """Determinant queries of a factorization that tracks ``det(A)`` as
    ``(mantissa, exponent)``.

    Subclasses provide ``determinant_mantissa_exponent()``; the mantissa is
    complex with magnitude in ``[1, 10)``, or exactly zero.
    """

    def determinant(self) -> complex:
        """``det(A)`` as a plain complex (see :func:`decimal_complex`)."""
        return decimal_complex(*self.determinant_mantissa_exponent())

    def determinant_xfloat(self):
        """``|det(A)|`` as an :class:`XFloat` plus the phase in radians."""
        mantissa, exponent = self.determinant_mantissa_exponent()
        if mantissa == 0:
            return XFloat.zero(), 0.0
        return XFloat(abs(mantissa), exponent), cmath.phase(mantissa)

    def log10_determinant_magnitude(self) -> float:
        """``log10 |det(A)|`` (``-inf`` for a singular matrix)."""
        mantissa, exponent = self.determinant_mantissa_exponent()
        if mantissa == 0:
            return -math.inf
        return math.log10(abs(mantissa)) + exponent
