"""Frequency / conductance scale factors and the Eq. (11) bookkeeping.

Scaling every capacitance by ``f`` and every conductance (including
transconductances) by ``g`` turns the true coefficients ``p_i`` into the
normalized coefficients actually recovered by the interpolation:

``p'_i = p_i · f^i · g^(M - i)``                       (Eq. 11)

where ``M`` is the number of admittance factors per determinant term (the
matrix dimension).  The module provides:

* :class:`ScaleFactors` — the ``(f, g)`` pair,
* :func:`initial_scale_factors` — the paper's first-iteration heuristic
  (inverse of the mean capacitance / mean conductance),
* :func:`denormalize_coefficients` / :func:`normalize_coefficient` — exact
  conversion in log space using :class:`~repro.xfloat.XFloat`,
* :func:`forward_update`, :func:`backward_update`, :func:`gap_update` — the
  scale-factor updates of Eqs. (13)–(16), expressed through the per-power
  reweighting ratio ``q`` and split evenly between ``f`` and ``g`` (the
  "simultaneous scaling" the paper uses to keep either factor below ~1e18).
"""

from __future__ import annotations

import dataclasses
import math
from typing import List, Tuple

import numpy as np

from ..errors import InterpolationError
from ..xfloat import XFloat

__all__ = [
    "ScaleFactors",
    "initial_scale_factors",
    "normalize_coefficient",
    "denormalize_coefficients",
    "forward_update",
    "backward_update",
    "gap_update",
]

#: Decimal digits carried by IEEE double precision (the paper's "16-decimal-
#: digit accuracy" computer); the interpolation noise floor is 10**-13 · max.
MACHINE_DIGITS = 13


@dataclasses.dataclass(frozen=True)
class ScaleFactors:
    """A frequency scale factor ``f`` and a conductance scale factor ``g``.

    The sampler multiplies every capacitance by ``f`` and every conductance by
    ``g`` before evaluating the network function, which is how the paper's
    frequency / conductance scaling is realized without touching the
    interpolation points (they stay on the unit circle).
    """

    frequency: float = 1.0
    conductance: float = 1.0

    def __post_init__(self):
        if self.frequency <= 0.0 or self.conductance <= 0.0:
            raise InterpolationError("scale factors must be positive")

    @property
    def log10_frequency(self):
        """``log10 f``."""
        return math.log10(self.frequency)

    @property
    def log10_conductance(self):
        """``log10 g``."""
        return math.log10(self.conductance)

    @property
    def per_power_ratio(self):
        """``f / g`` — the weight applied per additional power of ``s``."""
        return self.frequency / self.conductance

    def max_factor(self):
        """The larger of ``f`` and ``g`` (used to check the <1e18 guideline)."""
        return max(self.frequency, self.conductance)

    def with_ratio_applied(self, q):
        """Return new factors with the per-power ratio multiplied by ``q``.

        The adjustment is split evenly in log space: ``f → f·√q``,
        ``g → g/√q`` — the paper's simultaneous scaling of frequency and
        conductance.
        """
        if q <= 0.0:
            raise InterpolationError("scale ratio q must be positive")
        root = math.sqrt(q)
        return ScaleFactors(self.frequency * root, self.conductance / root)

    def __str__(self):
        return f"f={self.frequency:.4g}, g={self.conductance:.4g}"


def initial_scale_factors(circuit) -> ScaleFactors:
    """First-iteration heuristic: ``f = 1/mean(C)``, ``g = 1/mean(G)``.

    The objective (Sec. 3.2 of the paper) is to generate the widest region of
    valid coefficients on the first interpolation by bringing both capacitive
    and conductive admittances near unity on the unit circle.
    """
    mean_capacitance = circuit.mean_capacitance()
    mean_conductance = circuit.mean_conductance()
    frequency = 1.0 / mean_capacitance if mean_capacitance > 0.0 else 1.0
    conductance = 1.0 / mean_conductance if mean_conductance > 0.0 else 1.0
    return ScaleFactors(frequency, conductance)


# --------------------------------------------------------------------------- #
# normalization / denormalization
# --------------------------------------------------------------------------- #


def normalize_coefficient(coefficient, power, admittance_order, factors):
    """Return ``p'_i = p_i f^i g^(M-i)`` as an :class:`XFloat`.

    ``coefficient`` may be a float or :class:`XFloat`.
    """
    if not isinstance(coefficient, XFloat):
        coefficient = XFloat(float(coefficient), 0)
    if coefficient.is_zero():
        return XFloat.zero()
    log_magnitude = (
        coefficient.log10()
        + power * factors.log10_frequency
        + (admittance_order - power) * factors.log10_conductance
    )
    return XFloat.from_log10(log_magnitude, coefficient.sign())


def denormalize_coefficients(values, common_exponent, factors,
                             admittance_order, first_power=0) -> List[XFloat]:
    """Convert normalized interpolation output to true coefficients.

    Parameters
    ----------
    values:
        Complex coefficient mantissas straight from the inverse DFT.
    common_exponent:
        Decimal exponent shared by all of ``values``.
    factors:
        The :class:`ScaleFactors` used for the interpolation.
    admittance_order:
        ``M`` of Eq. (11) — matrix dimension for the denominator, one less for
        a current-driven numerator.
    first_power:
        Power of ``s`` of ``values[0]`` (a deflated window starts above 0).

    Returns
    -------
    list of XFloat
        Real denormalized coefficients ``p_i = p'_i f^-i g^(i-M)``; the
        imaginary parts of ``values`` are round-off residue and are discarded.
    """
    values = np.asarray(values, dtype=complex)
    result: List[XFloat] = []
    for power, value in enumerate(values, start=first_power):
        real = float(value.real)
        if real == 0.0:
            result.append(XFloat.zero())
            continue
        log_magnitude = (
            math.log10(abs(real))
            + common_exponent
            - power * factors.log10_frequency
            - (admittance_order - power) * factors.log10_conductance
        )
        result.append(XFloat.from_log10(log_magnitude, math.copysign(1.0, real)))
    return result


# --------------------------------------------------------------------------- #
# scale-factor updates (Eqs. 13-16)
# --------------------------------------------------------------------------- #


def _solve_ratio(log_target_gap, index_gap):
    """Solve ``q`` from ``q**index_gap = 10**log_target_gap``."""
    if index_gap == 0:
        # Degenerate region (single valid coefficient); fall back to the value
        # the paper's formula yields for adjacent indices.
        return 10.0**log_target_gap
    return 10.0 ** (log_target_gap / index_gap)


def forward_update(factors, last_index, last_log10, max_index, max_log10,
                   tuning_r=0.0) -> Tuple[ScaleFactors, float]:
    """Scale factors for the next interpolation towards *higher* powers of ``s``.

    Implements Eqs. (13)–(14): choose ``q`` such that the last valid
    coefficient ``p_e`` of the previous region becomes one of the first (and
    largest) coefficients of the next region, i.e.

    ``|p'_e| q^e = |p'_m| q^m · 10^(13 + r)``.

    Parameters
    ----------
    factors:
        Previous :class:`ScaleFactors`.
    last_index, last_log10:
        Index ``e`` and ``log10 |p'_e|`` of the last coefficient in the
        previous valid region.
    max_index, max_log10:
        Index ``m`` and ``log10 |p'_m|`` of the largest coefficient in the
        previous valid region.
    tuning_r:
        The paper's tuning factor ``r`` (decades of extra separation).

    Returns
    -------
    (ScaleFactors, float)
        The updated factors and the ratio ``q`` that was applied.
    """
    log_gap = MACHINE_DIGITS + tuning_r + max_log10 - last_log10
    q = _solve_ratio(log_gap, last_index - max_index)
    if q <= 1.0:
        # The update must move towards higher powers; enforce a minimal step.
        q = 10.0 ** max(1.0, MACHINE_DIGITS + tuning_r)
    return factors.with_ratio_applied(q), q


def backward_update(factors, first_index, first_log10, max_index, max_log10,
                    tuning_r=0.0) -> Tuple[ScaleFactors, float]:
    """Scale factors for the next interpolation towards *lower* powers of ``s``.

    Implements Eq. (15): ``|p'_b| q^b = |p'_m| q^m · 10^(13 + r)`` with
    ``b < m``, which yields ``q < 1``.
    """
    log_gap = MACHINE_DIGITS + tuning_r + max_log10 - first_log10
    q = _solve_ratio(log_gap, first_index - max_index)
    if q >= 1.0:
        q = 10.0 ** (-max(1.0, MACHINE_DIGITS + tuning_r))
    return factors.with_ratio_applied(q), q


def gap_update(factors_low, factors_high) -> ScaleFactors:
    """Scale factors for filling a gap between two valid regions (Eq. 16).

    The new factors are the geometric means of the two neighbouring regions'
    factors, i.e. the log-average of both the frequency and the conductance
    scale factor.
    """
    frequency = 10.0 ** (
        0.5 * (math.log10(factors_low.frequency) + math.log10(factors_high.frequency))
    )
    conductance = 10.0 ** (
        0.5 * (math.log10(factors_low.conductance)
               + math.log10(factors_high.conductance))
    )
    return ScaleFactors(frequency, conductance)
