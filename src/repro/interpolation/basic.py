"""The conventional polynomial-interpolation method (Section 2 of the paper).

A single interpolation: sample the network function at ``K`` unit-circle
points (optionally with frequency / conductance scaling), recover coefficients
with the inverse DFT, and report which of them survive the round-off error
level.  This is the method whose failure on integrated circuits (Table 1a)
motivates the adaptive algorithm, and — with a well-chosen scale factor — the
building block the adaptive algorithm calls repeatedly.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional

import numpy as np

from ..errors import InterpolationError
from ..netlist.transform import to_admittance_form
from ..nodal.sampler import NetworkFunctionSampler
from ..xfloat import XFloat
from .dft import inverse_dft_scaled
from .points import unit_circle_points
from .regions import ValidRegion, find_valid_region
from .scaling import ScaleFactors, denormalize_coefficients

__all__ = [
    "InterpolationResult",
    "NetworkInterpolation",
    "interpolate_polynomial",
    "interpolate_network_function",
]


@dataclasses.dataclass
class InterpolationResult:
    """Outcome of one polynomial interpolation for one polynomial (N or D).

    Attributes
    ----------
    kind:
        ``"numerator"`` or ``"denominator"``.
    factors:
        The scale factors used.
    num_points:
        Number of interpolation points ``K``.
    normalized:
        Complex normalized coefficient mantissas (inverse-DFT output).
    common_exponent:
        Shared decimal exponent of ``normalized``.
    admittance_order:
        ``M`` used for denormalization (Eq. 11).
    region:
        The valid coefficient region (Eq. 12), or None when every coefficient
        is zero.
    significant_digits:
        σ used for the validity threshold.
    """

    kind: str
    factors: ScaleFactors
    num_points: int
    normalized: np.ndarray
    common_exponent: int
    admittance_order: int
    region: Optional[ValidRegion]
    significant_digits: int

    # ------------------------------------------------------------------ #

    def normalized_complex(self) -> np.ndarray:
        """Normalized coefficients as plain complex numbers.

        May overflow for extreme scale factors; intended for reporting small
        cases such as Table 1 where the values are representable.
        """
        return self.normalized * 10.0**self.common_exponent

    def imaginary_residue(self) -> np.ndarray:
        """Imaginary parts of the normalized coefficients (round-off residue)."""
        return np.imag(self.normalized_complex())

    def coefficients(self) -> List[XFloat]:
        """All denormalized coefficients (including untrustworthy ones)."""
        return denormalize_coefficients(
            self.normalized, self.common_exponent, self.factors,
            self.admittance_order,
        )

    def valid_coefficients(self) -> Dict[int, XFloat]:
        """Denormalized coefficients restricted to the contiguous valid region."""
        if self.region is None:
            return {}
        everything = self.coefficients()
        return {index: everything[index] for index in self.region.indices}

    def valid_indices(self) -> List[int]:
        """Indices of the contiguous valid region (empty when none)."""
        if self.region is None:
            return []
        return self.region.indices


@dataclasses.dataclass
class NetworkInterpolation:
    """Numerator + denominator results of one interpolation run."""

    numerator: InterpolationResult
    denominator: InterpolationResult

    def rational_function(self):
        """The interpolated ``H(s) = N(s) / D(s)`` (full coefficient sets)."""
        from .polynomial import Polynomial
        from .rational import RationalFunction

        return RationalFunction(
            Polynomial(self.numerator.coefficients()),
            Polynomial(self.denominator.coefficients()),
        )

    def transfer_at(self, s) -> complex:
        """Evaluate the interpolated transfer function at ``s`` (both full sets)."""
        return self.rational_function().evaluate(s)

    def frequency_response(self, frequencies) -> np.ndarray:
        """``H(j 2π f)`` of the interpolated function over a grid (batched)."""
        return self.rational_function().frequency_response(frequencies)


def interpolate_polynomial(sampler, kind="denominator",
                           factors=ScaleFactors(), num_points=None,
                           significant_digits=6) -> InterpolationResult:
    """One interpolation of the numerator or denominator polynomial.

    Parameters
    ----------
    sampler:
        A :class:`~repro.nodal.sampler.NetworkFunctionSampler`.
    kind:
        ``"numerator"`` or ``"denominator"``.
    factors:
        Frequency / conductance :class:`ScaleFactors` (identity by default,
        which reproduces the unscaled behaviour of Table 1a).
    num_points:
        Number of interpolation points; defaults to the degree bound + 1.
    significant_digits:
        σ used by the validity threshold (Eq. 12).
    """
    if kind not in ("numerator", "denominator"):
        raise InterpolationError(f"unknown polynomial kind {kind!r}")
    if num_points is None:
        num_points = sampler.max_polynomial_degree() + 1
    points = unit_circle_points(num_points)
    samples = sampler.sample_many(points, factors.conductance, factors.frequency)
    return _interpolate(sampler, kind, samples, factors, significant_digits)


def _interpolate(sampler, kind, samples, factors,
                 significant_digits) -> InterpolationResult:
    """Inverse DFT and valid region of one polynomial's ``samples``."""
    pairs = [getattr(sample, kind) for sample in samples]
    values, exponent = inverse_dft_scaled(pairs)
    admittance_order = (sampler.formulation.denominator_admittance_order
                        if kind == "denominator"
                        else sampler.formulation.numerator_admittance_order)
    try:
        region = find_valid_region(values, exponent, significant_digits)
    except InterpolationError:
        region = None
    return InterpolationResult(
        kind=kind,
        factors=factors,
        num_points=len(samples),
        normalized=values,
        common_exponent=exponent,
        admittance_order=admittance_order,
        region=region,
        significant_digits=significant_digits,
    )


def interpolate_network_function(circuit, spec, factors=ScaleFactors(),
                                 num_points=None, significant_digits=6,
                                 method="auto",
                                 admittance_transform=True) -> NetworkInterpolation:
    """Interpolate numerator and denominator of a circuit's network function.

    Convenience wrapper: transforms the circuit to admittance form, builds the
    sampler and interpolates both polynomials with the same scale factors
    (sharing the samples).

    Parameters
    ----------
    circuit:
        The circuit (any linear circuit; inductors are transformed away).
    spec:
        A :class:`~repro.nodal.reduce.TransferSpec`.
    admittance_transform:
        Set to False when the circuit is already in admittance form.
    """
    if admittance_transform:
        circuit = to_admittance_form(circuit)
    sampler = NetworkFunctionSampler(circuit, spec, method=method)
    if num_points is None:
        num_points = sampler.max_polynomial_degree() + 1
    points = unit_circle_points(num_points)
    samples = sampler.sample_many(points, factors.conductance, factors.frequency)
    return NetworkInterpolation(
        numerator=_interpolate(sampler, "numerator", samples, factors,
                               significant_digits),
        denominator=_interpolate(sampler, "denominator", samples, factors,
                                 significant_digits))
