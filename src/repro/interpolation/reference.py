"""High-level numerical reference generation.

:func:`generate_reference` is the library's main entry point: given a circuit
and a transfer-function specification it runs the adaptive scaling
interpolation for both numerator and denominator and returns a
:class:`NumericalReference` — exactly the object SBG / SDG error control needs
(total coefficient magnitudes ``h_k(x_0)`` of Eq. 3, plus the full rational
function for frequency-domain comparisons).
"""

from __future__ import annotations

import dataclasses
from typing import List

import numpy as np

from ..errors import ReferenceError_
from ..netlist.transform import to_admittance_form
from ..nodal.reduce import TransferSpec
from ..nodal.sampler import NetworkFunctionSampler
from ..xfloat import XFloat
from .adaptive import AdaptiveOptions, AdaptiveResult, AdaptiveScalingInterpolator
from .rational import RationalFunction

__all__ = ["NumericalReference", "generate_reference"]


@dataclasses.dataclass
class NumericalReference:
    """The numerical reference of a network function.

    Attributes
    ----------
    numerator, denominator:
        :class:`~repro.interpolation.adaptive.AdaptiveResult` for each
        polynomial, carrying the extended-range coefficients, per-iteration
        records and convergence information.
    spec:
        The transfer specification the reference was generated for.
    """

    numerator: AdaptiveResult
    denominator: AdaptiveResult
    spec: TransferSpec

    # ------------------------------------------------------------------ #

    def _result(self, kind) -> AdaptiveResult:
        if kind in ("numerator", "n", "num"):
            return self.numerator
        if kind in ("denominator", "d", "den"):
            return self.denominator
        raise ReferenceError_(f"unknown polynomial kind {kind!r}")

    def coefficient(self, kind, power) -> XFloat:
        """Reference coefficient ``h_k(x_0)`` — the Eq. (3) comparison value."""
        return self._result(kind).coefficient(power)

    def coefficient_magnitude(self, kind, power) -> float:
        """``log10 |h_k(x_0)|`` (``-inf`` for negligible coefficients)."""
        value = self.coefficient(kind, power)
        if value.is_zero():
            return float("-inf")
        return value.log10()

    def coefficients(self, kind) -> List[XFloat]:
        """All reference coefficients of one polynomial."""
        return list(self._result(kind).coefficients)

    def transfer_function(self) -> RationalFunction:
        """The reference network function ``H(s) = N(s) / D(s)``."""
        return RationalFunction(self.numerator.polynomial(),
                                self.denominator.polynomial())

    def bode(self, frequencies):
        """``(magnitude_db, phase_deg)`` of the reference over ``frequencies``."""
        return self.transfer_function().bode(frequencies)

    def frequency_response(self, frequencies) -> np.ndarray:
        """Complex ``H(j2πf)`` of the reference (vectorized over the grid)."""
        return self.transfer_function().frequency_response(frequencies)

    @property
    def converged(self):
        """True when both polynomials were fully resolved."""
        return self.numerator.converged and self.denominator.converged

    def iteration_count(self):
        """Total number of interpolations across numerator and denominator."""
        return self.numerator.iteration_count() + self.denominator.iteration_count()

    def summary(self) -> str:
        """Multi-line human-readable summary of the reference generation."""
        lines = [
            f"numerical reference for {self.spec.describe()}",
            "  " + self.numerator.summary(),
            "  " + self.denominator.summary(),
        ]
        return "\n".join(lines)


def generate_reference(circuit, spec, options=None, method="auto",
                       admittance_transform=True, merge_parallel=False,
                       session=None) -> NumericalReference:
    """Generate the numerical reference of a circuit's network function.

    Parameters
    ----------
    circuit:
        Any linear(ized) circuit; inductors are transformed to gyrator-C form.
    spec:
        A :class:`~repro.nodal.reduce.TransferSpec` (drive sources + output).
    options:
        :class:`~repro.interpolation.adaptive.AdaptiveOptions` shared by the
        numerator and denominator runs.
    method:
        LU backend selection (``"auto"``, ``"dense"``, ``"sparse"``).
    admittance_transform:
        Set to False when the circuit is already in admittance form.
    merge_parallel:
        Merge parallel capacitors / conductances first (tightens the degree
        bound, hence the point count).
    session:
        Optional :class:`~repro.engine.session.AnalysisSession` — the whole
        generation run is then memoized on circuit content, spec, options
        and backend, so chained workloads (SBG error control followed by an
        interpolation stage on the same circuit) generate the reference
        exactly once.

    Returns
    -------
    NumericalReference
    """
    if session is not None:
        return session.reference(circuit, spec, options=options,
                                 method=method,
                                 admittance_transform=admittance_transform,
                                 merge_parallel=merge_parallel)
    if admittance_transform:
        circuit = to_admittance_form(circuit, merge_parallel=merge_parallel)
    sampler = NetworkFunctionSampler(circuit, spec, method=method)
    options = options or AdaptiveOptions()

    denominator = AdaptiveScalingInterpolator(
        sampler, kind="denominator", options=options
    ).run()
    numerator = AdaptiveScalingInterpolator(
        sampler, kind="numerator", options=options
    ).run()

    if isinstance(spec, TransferSpec):
        resolved_spec = spec
    else:
        resolved_spec = sampler.formulation.spec
    return NumericalReference(numerator=numerator, denominator=denominator,
                              spec=resolved_spec)
