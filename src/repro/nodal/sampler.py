"""Evaluation of numerator / denominator samples at interpolation points.

This module implements Eqs. (7)–(10) of the paper: at a complex frequency
``s_k`` the (scaled) nodal matrix is LU-factored once; the determinant gives
``D(s_k)`` and the solution of the linear system gives ``H(s_k)``, from which
``N(s_k) = H(s_k) · D(s_k)``.

Because scaled determinants of large circuits can exceed the double-precision
exponent range, both values are carried as ``(complex mantissa, decimal
exponent)`` pairs (see :class:`SampleValue`); the DFT stage later rescales a
whole batch of samples by a common power of ten.

Every evaluation (:meth:`NetworkFunctionSampler.sample_many`, and
:meth:`~NetworkFunctionSampler.sample` as a one-point sweep) runs through the
sampler's :class:`~repro.engine.sweep.SweepEngine`, which assembles the
frequency-independent (``G``) and frequency-proportional (``C``) parts once
per sweep and shares the factorization work across all points: dense systems
are factored one vectorized elimination per chunk and sampled through scalar
member views, bit-for-bit the scalar :func:`~repro.linalg.dense.dense_lu`;
sparse systems replay one compiled pivot order over chunks of points, with
one vectorized determinant and one vectorized solve per chunk.
"""

from __future__ import annotations

import dataclasses
import math
from typing import List, Tuple

import numpy as np

from ..engine.sweep import SweepEngine
from ..errors import InterpolationError
from .admittance import NodalFormulation, build_nodal_formulation
from .reduce import TransferSpec

__all__ = ["SampleValue", "NetworkFunctionSampler"]


@dataclasses.dataclass
class SampleValue:
    """One evaluation of the network function at a complex frequency.

    ``numerator`` and ``denominator`` are ``(mantissa, exponent)`` pairs
    representing ``mantissa * 10**exponent`` with a complex mantissa.
    """

    s: complex
    numerator: Tuple[complex, int]
    denominator: Tuple[complex, int]

    def transfer(self) -> complex:
        """``H(s) = N(s) / D(s)`` as a plain complex number."""
        n_mantissa, n_exponent = self.numerator
        d_mantissa, d_exponent = self.denominator
        if d_mantissa == 0:
            raise ZeroDivisionError("denominator sample is zero")
        ratio = n_mantissa / d_mantissa
        shift = n_exponent - d_exponent
        return ratio * 10.0**shift


def _scaled_value(mantissa: complex, exponent: int) -> Tuple[complex, int]:
    """Renormalize so the mantissa magnitude is in [1, 10) (or exactly 0)."""
    if mantissa == 0:
        return 0.0 + 0.0j, 0
    magnitude = abs(mantissa)
    shift = int(math.floor(math.log10(magnitude)))
    if shift:
        mantissa /= 10.0**shift
        exponent += shift
    return mantissa, exponent


class NetworkFunctionSampler:
    """Samples ``N(s)`` and ``D(s)`` of a circuit's network function.

    Parameters
    ----------
    circuit:
        Admittance-form circuit (see
        :func:`repro.netlist.transform.to_admittance_form`).
    spec:
        :class:`~repro.nodal.reduce.TransferSpec` naming drive and output.
    method:
        ``"auto"`` (dense at or below the configured
        :func:`~repro.linalg.config.dense_cutoff`), ``"dense"`` or
        ``"sparse"``.
    """

    def __init__(self, circuit, spec, method="auto"):
        if isinstance(spec, TransferSpec):
            self.formulation = build_nodal_formulation(circuit, spec)
        elif isinstance(spec, NodalFormulation):
            self.formulation = spec
        else:
            raise InterpolationError(
                "spec must be a TransferSpec or NodalFormulation"
            )
        if method not in ("auto", "dense", "sparse"):
            raise InterpolationError(f"unknown factorization method {method!r}")
        #: Number of LU factorizations performed (for benchmarking).  Batched
        #: sweeps count one factorization per point, whether the work was done
        #: by the vectorized stack LU or by structure-reusing refactorization.
        self.factorization_count = 0
        #: The :class:`~repro.engine.sweep.SweepEngine` of :meth:`sample_many`.
        #: It persists across calls, so the sparse pivot pattern (and the
        #: cached matrix structure) carries from one sweep to the next.
        self.engine = SweepEngine(self.formulation, method=method)

    # ------------------------------------------------------------------ #

    @property
    def dimension(self):
        """Number of unknown node voltages."""
        return self.formulation.dimension

    def max_polynomial_degree(self):
        """Upper bound on numerator / denominator degree (see formulation)."""
        return self.formulation.max_polynomial_degree()

    # ------------------------------------------------------------------ #

    def sample(self, s, conductance_scale=1.0, frequency_scale=1.0) -> SampleValue:
        """Evaluate numerator and denominator at complex frequency ``s``.

        The matrix assembled is ``g·G + s·f·C`` — i.e. the *scaled* system —
        so the polynomial recovered from these samples has the normalized
        coefficients ``p'_i`` of Eq. (11).  A one-point :meth:`sample_many`.
        """
        return self.sample_many([s], conductance_scale, frequency_scale)[0]

    def sample_many(self, points, conductance_scale=1.0,
                    frequency_scale=1.0) -> List[SampleValue]:
        """Evaluate at every point of ``points`` (a sequence of complex values).

        Results preserve the input order, one :class:`SampleValue` per point.
        The sweep runs through :attr:`engine`: the matrix parts are assembled
        once and the factorization work is shared across all points.  Dense
        samples are bit-for-bit the scalar
        :func:`~repro.linalg.dense.dense_lu` of each point's matrix; sparse
        ones agree with a per-point :func:`~repro.linalg.lu.sparse_lu` to
        rounding (the sweep reuses the engine's pivot order where a fresh
        factorization would search afresh at every point).

        Raises
        ------
        SingularMatrixError
            When the scaled matrix of a sweep is singular at some point.
        """
        points = list(points)
        if not points:
            return []
        s = np.asarray(points, dtype=complex)
        forced = self._forced_transfer()
        samples = []
        if self.engine.is_dense:
            for start, factorization in self.engine.dense_chunks(
                    s, conductance_scale, frequency_scale):
                # The O(M^3) elimination ran once, vectorized over the chunk;
                # determinant accumulation and substitution (O(M) / O(M^2)
                # per point) go through scalar DenseLU views so every sample
                # is bit-for-bit the one the scalar dense_lu produces.
                for k, point in enumerate(
                        s[start:start + factorization.batch]):
                    member = factorization.member(k)
                    samples.append(self._make_sample(
                        point, member.determinant_mantissa_exponent(),
                        forced, member.solve, conductance_scale,
                        frequency_scale))
        else:
            if forced is None:
                rhs_stack = self.formulation.rhs_batch(s, conductance_scale,
                                                       frequency_scale)
            for start, factors in self.engine.sparse_factors(
                    s, conductance_scale, frequency_scale):
                stop = start + factors.batch
                mantissas, exponents = factors.determinants_mantissa_exponent()
                if forced is None:
                    transfers = [self.formulation.output_voltage(solution)
                                 for solution in factors.solve(
                                     rhs_stack[start:stop])]
                else:
                    transfers = [forced] * factors.batch
                # Release the chunk before the engine factors the next one.
                del factors
                for point, mantissa, exponent, transfer in zip(
                        s[start:stop], mantissas.tolist(), exponents.tolist(),
                        transfers):
                    samples.append(self._make_sample(
                        point, (mantissa, exponent), transfer))
        self.factorization_count += len(points)
        return samples

    def _forced_transfer(self):
        """The constant output voltage when it is forced, else ``None``."""
        if not self.formulation.output_is_forced():
            return None
        return self.formulation.output_voltage(
            np.zeros(self.formulation.dimension, dtype=complex))

    def _make_sample(self, point, det, transfer, solve=None,
                     conductance_scale=1.0, frequency_scale=1.0):
        """One :class:`SampleValue` from a determinant plus transfer source.

        Either ``transfer`` is the output voltage already, or ``solve`` is a
        per-point solver applied to the right-hand side assembled from the
        scales — only once the determinant is known to be non-zero.
        """
        det_mantissa, det_exponent = det
        if det_mantissa == 0:
            return SampleValue(s=complex(point), numerator=(0.0 + 0.0j, 0),
                               denominator=(0.0 + 0.0j, 0))
        if transfer is None:
            rhs = self.formulation.rhs(point, conductance_scale,
                                       frequency_scale)
            transfer = self.formulation.output_voltage(solve(rhs))
        return SampleValue(
            s=complex(point),
            numerator=_scaled_value(transfer * det_mantissa, det_exponent),
            denominator=(det_mantissa, det_exponent),
        )

    def transfer_value(self, s) -> complex:
        """Exact (unscaled) ``H(s)`` at a single complex frequency.

        This is the value a conventional AC analysis computes and is used for
        cross-checking interpolated polynomials (Fig. 2 of the paper).
        """
        return self.sample(s, 1.0, 1.0).transfer()

    def frequency_response(self, frequencies) -> np.ndarray:
        """``H(j·2π·f)`` for an array of frequencies in hertz (batched)."""
        frequencies = np.asarray(frequencies, dtype=float)
        samples = self.sample_many(2j * math.pi * frequencies)
        return np.asarray([sample.transfer() for sample in samples],
                          dtype=complex)
