"""Batched evaluation of network-function samples over whole frequency sweeps.

The per-point path (:meth:`~repro.nodal.sampler.NetworkFunctionSampler.sample`)
rebuilds the scaled nodal matrix and re-derives a factorization from scratch
at every complex frequency ``s_k``.  Across a sweep all those matrices share
one structure — ``g·G + s_k·f·C`` with fixed ``G`` and ``C`` — so the
:class:`BatchSampler` delegates the whole factor-hoisting strategy to the
shared sweep engine (:class:`~repro.engine.sweep.SweepEngine`):

* the frequency-independent (``G``) and frequency-proportional (``C``) parts
  are assembled **once** (dense arrays at or below the configured cutoff, a
  cached sparsity structure above it),
* dense systems are factored with :func:`~repro.linalg.dense.batched_dense_lu`
  — one elimination loop vectorized over the whole stack of sweep points,
* sparse systems run the ordered pivot search once and replay its compiled
  pivot order on chunks of sweep points, with one vectorized determinant and
  one vectorized solve per chunk, falling back to a fresh factorization only
  when a reused pivot becomes numerically unacceptable,
* right-hand sides and output voltages are evaluated as numpy batches.

What stays here is the *sampling* semantics of Eqs. (7)–(10): determinant
mantissa/exponent extraction, forced-output short-circuits and the
``N(s_k) = H(s_k)·D(s_k)`` bookkeeping.  The result is bit-compatible (dense
path) or rounding-compatible (sparse path) with the per-point sampler, which
the equivalence tests in ``tests/test_batch_sweep.py`` and
``benchmarks/bench_batch_sweep.py`` assert.
"""

from __future__ import annotations

import math
from typing import List

import numpy as np

from ..engine.sweep import SweepEngine
from ..errors import InterpolationError
from .admittance import NodalFormulation, build_nodal_formulation
from .reduce import TransferSpec
from .sampler import SampleValue, _scaled_value

__all__ = ["BatchSampler"]


class BatchSampler:
    """Samples ``N(s_k)`` and ``D(s_k)`` for a whole sweep in one pass.

    Parameters
    ----------
    circuit:
        Admittance-form circuit, or a ready-made
        :class:`~repro.nodal.admittance.NodalFormulation` (then ``spec`` may
        be omitted).
    spec:
        :class:`~repro.nodal.reduce.TransferSpec` naming drive and output, or
        a :class:`NodalFormulation` (mirroring
        :class:`~repro.nodal.sampler.NetworkFunctionSampler`).
    method:
        ``"auto"`` (dense at or below the configured
        :func:`~repro.linalg.config.dense_cutoff`), ``"dense"`` or
        ``"sparse"``.

    Attributes
    ----------
    factorization_count:
        Full (pivot-searching) factorizations performed.
    refactorization_count:
        Structure-reusing refactorizations performed (sparse path only).
    """

    def __init__(self, circuit, spec=None, method="auto"):
        if isinstance(circuit, NodalFormulation) and spec is None:
            self.formulation = circuit
        elif isinstance(spec, NodalFormulation):
            self.formulation = spec
        elif isinstance(spec, TransferSpec):
            self.formulation = build_nodal_formulation(circuit, spec)
        else:
            raise InterpolationError(
                "spec must be a TransferSpec or NodalFormulation"
            )
        if method not in ("auto", "dense", "sparse"):
            raise InterpolationError(f"unknown factorization method {method!r}")
        self.method = method
        #: The engine persists across calls, so the sparse pivot pattern (and
        #: the cached matrix structure) carries from one sweep to the next.
        self._engine = SweepEngine(self.formulation, method=method)

    # ------------------------------------------------------------------ #

    @property
    def dimension(self):
        """Number of unknown node voltages."""
        return self.formulation.dimension

    @property
    def factorization_count(self):
        """Full (pivot-searching) factorizations performed by the engine."""
        return self._engine.factorization_count

    @property
    def refactorization_count(self):
        """Structure-reusing refactorizations performed (sparse path only)."""
        return self._engine.refactorization_count

    # ------------------------------------------------------------------ #

    def sample_batch(self, points, conductance_scale=1.0,
                     frequency_scale=1.0) -> List[SampleValue]:
        """Evaluate numerator and denominator at every point of ``points``.

        Results are returned in input order, one
        :class:`~repro.nodal.sampler.SampleValue` per point, exactly as the
        per-point sampler would produce them.

        Raises
        ------
        SingularMatrixError
            When the scaled matrix is singular at some sweep point (matching
            the per-point path, which raises from the factorization).
        """
        s = np.asarray(list(points), dtype=complex)
        if s.size == 0:
            return []
        if self._engine.is_dense:
            return self._sample_batch_dense(s, conductance_scale,
                                            frequency_scale)
        forced = self._forced_transfer()
        if forced is None:
            rhs_stack = self.formulation.rhs_batch(s, conductance_scale,
                                                   frequency_scale)
        samples = []
        for start, factors in self._engine.sparse_factors(
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
                samples.append(self._make_sample(point, (mantissa, exponent),
                                                 transfer=transfer))
        return samples

    def transfer_values(self, points) -> np.ndarray:
        """``H(s_k)`` for every point, as a complex array in input order."""
        samples = self.sample_batch(points)
        return np.asarray([sample.transfer() for sample in samples],
                          dtype=complex)

    def frequency_response(self, frequencies) -> np.ndarray:
        """``H(j·2π·f)`` for an array of frequencies in hertz."""
        frequencies = np.asarray(frequencies, dtype=float)
        return self.transfer_values(2j * math.pi * frequencies)

    # ------------------------------------------------------------------ #
    # dense path: the engine's vectorized chunk LU, scalar member views
    # ------------------------------------------------------------------ #

    def _sample_batch_dense(self, s, conductance_scale, frequency_scale):
        formulation = self.formulation
        forced = self._forced_transfer()
        samples = []
        for start, factorization in self._engine.dense_chunks(
                s, conductance_scale, frequency_scale):
            block = s[start:start + factorization.batch]
            # The O(M^3) elimination ran once, vectorized over the chunk;
            # determinant accumulation and substitution (O(M) / O(M^2) per
            # point) go through scalar DenseLU views so every sample is
            # bit-for-bit the one the per-point path produces.
            for k, point in enumerate(block):
                member = factorization.member(k)
                det = member.determinant_mantissa_exponent()
                if forced is None:
                    samples.append(self._make_sample(
                        point, det, solve=member.solve,
                        conductance_scale=conductance_scale,
                        frequency_scale=frequency_scale))
                else:
                    samples.append(self._make_sample(point, det,
                                                     transfer=forced))
        return samples

    def _forced_transfer(self):
        """The constant output voltage when it is forced, else ``None``."""
        if not self.formulation.output_is_forced():
            return None
        return self.formulation.output_voltage(
            np.zeros(self.formulation.dimension, dtype=complex))

    # ------------------------------------------------------------------ #

    def _make_sample(self, point, det, transfer=None, solve=None,
                     conductance_scale=1.0, frequency_scale=1.0):
        """One :class:`SampleValue` from a determinant plus transfer source.

        Either ``transfer`` is the output voltage directly, or ``solve`` is
        a per-point solver applied to the right-hand side assembled from the
        scales — only once the determinant is known to be non-zero, matching
        the per-point sampler's short-circuit.
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

    # ------------------------------------------------------------------ #

    def __repr__(self):
        return (
            f"BatchSampler(M={self.dimension}, method={self.method!r}, "
            f"factorizations={self.factorization_count}, "
            f"refactorizations={self.refactorization_count})"
        )
