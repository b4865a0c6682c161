"""The formulation protocol shared by the MNA and nodal builders.

A *formulation* is an assembled linear-system description ``A(s) = g·G + s·f·C``
over some unknown vector, together with enough structure for the sweep engine
to factor it: the sparse ``(G, C)`` parts and the dimension.
:class:`repro.mna.builder.MnaSystem` (node voltages + branch currents, no
scaling) and :class:`repro.nodal.admittance.NodalFormulation` (unknown node
voltages with Eq. (11) conductance / frequency scaling and forced-column RHS
projection) are the two implementations.

:class:`FormulationBase` carries the assembly-adjacent logic both builders
used to duplicate: cached dense ``(G, C)`` arrays, single-point sparse
assembly, batched ``(K, n, n)`` stack assembly, and the cached union sparsity
structure the sparse refactorization path iterates over.  Scale factors of
exactly ``1.0`` skip their multiplies, so unscaled users (MNA) assemble
bit-for-bit what they assembled before the refactor.
"""

from __future__ import annotations

from typing import Protocol, Tuple, runtime_checkable

import numpy as np

from ..linalg.sparse import SparseMatrix, merged_structure

__all__ = ["Formulation", "FormulationBase"]


@runtime_checkable
class Formulation(Protocol):
    """What the sweep engine requires of an assembled system description."""

    @property
    def dimension(self) -> int:
        """Number of unknowns (rows of the square system matrix)."""

    def sparse_parts(self) -> Tuple[SparseMatrix, SparseMatrix]:
        """The constant and frequency-proportional sparse parts ``(G, C)``."""

    def dense_parts(self) -> Tuple[np.ndarray, np.ndarray]:
        """Cached dense ``(G, C)`` arrays for the batched evaluation path."""

    def assemble(self, s, conductance_scale=1.0, frequency_scale=1.0):
        """``g·G + s·f·C`` as a :class:`SparseMatrix` at one frequency."""

    def assemble_batch(self, s_values, conductance_scale=1.0,
                       frequency_scale=1.0) -> np.ndarray:
        """``g·G + s_k·f·C`` for every ``s_k`` as one ``(K, n, n)`` stack."""


class FormulationBase:
    """Shared assembly machinery for :class:`Formulation` implementations.

    Subclasses provide :meth:`sparse_parts` (and their own ``dimension``);
    this base derives everything the sweep engine consumes from it.  The
    caches are per-instance and lazily created, so subclasses need no
    cooperation in ``__init__``.
    """

    #: Lazily filled caches (class-level ``None`` doubles as "not built yet").
    _dense_parts_cache = None
    _merged_structure_cache = None

    def sparse_parts(self):
        """The constant and frequency-proportional sparse parts ``(G, C)``."""
        raise NotImplementedError

    def dense_parts(self):
        """Cached dense ``(G, C)`` arrays for the batched evaluation path.

        The sparse stamping matrices are converted exactly once; every batched
        sweep then assembles ``g·G + s_k·f·C`` with plain numpy arithmetic
        instead of per-point dictionary iteration.
        """
        if self._dense_parts_cache is None:
            constant, dynamic = self.sparse_parts()
            self._dense_parts_cache = (constant.to_dense(), dynamic.to_dense())
        return self._dense_parts_cache

    def merged_sparse_structure(self):
        """Cached union sparsity structure: keys plus G / C value arrays.

        This is what the sparse sweep path evaluates per point — only the
        values ``g·G + s_k·f·C`` change over a sweep, never the keys.
        """
        if self._merged_structure_cache is None:
            constant, dynamic = self.sparse_parts()
            self._merged_structure_cache = merged_structure(constant, dynamic)
        return self._merged_structure_cache

    def assemble(self, s, conductance_scale=1.0, frequency_scale=1.0):
        """``g·G + s·f·C`` as a new :class:`SparseMatrix`."""
        constant, dynamic = self.sparse_parts()
        if conductance_scale == 1.0:
            matrix = constant.copy()
        else:
            matrix = constant.scaled(conductance_scale)
        factor = complex(s)
        if frequency_scale != 1.0:
            factor = factor * frequency_scale
        for row, col, value in dynamic.entries():
            matrix.add(row, col, factor * value)
        return matrix

    def assemble_batch(self, s_values, conductance_scale=1.0,
                       frequency_scale=1.0) -> np.ndarray:
        """``g·G + s_k·f·C`` for every ``s_k`` as one ``(K, n, n)`` stack.

        Entry-for-entry this evaluates the same products as :meth:`assemble`,
        so batched sweeps reproduce the per-point matrices to the last bit.
        """
        s = np.asarray(s_values, dtype=complex)
        constant, dynamic = self.dense_parts()
        factors = s if frequency_scale == 1.0 else s * frequency_scale
        base = constant[None, :, :]
        if conductance_scale != 1.0:
            base = conductance_scale * base
        return base + factors[:, None, None] * dynamic[None, :, :]
