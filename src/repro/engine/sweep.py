"""Batched frequency-sweep factorization engine, shared by every formulation.

One sweep is "factor ``A(s_k) = g·G + s_k·f·C`` at every point of a frequency
grid, reusing everything that does not depend on the frequency".  The engine
owns the whole strategy:

* **dispatch** — dense at or below the :mod:`repro.linalg.config` cutoff,
  sparse above (``method="auto"``), or forced either way;
* **dense path** — the sweep is assembled chunk by chunk (so the ``(K, n, n)``
  stack never outgrows a fixed memory budget) and factored with
  :func:`~repro.linalg.dense.batched_dense_lu`, one vectorized elimination
  per chunk;
* **sparse path** — the union sparsity structure is assembled once, its
  approximate-minimum-degree elimination order
  (:func:`~repro.linalg.ordering.fill_reducing_order`) is computed from it
  and the ordered pivot search
  (:func:`~repro.linalg.lu.sparse_lu_reusing`) runs at the first point.  Its
  pivot order is compiled into a :class:`~repro.linalg.lu.RefactorSchedule`
  and every other point is refactored by it, vectorized over chunks of
  points sized by the schedule's memory model; a point whose reused pivot
  degrades gets a fresh ordered factorization, which becomes the pattern
  for the points after it.  A resilient sparse sweep runs the same chunks
  as the fast stage of :mod:`repro.engine.resilience` and escalates only
  the points whose residual they fail.

:class:`SweepEngine` streams factors (factor, use, discard — the memory-light
shape of ``ac_sweep``); :class:`SweepFactors` keeps them (the shape of
``ac_factor_sweep`` and the rank-1 screening, where every subsequent solve
costs O(n²) instead of an O(n³) refactorization).  The MNA sweeps
(:mod:`repro.mna.solve`), the interpolation sampler's sweeps
(:mod:`repro.nodal.sampler`), the sensitivity engine
(:mod:`repro.analysis.sensitivity`) and the sparse path of the Monte Carlo
ensemble (:mod:`repro.montecarlo.engine`) are all thin adapters over this
module.
"""

from __future__ import annotations

import numpy as np

from ..errors import FormulationError, SingularMatrixError
from ..linalg.config import dense_cutoff, use_dense
from ..linalg.dense import batched_dense_lu, sweep_chunk_size
from ..linalg.lu import RefactorSchedule, sparse_lu_reusing
from ..linalg.ordering import fill_reducing_order
from ..linalg.sparse import SparseMatrix
from .resilience import (RESIDUAL_LIMIT, EscalationRecord, _entry_residuals,
                         _escalate, resilient_sparse_solve)

__all__ = ["SweepEngine", "SweepFactors"]

_METHODS = ("auto", "dense", "sparse")

#: Modelled working memory of one sparse refactorization chunk (see
#: :meth:`~repro.linalg.lu.RefactorSchedule.chunk_members`); consumers
#: release each chunk before the next is factored, so this bounds the
#: path's transient memory.  At nodal n≈200 it holds 55–125 points, so a
#: typical interpolation sweep (~150 points) runs in two or three chunks
#: while a post-layout reference adds only a few MiB to the process.
_SPARSE_CHUNK_BYTES = 5 * 1024 * 1024


class SweepEngine:
    """Factorization strategy for one formulation across frequency sweeps.

    Parameters
    ----------
    formulation:
        Any :class:`~repro.engine.formulation.Formulation` (an
        :class:`~repro.mna.builder.MnaSystem` or a
        :class:`~repro.nodal.admittance.NodalFormulation`).
    method:
        ``"auto"`` (dense at or below the configured cutoff), ``"dense"`` or
        ``"sparse"``.
    singular_label:
        Noun used in :class:`~repro.errors.SingularMatrixError` messages
        (``"matrix"``, ``"MNA matrix"``, …), so adapters keep their historic
        diagnostics.

    Attributes
    ----------
    factorization_count:
        Full (pivot-searching) factorizations performed; the dense path
        counts one per sweep point.
    refactorization_count:
        Sweep points served by the compiled refactorization (sparse path
        only).
    dense_cutoff:
        The dense/sparse dispatch cutoff, snapshotted at construction
        (``REPRO_DENSE_CUTOFF`` is read once per engine, so one engine never
        mixes backends when the environment changes mid-life).

    The engine instance carries the sparse pivot pattern across calls, so a
    long-lived engine (e.g. a
    :class:`~repro.nodal.sampler.NetworkFunctionSampler`'s) keeps
    refactoring cheaply from one sweep to the next.
    """

    def __init__(self, formulation, method="auto", singular_label="matrix"):
        if method not in _METHODS:
            raise FormulationError(f"unknown factorization method {method!r}")
        self.formulation = formulation
        self.method = method
        self.singular_label = singular_label
        self.dense_cutoff = dense_cutoff()
        self.factorization_count = 0
        self.refactorization_count = 0
        self._sparse_pattern = None
        self._column_order = None
        self._refactor_plan = None

    @property
    def dimension(self):
        """Number of unknowns of the underlying formulation."""
        return self.formulation.dimension

    @property
    def is_dense(self):
        """True when this engine factors through the dense (batched) LU."""
        return use_dense(self.formulation.dimension, self.method,
                         self.dense_cutoff)

    def column_order(self):
        """The engine's elimination order: AMD of its merged structure.

        Computed once per engine from the merged sparsity structure — purely
        structural, so it is shared by every sweep point, every parameter
        sample and every refactorization fallback this engine performs.
        """
        if self._column_order is None:
            keys, __, __ = self.formulation.merged_sparse_structure()
            self._column_order = fill_reducing_order(
                self.formulation.dimension, keys)
        return self._column_order

    # ------------------------------------------------------------------ #
    # streaming factor production
    # ------------------------------------------------------------------ #

    def dense_chunks(self, s, conductance_scale=1.0, frequency_scale=1.0):
        """Yield ``(start, BatchedDenseLU)`` chunks covering the sweep.

        Chunks are sized by :func:`~repro.linalg.dense.sweep_chunk_size` so
        the assembled stack stays within a fixed memory budget regardless of
        grid length.

        Raises
        ------
        SingularMatrixError
            When the assembled matrix is singular at some sweep point.
        """
        chunk = sweep_chunk_size(self.formulation.dimension)
        for start in range(0, len(s), chunk):
            block = s[start:start + chunk]
            stack = self.formulation.assemble_batch(block, conductance_scale,
                                                    frequency_scale)
            factorization = batched_dense_lu(stack, overwrite=True)
            self.factorization_count += len(block)
            if factorization.singular.any():
                index = int(np.argmax(factorization.singular))
                raise SingularMatrixError(
                    f"{self.singular_label} is singular at sweep point "
                    f"{start + index} (s={complex(block[index])!r})"
                )
            yield start, factorization

    def sparse_factors(self, s, conductance_scale=1.0, frequency_scale=1.0):
        """Yield ``(start, factors)`` chunks covering the sweep.

        Like :meth:`dense_chunks`: each chunk factors ``factors.batch``
        consecutive points and offers batched ``solve`` /
        ``solve_matrix`` / ``determinants_mantissa_exponent``.  The values
        ``g·G + s_k·f·C`` are filled straight from the formulation's merged
        structure.
        """
        keys, constant_values, dynamic_values = (
            self.formulation.merged_sparse_structure())
        base = (constant_values if conductance_scale == 1.0
                else conductance_scale * constant_values)
        yield from self._sparse_chunks(
            keys, base, dynamic_values, _frequency_factors(s, frequency_scale))

    def _sparse_chunks(self, keys, base, dynamic, factors):
        """Factor ``base + factors[k]·dynamic`` for every ``k``, in chunks.

        Without a pivot pattern (the engine's first point, or a degraded
        point) the ordered pivot search
        (:func:`~repro.linalg.lu.sparse_lu_reusing`) runs on one point and
        its scalar factorization serves that point.  Otherwise the
        pattern's compiled schedule factors a chunk of points at once; the
        healthy members before the first degraded one are yielded and the
        pattern is dropped, so the degraded point gets the pivot search.
        """
        n = self.formulation.dimension
        order = self.column_order()
        start = 0
        while start < len(factors):
            if self._sparse_pattern is None:
                values = base + factors[start] * dynamic
                matrix = SparseMatrix.from_entries(n, n,
                                                   zip(keys, values.tolist()))
                factorization, self._sparse_pattern, __ = sparse_lu_reusing(
                    matrix, order)
                self.factorization_count += 1
                yield start, _PivotSearchPoint(factorization)
                start += 1
                continue
            schedule, slots = self._schedule(keys)
            block = factors[start:start + schedule.chunk_members(
                _SPARSE_CHUNK_BYTES)]
            chunk = schedule.factor(base + block[:, None] * dynamic, slots)
            healthy = chunk.healthy_prefix()
            if healthy:
                self.refactorization_count += healthy
                yield start, chunk.head(healthy)
                start += healthy
            if healthy < len(block):
                # Dropped only now, so an escalating sweep keeps it.
                self._sparse_pattern = None
            # Hold no chunk while the next one is factored.
            del chunk

    def _sparse_solutions(self, keys, base, dynamic, factors, rhs,
                          report=None, indexer=None):
        """Yield ``(start, x)``: ``base + factors[k]·dynamic`` solved for
        ``rhs``, ``x`` stacking points ``start, start + 1, …``.

        The one sparse solve loop.  Without a ``report`` a singular pivot
        search raises, and so does a non-finite value, before any pivot
        search.  With one, each chunk of :meth:`_sparse_chunks` is
        the escalation chain's fast stage: its members are accepted in order
        while finite with a scaled residual within
        :data:`~repro.engine.resilience.RESIDUAL_LIMIT`.  The first member
        that fails, or a pivot search that raises, goes alone through
        :func:`~repro.engine.resilience.resilient_sparse_solve` (a ``fresh``
        factorization it accepts becomes the pattern) and the sweep resumes
        after it.  ``indexer(k)`` gives point ``k``'s ``(report index,
        description)``; an unrecoverable point yields a NaN row.
        """
        if report is None:
            if not all(np.isfinite(part).all()
                       for part in (base, dynamic, factors)):
                raise SingularMatrixError(
                    f"{self.singular_label} contains non-finite entries")
            for start, chunk in self._sparse_chunks(keys, base, dynamic,
                                                    factors):
                yield start, chunk.solve(rhs)
                del chunk
            return
        n = self.formulation.dimension
        start = 0
        while start < len(factors):
            point = start
            try:
                for offset, chunk in self._sparse_chunks(
                        keys, base, dynamic, factors[start:]):
                    point = start + offset
                    # Keep a non-finite member's NaN arithmetic from warning.
                    with np.errstate(invalid="ignore"):
                        x = chunk.solve(rhs)
                        scores = _entry_residuals(keys, base + factors[
                            point:point + len(x), None] * dynamic, x, rhs)
                    failing = np.flatnonzero(scores > RESIDUAL_LIMIT)
                    accepted = int(failing[0]) if failing.size else len(x)
                    if (accepted < len(x)
                            and not isinstance(chunk, _PivotSearchPoint)):
                        # The resumed loop serves the members after it.
                        self.refactorization_count -= len(x) - accepted
                    del chunk
                    if accepted:
                        report.record_fast(accepted)
                        yield point, x[:accepted]
                    point += accepted
                    if accepted < len(x):
                        reason = (f"fast sparse residual {scores[accepted]:.3e}"
                                  f" above limit {RESIDUAL_LIMIT:.3e}")
                        break
                else:
                    return
            except SingularMatrixError as error:
                # Only the pivot search raises, at the first point not yet
                # served.
                reason = str(error)
            matrix = SparseMatrix.from_entries(n, n, zip(
                keys, (base + factors[point] * dynamic).tolist()))
            self.factorization_count += 1
            escalated = _escalate(report, *indexer(point), lambda: (
                resilient_sparse_solve(matrix, rhs,
                                       (EscalationRecord("fast", reason),))))
            if escalated is None:
                yield point, np.full((1, n), np.nan, dtype=complex)
            else:
                if escalated[2] is not None:
                    self._sparse_pattern = escalated[2]
                yield point, escalated[0][None, :]
            start = point + 1

    def _schedule(self, keys):
        """The pattern's compiled schedule and the slots of ``keys`` in it.

        A schedule depends only on the pivot order and the keys, so the plan
        is kept per order: patterns that choose the same order (one per
        ensemble sample) share one compiled schedule.
        """
        pattern = self._sparse_pattern
        plan_key = (pattern.pivot_rows, pattern.pivot_cols, keys)
        if self._refactor_plan is None or self._refactor_plan[0] != plan_key:
            schedule = RefactorSchedule(self.formulation.dimension,
                                        pattern.pivot_rows,
                                        pattern.pivot_cols, keys)
            self._refactor_plan = (plan_key, schedule,
                                   schedule.slots_of(keys))
        return self._refactor_plan[1:]

    # ------------------------------------------------------------------ #
    # whole-sweep conveniences
    # ------------------------------------------------------------------ #

    def solve_sweep(self, s, rhs, conductance_scale=1.0,
                    frequency_scale=1.0) -> np.ndarray:
        """Solve ``A(s_k) x_k = rhs`` at every point, discarding the factors.

        ``rhs`` is one shared right-hand side (broadcast over the sweep).
        Returns ``(K, n)`` complex solutions in input order; the first
        singular point raises :class:`~repro.errors.SingularMatrixError`.
        """
        s = np.asarray(s, dtype=complex)
        solutions = np.zeros((len(s), self.formulation.dimension),
                             dtype=complex)
        if len(s) == 0:
            return solutions
        for start, factorization in self._chunks(s, conductance_scale,
                                                 frequency_scale):
            solutions[start:start + factorization.batch] = (
                factorization.solve(rhs))
            del factorization
        return solutions

    def factor_sweep(self, s, conductance_scale=1.0,
                     frequency_scale=1.0) -> "SweepFactors":
        """Factor at every point and *keep* the factors (see :class:`SweepFactors`)."""
        s = np.asarray(list(s), dtype=complex)
        factors = list(self._chunks(s, conductance_scale, frequency_scale))
        return SweepFactors(self.formulation, s, factors)

    def _chunks(self, s, conductance_scale, frequency_scale):
        """:meth:`dense_chunks` or :meth:`sparse_factors`, as dispatched."""
        chunks = self.dense_chunks if self.is_dense else self.sparse_factors
        return chunks(s, conductance_scale, frequency_scale)


class SweepFactors:
    """Cached LU factors of ``A(s_k)`` across one whole frequency sweep.

    Where :meth:`SweepEngine.solve_sweep` factors, solves once and discards,
    this object *keeps* the factors: the chunks of the streaming path
    (:class:`~repro.linalg.dense.BatchedDenseLU` stacks, or
    :class:`~repro.linalg.lu.BatchedSparseLU` refactorizations plus the
    pivot-search points), so solutions are bit-identical to it.  Repeated
    solves against the same sweep — the baseline plus one solve per screened
    element in the rank-1 sensitivity engine — then cost O(n²) per
    right-hand side instead of an O(n³) refactorization.

    Build via :meth:`SweepEngine.factor_sweep` (or the
    :func:`repro.mna.solve.ac_factor_sweep` adapter).
    """

    def __init__(self, formulation, s_values, factors):
        self.formulation = formulation
        self.s_values = s_values
        #: ``(start_index, chunk)`` pairs covering the sweep in order.
        self.factors = factors

    @property
    def num_points(self):
        """Number of sweep points covered by the cached factors."""
        return len(self.s_values)

    @property
    def dimension(self):
        """Number of unknowns per sweep point."""
        return self.formulation.dimension

    def solve(self, rhs) -> np.ndarray:
        """Solve ``A(s_k) x_k = rhs`` at every point; returns ``(K, n)``."""
        rhs = np.asarray(rhs, dtype=complex)
        solutions = np.zeros((len(self.s_values), self.dimension),
                             dtype=complex)
        for start, factorization in self.factors:
            solutions[start:start + factorization.batch] = (
                factorization.solve(rhs))
        return solutions

    def solve_columns(self, columns) -> np.ndarray:
        """Solve ``A(s_k) W = U`` for an ``(n, m)`` column stack at every point.

        Returns ``(K, n, m)`` — one solved column per right-hand-side column
        per sweep point.  The rank-1 screening pushes every element's
        incidence vector through the cached factors with a single call.
        """
        columns = np.asarray(columns, dtype=complex)
        if columns.ndim != 2 or columns.shape[0] != self.dimension:
            raise FormulationError(
                f"columns must be ({self.dimension}, m), got {columns.shape}"
            )
        solutions = np.zeros(
            (len(self.s_values), self.dimension, columns.shape[1]),
            dtype=complex)
        for start, factorization in self.factors:
            solutions[start:start + factorization.batch] = (
                factorization.solve_matrix(columns))
        return solutions

    def __repr__(self):
        return f"SweepFactors(n={self.dimension}, points={self.num_points})"


def _frequency_factors(s, frequency_scale):
    """``s_k·f`` for every sweep point (``s`` itself when ``f`` is 1)."""
    s = np.asarray(s, dtype=complex)
    return s if frequency_scale == 1.0 else s * frequency_scale


class _PivotSearchPoint:
    """A one-point chunk served by the scalar factorization of a pivot search.

    Gives a fresh :class:`~repro.linalg.lu.LUFactorization` the chunk
    interface of :class:`~repro.linalg.lu.BatchedSparseLU`, computing
    through its own scalar ``determinant_mantissa_exponent`` and ``solve``.
    """

    batch = 1

    def __init__(self, factorization):
        self.factorization = factorization

    @property
    def nbytes(self):
        return self.factorization.nbytes

    def determinants_mantissa_exponent(self):
        mantissa, exponent = self.factorization.determinant_mantissa_exponent()
        return np.array([mantissa]), np.array([exponent], dtype=np.int64)

    def solve(self, rhs):
        rhs = np.asarray(rhs, dtype=complex)
        return self.factorization.solve(rhs if rhs.ndim == 1
                                        else rhs[0])[None, :]

    def solve_matrix(self, rhs_matrix):
        rhs_matrix = np.asarray(rhs_matrix, dtype=complex)
        return self.factorization.solve_many(
            rhs_matrix if rhs_matrix.ndim == 2 else rhs_matrix[0])[None]
