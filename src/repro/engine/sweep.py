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
* **sparse path** — the union sparsity structure is assembled once, a
  fill-reducing elimination order (:mod:`repro.linalg.ordering`, AMD by
  default) is computed from it and the ordered pivot search
  (:func:`~repro.linalg.lu.sparse_lu_reusing`) runs at the first point.  Its
  pivot order is compiled into a :class:`~repro.linalg.lu.RefactorSchedule`
  and every other point is refactored by it, vectorized over chunks of
  points sized by the schedule's memory model; a point whose reused pivot
  degrades gets a fresh ordered factorization, which becomes the pattern
  for the points after it.

:class:`SweepEngine` streams factors (factor, use, discard — the memory-light
shape of ``ac_sweep``); :class:`SweepFactors` keeps them (the shape of
``ac_factor_sweep`` and the rank-1 screening, where every subsequent solve
costs O(n²) instead of an O(n³) refactorization).  The MNA sweeps
(:mod:`repro.mna.solve`), the interpolation batch sampler
(:mod:`repro.nodal.batch`) and the sensitivity engine
(:mod:`repro.analysis.sensitivity`) are all thin adapters over this module.
"""

from __future__ import annotations

import numpy as np

from ..errors import (FormulationError, SingularMatrixError,
                      SolveFailureError)
from ..linalg.config import (SPARSE_ORDERINGS, dense_cutoff, sparse_ordering,
                             use_dense)
from ..linalg.dense import batched_dense_lu, sweep_chunk_size
from ..linalg.lu import sparse_lu_reusing
from ..linalg.ordering import fill_reducing_order
from ..linalg.sparse import SparseMatrix
from .resilience import (SolvePolicy, SweepReport, resilient_sparse_solve,
                         solve_stack_resilient)

__all__ = ["SweepEngine", "SweepFactors"]

_METHODS = ("auto", "dense", "sparse")

#: Modelled working memory of one sparse refactorization chunk (see
#: :meth:`~repro.linalg.lu.RefactorSchedule.chunk_members`); consumers
#: release each chunk before the next is factored, so this bounds the
#: path's transient memory.  At nodal n≈200 it holds 55–125 points, so a
#: typical interpolation sweep (~150 points) runs in two or three chunks
#: while a post-layout reference adds only a few MiB to the process.
_SPARSE_CHUNK_BYTES = 5 * 1024 * 1024

#: Failure modes of the resilient solve entry points: ``"raise"`` aborts on
#: the first unrecoverable point (the legacy behavior when no policy is
#: given), ``"quarantine"`` masks it to NaN and records it in the engine's
#: :attr:`SweepEngine.last_report`.
_FAILURE_MODES = ("raise", "quarantine")


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
    ordering:
        Sparse elimination-ordering strategy (see
        :data:`~repro.linalg.config.SPARSE_ORDERINGS`): ``"auto"`` / ``"amd"``
        / ``"rcm"`` / ``"natural"`` pre-order the merged structure once and
        eliminate along that fixed order, ``"markowitz"`` keeps the dynamic
        per-step pivot search.  Default: the
        :func:`~repro.linalg.config.sparse_ordering` configuration.

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
    long-lived engine (e.g. inside a :class:`~repro.nodal.batch.BatchSampler`)
    keeps refactoring cheaply from one sweep to the next.
    """

    def __init__(self, formulation, method="auto", singular_label="matrix",
                 ordering=None):
        if method not in _METHODS:
            raise FormulationError(f"unknown factorization method {method!r}")
        if ordering is None:
            ordering = sparse_ordering()
        elif ordering not in SPARSE_ORDERINGS:
            raise FormulationError(
                f"unknown sparse ordering {ordering!r}")
        self.formulation = formulation
        self.method = method
        self.singular_label = singular_label
        self.ordering = ordering
        self.dense_cutoff = dense_cutoff()
        self.factorization_count = 0
        self.refactorization_count = 0
        #: :class:`~repro.engine.resilience.SweepReport` of the most recent
        #: resilient solve (``None`` after a legacy, non-resilient call).
        self.last_report = None
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
                         cutoff=self.dense_cutoff)

    def column_order(self):
        """The engine's fill-reducing elimination order (``None`` = Markowitz).

        Computed once per engine from the merged sparsity structure — purely
        structural, so it is shared by every sweep point, every parameter
        sample and every refactorization fallback this engine performs.
        """
        if self.ordering == "markowitz":
            return None
        if self._column_order is None:
            keys, __, __ = self.formulation.merged_sparse_structure()
            self._column_order = fill_reducing_order(
                self.formulation.dimension, keys, method=self.ordering)
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
        ``solve_matrix`` / ``determinants_mantissa_exponent`` plus scalar
        ``member`` views.  The values ``g·G + s_k·f·C`` are filled straight
        from the formulation's merged structure.
        """
        keys, constant_values, dynamic_values = (
            self.formulation.merged_sparse_structure())
        base = (constant_values if conductance_scale == 1.0
                else conductance_scale * constant_values)
        yield from self._sparse_chunks(
            keys, base, dynamic_values, _frequency_factors(s, frequency_scale))

    def _sparse_chunks(self, keys, base, dynamic, factors):
        """Factor ``base + factors[k]·dynamic`` for every ``k``, in chunks.

        Without a pivot pattern (the engine's first point, or the point
        after a degraded one) the ordered pivot search runs on one point and
        its scalar factorization serves that point.  Otherwise the
        pattern's compiled schedule factors a chunk of points at once; the
        healthy members before the first degraded one are yielded and the
        pattern is dropped, so the degraded point gets the pivot search —
        the rule of the per-point :func:`~repro.linalg.lu.sparse_lu_reusing`.
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
                    matrix, None, column_order=order)
                self.factorization_count += 1
                yield start, _PivotSearchPoint(factorization)
                start += 1
                continue
            schedule, slots = self._schedule(keys)
            block = factors[start:start + schedule.chunk_members(
                _SPARSE_CHUNK_BYTES)]
            chunk = schedule.factor(base + block[:, None] * dynamic, slots)
            healthy = chunk.healthy_prefix()
            if healthy < len(block):
                chunk = chunk.head(healthy)
                self._sparse_pattern = None
            if healthy:
                self.refactorization_count += healthy
                yield start, chunk
                start += healthy
            # Hold no chunk while the next one is factored.
            del chunk

    def _schedule(self, keys):
        """The pattern's compiled schedule and the slots of ``keys`` in it."""
        pattern = self._sparse_pattern
        if self._refactor_plan is None or self._refactor_plan[0] is not pattern:
            schedule = pattern.refactor_schedule(keys)
            self._refactor_plan = (pattern, schedule, schedule.slots_of(keys))
        return self._refactor_plan[1:]

    # ------------------------------------------------------------------ #
    # whole-sweep conveniences
    # ------------------------------------------------------------------ #

    def solve_sweep(self, s, rhs, conductance_scale=1.0,
                    frequency_scale=1.0, *, on_failure="raise",
                    policy=None) -> np.ndarray:
        """Solve ``A(s_k) x_k = rhs`` at every point, discarding the factors.

        ``rhs`` is one shared right-hand side (broadcast over the sweep).
        Returns ``(K, n)`` complex solutions in input order.

        ``on_failure="raise"`` with no ``policy`` (the default) is the legacy
        path: the first singular point raises
        :class:`~repro.errors.SingularMatrixError` and results are
        bit-identical to prior releases.  Supplying a
        :class:`~repro.engine.resilience.SolvePolicy` (or
        ``on_failure="quarantine"``) activates the escalation chain: failing
        points are recovered through progressively more careful
        factorizations, and unrecoverable ones either abort (``"raise"``)
        or are masked to NaN (``"quarantine"``) — either way the outcome is
        recorded in :attr:`last_report`.
        """
        if on_failure not in _FAILURE_MODES:
            raise FormulationError(f"unknown failure mode {on_failure!r}")
        s = np.asarray(s, dtype=complex)
        solutions = np.zeros((len(s), self.formulation.dimension),
                             dtype=complex)
        if on_failure == "raise" and policy is None:
            self.last_report = None
            if len(s) == 0:
                return solutions
            for start, factorization in self._chunks(s, conductance_scale,
                                                     frequency_scale):
                solutions[start:start + factorization.batch] = (
                    factorization.solve(rhs))
                del factorization
            return solutions

        policy = policy or SolvePolicy()
        report = SweepReport(label=self.singular_label, kind="sweep point",
                             total=len(s))
        self.last_report = report
        if len(s) == 0:
            return solutions
        if self.is_dense:
            chunk = sweep_chunk_size(self.formulation.dimension)
            for start in range(0, len(s), chunk):
                block = s[start:start + chunk]
                stack = self.formulation.assemble_batch(
                    block, conductance_scale, frequency_scale)
                self.factorization_count += len(block)
                before = len(report.failures)

                def indexer(member, start=start, block=block):
                    point = start + member
                    return point, (f"sweep point {point} "
                                   f"(s={complex(block[member])!r})")

                solutions[start:start + len(block)] = solve_stack_resilient(
                    stack, rhs, policy, report, indexer)
                if on_failure == "raise" and len(report.failures) > before:
                    failure = report.failures[before]
                    raise SolveFailureError(
                        f"{self.singular_label} is singular at "
                        f"{failure.description}: {failure.reason}",
                        sweep_point=failure.index)
        else:
            keys, constant_values, dynamic_values = (
                self.formulation.merged_sparse_structure())
            n = self.formulation.dimension
            order = self.column_order()
            base = (constant_values if conductance_scale == 1.0
                    else conductance_scale * constant_values)
            for k, point in enumerate(s):
                factor = complex(point)
                if frequency_scale != 1.0:
                    factor = factor * frequency_scale
                values = base + factor * dynamic_values
                matrix = SparseMatrix.from_entries(n, n,
                                                   zip(keys, values.tolist()))
                solutions[k] = self._resilient_sparse_point(
                    matrix, rhs, policy, report, k,
                    f"sweep point {k} (s={factor!r})", order, on_failure)
        return solutions

    def _resilient_sparse_point(self, matrix, rhs, policy, report, index,
                                description, order, on_failure):
        """One resilient sparse solve, with engine counter / report upkeep."""
        had_pattern = self._sparse_pattern is not None
        try:
            x, diagnostics, self._sparse_pattern = resilient_sparse_solve(
                matrix, rhs, policy, self._sparse_pattern, order)
        except SolveFailureError as error:
            self.factorization_count += 1
            escalations = (error.diagnostics.escalations
                           if error.diagnostics is not None else ())
            report.record_failure(index, description, str(error), escalations)
            if on_failure == "raise":
                raise SolveFailureError(
                    f"{self.singular_label} is singular at {description}: "
                    f"{error}", sweep_point=index,
                    diagnostics=error.diagnostics) from error
            return np.nan
        if diagnostics.stage == "fast":
            if had_pattern:
                self.refactorization_count += 1
            else:
                self.factorization_count += 1
            report.record_fast()
            if diagnostics.degraded:
                report.record_degraded(index, diagnostics.condition)
        else:
            self.factorization_count += 1
            report.record_recovery(index, diagnostics)
        return x

    # ------------------------------------------------------------------ #
    # the parameter axis
    # ------------------------------------------------------------------ #

    def iter_param_sweep(self, s, names, admittance_scales, rhs,
                         conductance_scale=1.0, frequency_scale=1.0):
        """Yield ``(sample, (K, n) solutions)`` one ensemble member at a time.

        The streaming core of :meth:`solve_param_sweep`: at no point does
        more than one assembly chunk (bounded by
        :func:`~repro.linalg.dense.sweep_chunk_size`) plus one sample's
        ``(K, n)`` solution block live in memory, so a 10⁴-node ensemble
        sweep never materializes the full ``M × K`` stack.  Dense systems
        group as many whole samples per chunk as the budget allows and split
        the *frequency* axis once a single sample's sweep exceeds it; sparse
        systems stream per sample, in refactorization chunks along the
        engine's pivot pattern.
        """
        s = np.asarray(s, dtype=complex)
        scales = np.asarray(admittance_scales)
        rhs = np.asarray(rhs, dtype=complex)
        # Materialize once: the name tuple is consumed per chunk below (and
        # twice on the sparse path), so a generator must not drain early.
        names = tuple(names)
        num_samples = scales.shape[0]
        n = self.formulation.dimension
        if num_samples == 0 or len(s) == 0:
            return
        if self.is_dense:
            budget = sweep_chunk_size(n)
            if len(s) > budget:
                # One sample's sweep exceeds the chunk budget: keep samples
                # whole and stream the frequency axis instead.
                for sample in range(num_samples):
                    block = scales[sample:sample + 1]
                    solutions = np.empty((len(s), n), dtype=complex)
                    for start in range(0, len(s), budget):
                        points = s[start:start + budget]
                        stack = self.formulation.assemble_param_batch(
                            points, names, block, conductance_scale,
                            frequency_scale)
                        flat = stack.reshape(len(points), n, n)
                        factorization = batched_dense_lu(flat, overwrite=True)
                        self.factorization_count += flat.shape[0]
                        if factorization.singular.any():
                            index = int(np.argmax(factorization.singular))
                            raise SingularMatrixError(
                                f"{self.singular_label} is singular for "
                                f"sample {sample} at sweep point "
                                f"{start + index}")
                        solutions[start:start + len(points)] = (
                            factorization.solve(rhs))
                    yield sample, solutions
                return
            chunk = max(1, budget // max(1, len(s)))
            for start in range(0, num_samples, chunk):
                block = scales[start:start + chunk]
                stack = self.formulation.assemble_param_batch(
                    s, names, block, conductance_scale, frequency_scale)
                flat = stack.reshape(len(block) * len(s), n, n)
                factorization = batched_dense_lu(flat, overwrite=True)
                self.factorization_count += flat.shape[0]
                if factorization.singular.any():
                    index = int(np.argmax(factorization.singular))
                    raise SingularMatrixError(
                        f"{self.singular_label} is singular for sample "
                        f"{start + index // len(s)} at sweep point "
                        f"{index % len(s)}")
                solved = factorization.solve(rhs).reshape(len(block), len(s),
                                                          n)
                for offset in range(len(block)):
                    yield start + offset, solved[offset]
            return

        # Sparse path: affine update of the merged-structure values, pivot
        # pattern shared across the whole ensemble.
        keys, __, __ = self.formulation.merged_sparse_structure()
        factors = _frequency_factors(s, frequency_scale)
        for sample, constant_sample, dynamic_sample in (
                self._sparse_param_samples(names, scales, conductance_scale)):
            solutions = np.empty((len(s), n), dtype=complex)
            for start, factorization in self._sparse_chunks(
                    keys, constant_sample, dynamic_sample, factors):
                solutions[start:start + factorization.batch] = (
                    factorization.solve(rhs))
                del factorization
            yield sample, solutions

    def _sparse_param_samples(self, names, scales, conductance_scale):
        """Yield ``(sample, constant_values, dynamic_values)`` per member.

        The vectorized affine update shared by the legacy and resilient
        sparse parameter sweeps: sample ``m`` perturbs the merged-structure
        value vectors by ``(scale − 1)·(element stamp)`` per scaled element,
        reproducing :meth:`iter_param_sweep`'s historic arithmetic exactly.
        """
        keys, constant_values, dynamic_values = (
            self.formulation.merged_sparse_structure())
        position = {key: index for index, key in enumerate(keys)}
        incidence_u, incidence_v, conductances, capacitances = (
            self.formulation.stamp_columns(names))
        entry_positions: list = []
        entry_weights: list = []
        entry_elements: list = []
        for column in range(incidence_u.shape[1]):
            rows = np.flatnonzero(incidence_u[:, column])
            cols = np.flatnonzero(incidence_v[:, column])
            for row in rows:
                for col in cols:
                    key = (int(row), int(col))
                    if key not in position:
                        raise FormulationError(
                            f"stamp entry {key} of element "
                            f"{names[column]!r} is outside the "
                            "assembled structure")
                    entry_positions.append(position[key])
                    entry_weights.append(incidence_u[row, column]
                                         * incidence_v[col, column])
                    entry_elements.append(column)
        entry_positions = np.array(entry_positions, dtype=np.intp)
        entry_weights = np.array(entry_weights)
        entry_elements = np.array(entry_elements, dtype=np.intp)
        delta = scales - 1.0
        for sample in range(scales.shape[0]):
            constant_sample = constant_values.astype(complex).copy()
            dynamic_sample = dynamic_values.astype(complex).copy()
            np.add.at(constant_sample, entry_positions,
                      delta[sample, entry_elements]
                      * conductances[entry_elements] * entry_weights)
            np.add.at(dynamic_sample, entry_positions,
                      delta[sample, entry_elements]
                      * capacitances[entry_elements] * entry_weights)
            if conductance_scale != 1.0:
                constant_sample = conductance_scale * constant_sample
            yield sample, constant_sample, dynamic_sample

    def solve_param_sweep(self, s, names, admittance_scales, rhs,
                          conductance_scale=1.0, frequency_scale=1.0, *,
                          on_failure="raise", policy=None) -> np.ndarray:
        """Solve ``A_m(s_k) x = rhs`` over samples × frequencies.

        The parameter-space companion of :meth:`solve_sweep`: sample ``m``
        scales the admittances of ``names`` by ``admittance_scales[m]``
        (see :meth:`~repro.engine.formulation.FormulationBase.assemble_param_batch`).
        Dense systems assemble the ``(M·K, n, n)`` stack chunk by chunk
        (chunking whichever of the sample / frequency axes keeps the stack
        inside the memory budget) and factor through
        :func:`~repro.linalg.dense.batched_dense_lu`; sparse systems update
        the merged-structure values per sample and reuse the engine's ordered
        pivot pattern across every sample and frequency.  Memory-bounded
        consumers should iterate :meth:`iter_param_sweep` instead of
        materializing the ``(M, K, n)`` result this convenience returns.

        Returns ``(M, K, n)`` complex solutions.  Accurate to rounding
        relative to rebuilding each perturbed system (the bit-exact ensemble
        engine is :func:`repro.montecarlo.ensemble_sweep`).

        ``on_failure`` / ``policy`` follow :meth:`solve_sweep`, at *sample*
        granularity: a sample with an unrecoverable point is quarantined
        whole (its ``(K, n)`` block masked to NaN) under ``"quarantine"``,
        with the outcome recorded in :attr:`last_report`.
        """
        if on_failure not in _FAILURE_MODES:
            raise FormulationError(f"unknown failure mode {on_failure!r}")
        s = np.asarray(s, dtype=complex)
        scales = np.asarray(admittance_scales)
        n = self.formulation.dimension
        solutions = np.zeros((scales.shape[0], len(s), n), dtype=complex)
        if on_failure == "raise" and policy is None:
            self.last_report = None
            for sample, block in self.iter_param_sweep(
                    s, names, scales, rhs, conductance_scale,
                    frequency_scale):
                solutions[sample] = block
            return solutions

        policy = policy or SolvePolicy()
        num_samples = scales.shape[0]
        report = SweepReport(label=self.singular_label, kind="sample",
                             total=num_samples)
        self.last_report = report
        if num_samples == 0 or len(s) == 0:
            return solutions
        if self.is_dense:
            names = tuple(names)
            budget = sweep_chunk_size(n)
            for sample in range(num_samples):
                block_scales = scales[sample:sample + 1]
                before = len(report.failures)
                for start in range(0, len(s), budget):
                    points = s[start:start + budget]
                    stack = self.formulation.assemble_param_batch(
                        points, names, block_scales, conductance_scale,
                        frequency_scale).reshape(len(points), n, n)
                    self.factorization_count += len(points)

                    def indexer(member, sample=sample, start=start):
                        return sample, (f"sample {sample} at sweep point "
                                        f"{start + member}")

                    solutions[sample, start:start + len(points)] = (
                        solve_stack_resilient(stack, rhs, policy, report,
                                              indexer))
                if len(report.failures) > before:
                    solutions[sample] = np.nan
                    if on_failure == "raise":
                        failure = report.failures[before]
                        raise SolveFailureError(
                            f"{self.singular_label} is singular for "
                            f"{failure.description}: {failure.reason}",
                            sample=sample)
        else:
            keys, __, __ = self.formulation.merged_sparse_structure()
            order = self.column_order()
            for sample, constant_sample, dynamic_sample in (
                    self._sparse_param_samples(names, scales,
                                               conductance_scale)):
                before = len(report.failures)
                for k, point in enumerate(s):
                    factor = complex(point)
                    if frequency_scale != 1.0:
                        factor = factor * frequency_scale
                    values = constant_sample + factor * dynamic_sample
                    matrix = SparseMatrix.from_entries(
                        n, n, zip(keys, values.tolist()))
                    try:
                        solutions[sample, k] = self._resilient_sparse_point(
                            matrix, rhs, policy, report, sample,
                            f"sample {sample} at sweep point {k}", order,
                            on_failure)
                    except SolveFailureError as error:
                        raise SolveFailureError(
                            str(error), sample=sample, sweep_point=k,
                            diagnostics=error.diagnostics) from error
                    if len(report.failures) > before:
                        break
                if len(report.failures) > before:
                    solutions[sample] = np.nan
        return solutions

    def factor_sweep(self, s, conductance_scale=1.0,
                     frequency_scale=1.0) -> "SweepFactors":
        """Factor at every point and *keep* the factors (see :class:`SweepFactors`)."""
        s = np.asarray(list(s), dtype=complex)
        factors = list(self._chunks(s, conductance_scale, frequency_scale))
        return SweepFactors(self.formulation, s, self.is_dense, factors)

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

    def __init__(self, formulation, s_values, is_dense, factors):
        self.formulation = formulation
        self.s_values = s_values
        self.is_dense = is_dense
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

    def members(self):
        """Yield one scalar factorization per sweep point, in order.

        Dense chunks are exposed through
        :meth:`~repro.linalg.dense.BatchedDenseLU.member` views, whose
        determinant / substitution arithmetic is bit-for-bit the per-point
        :func:`~repro.linalg.dense.dense_lu` path; sparse ones through
        :meth:`~repro.linalg.lu.BatchedSparseLU.member` views, bit-for-bit
        the chunk's own arithmetic.
        """
        for __, factorization in self.factors:
            for index in range(factorization.batch):
                yield factorization.member(index)

    def __repr__(self):
        kind = "dense" if self.is_dense else "sparse"
        return (f"SweepFactors(n={self.dimension}, points={self.num_points}, "
                f"path={kind!r})")


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

    def member(self, index):
        return self.factorization

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
