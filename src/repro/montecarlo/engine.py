"""The vectorized parameter-space sweep: M perturbed circuits × F frequencies.

:func:`ensemble_sweep` evaluates a whole tolerance ensemble in stacked
batched solves instead of M independent circuit rebuilds:

* the per-sample ``(G_m, C_m)`` parts come from the circuit's
  :class:`~repro.montecarlo.program.ValueProgram` — a vectorized re-stamping
  that reproduces the MNA builder's arithmetic bit-for-bit,
* the ``(M·F, n, n)`` stack is assembled chunk by chunk with exactly the
  broadcast expression of
  :meth:`~repro.engine.formulation.FormulationBase.assemble_batch`,
* factorization goes through :func:`~repro.linalg.dense.batched_solve`
  (LAPACK), which is batch-size invariant, so chunking cannot change
  results,
* above the dense cutoff each sample's value vectors go through a
  :class:`~repro.engine.sweep.SweepEngine` over the nominal MNA system: a
  fresh pivot search per sample, then the engine's compiled refactorization
  across the frequency axis, bit-identical to the rebuild-per-sample path.
  A resilient run checks each compiled chunk and escalates only the
  members that fail, so it returns the stored run's bits when none does.

:func:`rebuild_sweep` is the M-independent-rebuilds reference the engine is
benchmarked and parity-checked against: one circuit copy + MNA build + AC
sweep per sample, through the same LAPACK solver one sample at a time
(``solver="lapack"``, the dense path's bitwise twin) or the standard
:class:`~repro.analysis.ac.ACAnalysis` machinery (``solver="lu"``, the sparse
path's bitwise twin and the dense path's 1e-9 reference).

:class:`_EnsembleFold` is the one fold of all three ensemble drivers: the
streaming mode of :func:`ensemble_sweep` and
:func:`~repro.montecarlo.parallel.run_shards` (under
``parallel_ensemble_sweep`` and ``checkpointed_ensemble_sweep``) both
absorb every finished shard through it, in plan order.
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import math
import os
from typing import NoReturn, Optional

import numpy as np

from ..engine.resilience import SweepReport, solve_stack_resilient
from ..engine.sweep import _METHODS, SweepEngine
from ..errors import FormulationError, SingularMatrixError
from ..linalg.dense import batched_solve
from ..mna.builder import build_mna_system
from ..nodal.reduce import _normalize_output, _output_terms, _project_output
from .program import ValueProgram
from .space import ParameterSpace
from .statistics import (DEFAULT_HISTOGRAM_BINS, DEFAULT_HISTOGRAM_RANGE,
                         EnsembleStatistics, StreamingYield)

__all__ = ["EnsembleResult", "ensemble_sweep", "rebuild_sweep"]

_SOLVERS = ("lapack", "lu")

#: Complex entries per assembled ensemble chunk (~12 MB).  Ensemble chunks
#: are deliberately much smaller than the frequency-sweep chunks of
#: :func:`~repro.linalg.dense.sweep_chunk_size`: the assemble → factor →
#: solve pipeline revisits the chunk several times, and keeping it
#: cache-resident is worth ~1.5x wall clock at µA741 size.  The solver is
#: batch-size invariant, so the chunk size cannot change any result bit.
_ENSEMBLE_CHUNK_ELEMENTS = 750_000


def _ensemble_chunk_matrices(dimension) -> int:
    """Matrices per assemble/factor/solve chunk of the ensemble engine."""
    dimension = max(1, int(dimension))
    return max(1, _ENSEMBLE_CHUNK_ELEMENTS // (dimension * dimension))


@dataclasses.dataclass
class EnsembleResult:
    """Responses of a whole tolerance ensemble over a frequency grid.

    Attributes
    ----------
    frequencies:
        ``(F,)`` sweep grid in hertz.
    values:
        ``(M, E)`` element values, one row per sample, columns in
        ``space.names`` order.
    responses:
        ``(M, F)`` complex output voltages (the circuit's own excitation) —
        or ``None`` for a streaming (``store_responses=False``) run, whose
        estimates live in ``statistics`` / ``yields`` instead.
    output:
        The normalized output description (node name or ``(pos, neg)``).
    solver:
        ``"lapack"``, ``"sparse"`` or ``"compiled"`` — the backend that
        produced the responses.
    report:
        The :class:`~repro.engine.resilience.SweepReport` of an
        ``on_failure="quarantine"`` run (``None`` otherwise).  Quarantined
        samples' response rows are NaN; use :meth:`surviving_mask` to
        restrict statistics to the samples that solved.
    parallel:
        The :class:`~repro.montecarlo.parallel.ParallelRunInfo` of a
        supervised multiprocess run (``None`` otherwise).
    statistics:
        The streaming
        :class:`~repro.montecarlo.statistics.EnsembleStatistics` accumulator
        of a ``store_responses=False`` run (``None`` otherwise).
    yields:
        The :class:`~repro.montecarlo.statistics.StreamingYield` accumulator
        when a streaming run was given ``yield_specs`` (``None`` otherwise).
    weights:
        The ``(M,)`` likelihood-ratio weights of an importance-sampled run
        (``None`` for plain Monte Carlo).
    """

    frequencies: np.ndarray
    values: np.ndarray
    responses: Optional[np.ndarray]
    space: ParameterSpace
    output: object
    solver: str
    report: object = None
    parallel: object = None
    statistics: object = None
    yields: object = None
    weights: Optional[np.ndarray] = None

    @property
    def num_samples(self):
        """Number of ensemble members."""
        return self.values.shape[0]

    def _require_responses(self, what):
        if self.responses is None:
            raise FormulationError(
                f"cannot compute {what}: this ensemble ran with "
                "store_responses=False and kept only streaming accumulators "
                "(see result.statistics / result.yields)")
        return self.responses

    def surviving_mask(self) -> np.ndarray:
        """``(M,)`` boolean mask of samples that were not quarantined."""
        responses = self._require_responses("the surviving mask")
        mask = np.ones(responses.shape[0], dtype=bool)
        if self.report is not None:
            mask[self.report.quarantined] = False
        # Belt and braces: a NaN row is never a survivor, report or not.
        mask &= ~np.isnan(responses).any(axis=1)
        return mask

    def magnitudes_db(self) -> np.ndarray:
        """``(M, F)`` response magnitudes in dB (zeros floored at tiny)."""
        magnitude = np.abs(self._require_responses("magnitudes"))
        magnitude[magnitude == 0.0] = np.finfo(float).tiny
        return 20.0 * np.log10(magnitude)

    def __repr__(self):
        mode = ("streaming" if self.responses is None
                else f"points={len(self.frequencies)}")
        return (f"EnsembleResult(samples={self.values.shape[0]}, "
                f"{mode}, solver={self.solver!r})")


def _member_error(text, member, **context):
    """A raise-mode error naming the ensemble sample ``member``.

    ``text`` names the sample through a ``{member}`` field.  Both ride on
    the error, so a caller that solves the run shard by shard can count the
    member from the run's first sample (:func:`_rebase_member_error`).
    """
    error = SingularMatrixError(text.format(member=member), **context)
    error.member, error.member_text = member, text
    return error


def _rebase_member_error(error, start) -> NoReturn:
    """Re-raise a shard's raise-mode ``error`` with its member counted from
    ``start``.

    A shard solves ``values[start:stop]`` through :func:`ensemble_sweep`, so
    the member its raise site names is local to the shard.  Errors that name
    no member propagate unchanged.
    """
    member = getattr(error, "member", None)
    if member is None or not start:
        raise error
    raise _member_error(error.member_text, member + start) from error


def _solve_chunk(flat, rhs, describe):
    """Factor + solve one assembled ``(B, n, n)`` chunk.

    ``describe(index)`` gives the ``{member}`` text and the member of the
    chunk's ``index``-th matrix.
    """
    try:
        return batched_solve(flat, rhs)
    except SingularMatrixError as error:
        # batched_solve already located the offender; name the ensemble
        # sample and sweep point.
        text, member = describe(error.batch_index)
        raise _member_error(f"{text} is singular", member,
                            batch_index=error.batch_index) from error


def _default_workers() -> int:
    """Worker threads for the dense ensemble (overridable per call)."""
    return max(1, min(4, os.cpu_count() or 1))


def _dense_ensemble(system, program, s, values, terms, workers=None,
                    report=None) -> np.ndarray:
    """Chunked dense-path ensemble: assemble → factor → solve → project.

    Chunks are fully independent (the solver is batch-size invariant and
    every chunk writes a disjoint slice of the response matrix), so they run
    on a small thread pool: the LAPACK gufunc releases the GIL, overlapping
    one chunk's factorization with another's assembly.  Threading cannot
    change a single result bit — it only reorders which chunk computes when.

    With a ``report`` (a resilient run), failing members escalate through
    :func:`~repro.engine.resilience.solve_stack_resilient` and the chunks
    run serially, so the report's records are deterministic.
    """
    num_samples = values.shape[0]
    num_points = len(s)
    dimension = program.dimension
    responses = np.zeros((num_samples, num_points), dtype=complex)
    constant_stack, dynamic_stack = program.dense_parts(values)
    rhs = system.rhs
    chunk = _ensemble_chunk_matrices(dimension)
    resilient = report is not None

    def solve(flat, describe, indexer):
        if resilient:
            return solve_stack_resilient(flat, rhs, report, indexer)
        return _solve_chunk(flat=flat, rhs=rhs, describe=describe)

    def run_split(sample, start):
        """One frequency-axis slice of one sample (num_points > chunk)."""
        block = s[start:start + chunk]
        constant = constant_stack[sample][None, :, :]
        dynamic = dynamic_stack[sample][None, :, :]
        # Exactly assemble_batch's expression: constant + s·dynamic.
        stack = np.multiply(block[:, None, None], dynamic)
        np.add(constant, stack, out=stack)
        solutions = solve(
            stack,
            describe=lambda index: (
                f"ensemble member {{member}} at sweep point {start + index}",
                sample),
            indexer=lambda member: (
                sample,
                f"ensemble member {sample} at sweep point {start + member}"))
        responses[sample, start:start + len(block)] = _project_output(
            terms, solutions)

    def run_block(start, samples_per_chunk):
        """One group of whole samples (num_points <= chunk)."""
        block = range(start, min(start + samples_per_chunk, num_samples))
        stack = np.empty((len(block), num_points, dimension, dimension),
                         dtype=complex)
        for position, sample in enumerate(block):
            # Exactly assemble_batch's expression: constant + s·dynamic.
            np.multiply(s[:, None, None], dynamic_stack[sample][None, :, :],
                        out=stack[position])
            np.add(constant_stack[sample][None, :, :], stack[position],
                   out=stack[position])
        flat = stack.reshape(len(block) * num_points, dimension, dimension)
        solutions = solve(
            flat,
            describe=lambda index: (
                f"ensemble member {{member}} at sweep point "
                f"{index % num_points}", start + index // num_points),
            indexer=lambda member: (
                start + member // num_points,
                f"ensemble member {start + member // num_points} at "
                f"sweep point {member % num_points}"))
        for position, sample in enumerate(block):
            rows = solutions[position * num_points:(position + 1) * num_points]
            responses[sample] = _project_output(terms, rows)

    if num_points > chunk:
        # A single sample's sweep exceeds the chunk budget: keep samples
        # whole and split the frequency axis instead.
        jobs = [(run_split, (sample, start))
                for sample in range(num_samples)
                for start in range(0, num_points, chunk)]
    else:
        samples_per_chunk = max(1, chunk // max(1, num_points))
        jobs = [(run_block, (start, samples_per_chunk))
                for start in range(0, num_samples, samples_per_chunk)]

    workers = _default_workers() if workers is None else max(1, int(workers))
    if resilient:
        # Deterministic report ordering: escalations and failures are
        # recorded in ensemble order, not thread-completion order.
        workers = 1
    if workers == 1 or len(jobs) == 1:
        for job, arguments in jobs:
            job(*arguments)
    else:
        with concurrent.futures.ThreadPoolExecutor(workers) as pool:
            futures = [pool.submit(job, *arguments)
                       for job, arguments in jobs]
            # Collect in submission order so the first failing chunk (by
            # ensemble position, not completion time) raises deterministically.
            for future in futures:
                future.result()
    return responses


def _sparse_ensemble(engine, program, s, values, terms,
                     report=None) -> np.ndarray:
    """Sparse-path ensemble: per-sample values through one sweep engine.

    ``engine`` is a :class:`~repro.engine.sweep.SweepEngine` over the
    nominal system; it supplies the fill-reducing order.  The factorization
    policy mirrors the rebuild path exactly: every sample starts from a
    fresh ordered factorization (a rebuilt engine would too) and refactors
    along its own pivot order across the frequency axis, in the engine's
    compiled chunks.  Pivot choices are value-dependent through the
    threshold test, so sharing one pattern across samples would break
    bit-parity with :func:`rebuild_sweep`.  Both failure modes run the
    engine's one sparse solve loop.  A resilient run (one with a ``report``)
    escalates only the members its chunks fail and stops a sample at its
    first unrecoverable point; otherwise a singular member raises, naming
    the sample and the point.
    """
    constant_keys, constant_values, dynamic_keys, dynamic_values = (
        program.sparse_values(values))
    keys = sorted(set(constant_keys) | set(dynamic_keys))
    position = {key: index for index, key in enumerate(keys)}
    num_samples = values.shape[0]
    base = np.zeros((num_samples, len(keys)), dtype=complex)
    dynamic = np.zeros((num_samples, len(keys)), dtype=complex)
    base[:, [position[key] for key in constant_keys]] = constant_values
    dynamic[:, [position[key] for key in dynamic_keys]] = dynamic_values

    rhs = engine.formulation.rhs
    responses = np.zeros((num_samples, len(s)), dtype=complex)
    failures = [] if report is None else report.failures
    for sample in range(num_samples):
        engine._sparse_pattern = None
        solutions = np.zeros((len(s), engine.dimension), dtype=complex)
        known, point = len(failures), 0
        try:
            for start, x in engine._sparse_solutions(
                    keys, base[sample], dynamic[sample], s, rhs, report,
                    lambda k, sample=sample: (
                        sample,
                        f"ensemble member {sample} at sweep point {k}")):
                if len(failures) > known:
                    # ensemble_sweep masks the whole sample.
                    break
                solutions[start:start + len(x)] = x
                point = start + len(x)
        except SingularMatrixError as error:
            # Only a raise-mode pivot search raises, at the first point not
            # yet served.
            raise _member_error(
                f"ensemble member {{member}} at sweep point {point} "
                "is singular", sample) from error
        responses[sample] = _project_output(terms, solutions)
    return responses


def _ensemble_values(space, values, samples, seed, sampler="random"):
    """The run's ``(M, E)`` value matrix: drawn up front or validated."""
    if values is None:
        return space.sample_values(samples, seed, method=sampler)
    values = np.asarray(values, dtype=float)
    if values.ndim != 2 or values.shape[1] != len(space):
        raise FormulationError(
            f"values must be (M, {len(space)}), got {values.shape}")
    return values


def _reject_streaming_options(histogram_bins, histogram_range, weights,
                              yield_specs):
    """Stored-mode runs take none of the streaming estimator controls."""
    for name, argument in (("histogram_bins", histogram_bins),
                           ("histogram_range", histogram_range),
                           ("weights", weights),
                           ("yield_specs", yield_specs)):
        if argument is not None:
            raise FormulationError(
                f"{name} requires the streaming mode "
                "(store_responses=False); a stored-mode run computes these "
                "through repro.analysis.montecarlo instead")


class _EnsembleFold:
    """Absorbs finished shards into one ensemble run, in plan order.

    The one place any ensemble driver folds.  A shard that comes back with
    its response rows has them copied (when the run stores responses) and
    its surviving rows go through :meth:`EnsembleStatistics.update` and
    :meth:`StreamingYield.update` with their weights.  A shard a worker
    already folded comes back as accumulators, which go through ``merge``.
    Either way its report is re-based through
    :meth:`~repro.engine.resilience.SweepReport.merge`.  A shard
    accumulator starts from exact zeros, so ``merge`` replays the additions
    ``update`` would have made, and every driver lands on the same bits at
    the same ``shard_size``.

    Streaming runs use the default histogram; stored runs keep none unless
    asked.  ``yield_specs`` (a spec or any iterable of them) is read once
    here, and :meth:`streaming_options` ships that list to the shards.
    """

    def __init__(self, frequencies, samples, *, store_responses=True,
                 resilient=False, histogram_bins=None, histogram_range=None,
                 weights=None, yield_specs=None):
        if weights is not None:
            weights = np.asarray(weights, dtype=float)
            if weights.shape != (samples,):
                raise FormulationError(
                    f"weights must be ({samples},) to match the sample "
                    f"rows, got {weights.shape}")
        if yield_specs is not None:
            from ..analysis.montecarlo import YieldSpec

            yield_specs = ([yield_specs] if isinstance(yield_specs, YieldSpec)
                           else list(yield_specs))
        if histogram_bins is None:
            histogram_bins = 0 if store_responses else DEFAULT_HISTOGRAM_BINS
        low, high = histogram_range or DEFAULT_HISTOGRAM_RANGE
        self.frequencies = frequencies
        self.weights = weights
        self.specs = yield_specs
        self.statistics = EnsembleStatistics(
            frequencies=frequencies, histogram_bins=int(histogram_bins),
            histogram_low_db=float(low), histogram_high_db=float(high))
        self.yields = (StreamingYield([spec.name for spec in yield_specs])
                       if yield_specs else None)
        self.responses = (np.zeros((samples, len(frequencies)), dtype=complex)
                          if store_responses else None)
        self.report = (SweepReport(label="ensemble member", kind="sample")
                       if resilient else None)
        self.completed = 0
        #: The backend of the last absorbed shard.
        self.solver = "lapack"

    def streaming_options(self) -> dict:
        """Keywords that make a shard's :func:`ensemble_sweep` fold itself.

        Empty when the run stores responses: the shard then returns its
        rows and :meth:`absorb` folds them.
        """
        if self.responses is not None:
            return {}
        statistics = self.statistics
        return {"store_responses": False,
                "histogram_bins": statistics.histogram_bins,
                "histogram_range": (statistics.histogram_low_db,
                                    statistics.histogram_high_db),
                "yield_specs": self.specs}

    def absorb(self, shard, start, stop) -> None:
        """Fold the finished shard ``start:stop`` (the next in plan order)."""
        if shard.statistics is not None:
            self.statistics.merge(shard.statistics)
            if self.yields is not None:
                self.yields.merge(shard.yields)
        else:
            if self.responses is not None:
                self.responses[start:stop] = shard.responses
            surviving = shard.surviving_mask()
            weights = None if self.weights is None else self.weights[start:stop]
            self.statistics.update(
                shard.magnitudes_db()[surviving],
                None if weights is None else weights[surviving])
            if self.yields is not None:
                self.yields.update(self.frequencies, shard.responses,
                                   self.specs, surviving=surviving,
                                   weights=weights)
        if self.report is not None:
            if shard.report is not None:
                self.report.merge(shard.report, offset=start)
            self.report.total = stop
        self.completed = stop
        self.solver = shard.solver

    def result(self, values, space, output, parallel=None) -> EnsembleResult:
        """The finished run; a streaming run carries its accumulators."""
        streaming = self.responses is None
        return EnsembleResult(
            frequencies=self.frequencies, values=values,
            responses=self.responses, space=space,
            output=_normalize_output(output), solver=self.solver,
            report=self.report, parallel=parallel,
            statistics=self.statistics if streaming else None,
            yields=self.yields, weights=self.weights)


def ensemble_sweep(circuit, output, frequencies, space=None, *, values=None,
                   samples=128, seed=0, method="auto", workers=None,
                   on_failure="raise",
                   store_responses=True, shard_size=1024,
                   histogram_bins=None, histogram_range=None,
                   weights=None, yield_specs=None) -> EnsembleResult:
    """Evaluate a tolerance ensemble of ``circuit`` over a frequency grid.

    Parameters
    ----------
    circuit:
        The circuit at its design point (any MNA-supported content).
    output:
        Output node, ``(positive, negative)`` pair or
        :class:`~repro.nodal.reduce.TransferSpec`.
    frequencies:
        Sweep grid in hertz.
    space:
        The :class:`~repro.montecarlo.space.ParameterSpace`; defaults to the
        tolerances carried by the circuit's elements.
    values:
        Optional explicit ``(M, E)`` element-value matrix (e.g. corner
        values).  Default: ``space.sample_values(samples, seed)``.
    samples, seed:
        Monte Carlo draw size and RNG seed when ``values`` is not given.
    method:
        ``"auto"`` (dense at or below the configured cutoff), ``"dense"``
        or ``"sparse"``.
    workers:
        Worker threads for the dense path (default: up to 4, bounded by the
        CPU count; 1 disables threading).  Results are identical for any
        worker count.  Resilient runs execute serially so the quarantine
        report is deterministic.
    on_failure:
        ``"raise"`` (default): the first singular member aborts the sweep
        with a :class:`~repro.errors.SingularMatrixError` naming the sample
        and the sweep point.  ``"quarantine"``: failing members escalate
        through the fixed chain of :mod:`repro.engine.resilience`, and
        samples that remain unrecoverable are masked to NaN and named in
        ``result.report`` instead of aborting the ensemble.
    store_responses:
        ``False`` switches to **streaming estimation**: the ensemble is
        evaluated shard by shard (``shard_size`` samples at a time) and each
        shard's response rows are folded into mergeable accumulators — a
        :class:`~repro.montecarlo.statistics.EnsembleStatistics` (min / max
        / mean / std plus a fixed-bin log-magnitude histogram for
        percentile envelopes) and, with ``yield_specs``, a
        :class:`~repro.montecarlo.statistics.StreamingYield` — then
        discarded.  Peak memory is O(M·E + shard·F + F·bins) instead of
        O(M×F); the result carries ``responses=None`` with the estimates in
        ``result.statistics`` / ``result.yields``.  Statistics are
        bit-identical to a stored-mode run's shard-ordered folds for the
        same ``shard_size``.
    shard_size:
        Samples per streaming fold (ignored when ``store_responses=True``).
        Match a checkpointed / parallel run's ``shard_size`` for
        bit-identical statistics streams.
    histogram_bins, histogram_range:
        Streaming percentile histogram layout: bin count (default
        :data:`~repro.montecarlo.statistics.DEFAULT_HISTOGRAM_BINS`; 0
        disables) and ``(low_db, high_db)`` range.  Streaming mode only.
    weights:
        Optional ``(M,)`` per-sample likelihood-ratio weights (importance
        sampling, from
        :meth:`~repro.montecarlo.space.ParameterSpace.importance_sample`);
        threaded through every streaming accumulator.  Streaming mode only.
    yield_specs:
        Optional :class:`~repro.analysis.montecarlo.YieldSpec` (or sequence)
        evaluated per sample into ``result.yields``.  Streaming mode only.

    Returns
    -------
    EnsembleResult

    Raises
    ------
    FormulationError
        For an unknown ``method`` or ``on_failure``, or a ``values`` matrix
        of the wrong shape.
    SingularMatrixError
        When some ensemble member is singular at some sweep point and
        ``on_failure="raise"``.
    """
    if on_failure not in ("raise", "quarantine"):
        raise FormulationError(f"unknown failure mode {on_failure!r}")
    if space is None:
        space = ParameterSpace(circuit)
    frequencies = np.asarray(frequencies, dtype=float)
    s = 2j * math.pi * frequencies
    values = _ensemble_values(space, values, samples, seed)
    resilient = on_failure == "quarantine"
    if not store_responses:
        # Shard, fold, discard: each shard runs through the stored mode
        # (every backend / resilience path is the production one) and its
        # (shard, F) rows are dropped before the next shard is assembled.
        from .parallel import shard_plan

        fold = _EnsembleFold(
            frequencies, values.shape[0], store_responses=False,
            resilient=resilient,
            histogram_bins=histogram_bins, histogram_range=histogram_range,
            weights=weights, yield_specs=yield_specs)
        for __, start, stop in shard_plan(values.shape[0], shard_size):
            try:
                shard = ensemble_sweep(
                    circuit, output, frequencies, space,
                    values=values[start:stop], method=method,
                    workers=workers, on_failure=on_failure)
            except SingularMatrixError as error:
                _rebase_member_error(error, start)
            fold.absorb(shard, start, stop)
        return fold.result(values, space, output)
    _reject_streaming_options(histogram_bins, histogram_range, weights,
                              yield_specs)
    system = build_mna_system(circuit)
    engine = SweepEngine(system, method=method)
    terms = _output_terms(system, output)
    program = ValueProgram.from_circuit(circuit, space)
    report = None
    if resilient:
        report = SweepReport(label="ensemble member", kind="sample",
                             total=values.shape[0])
    if engine.is_dense:
        solver = "lapack"
        responses = _dense_ensemble(system, program, s, values, terms,
                                    workers=workers, report=report)
    else:
        solver = "sparse"
        responses = _sparse_ensemble(engine, program, s, values, terms,
                                     report=report)
    if report is not None:
        # Quarantine whole samples: one bad point invalidates the member.
        responses[report.quarantined] = np.nan
    return EnsembleResult(frequencies=frequencies, values=values,
                          responses=responses, space=space,
                          output=_normalize_output(output), solver=solver,
                          report=report)


def rebuild_sweep(circuit, output, frequencies, space=None, *, values=None,
                  samples=128, seed=0, solver="lu",
                  method="auto") -> EnsembleResult:
    """The M-independent-rebuilds reference: one circuit per sample.

    ``solver="lu"`` routes every sample through the standard
    :class:`~repro.analysis.ac.ACAnalysis` production path (circuit copy,
    MNA build, batched AC sweep): the sparse path of :func:`ensemble_sweep`
    reproduces its outputs bit-for-bit, and the dense path stays within
    1e-9 of them.  ``solver="lapack"`` runs the same per-sample rebuild
    against :func:`~repro.linalg.dense.batched_solve`, the one-at-a-time
    twin of the dense path.
    """
    if solver not in _SOLVERS:
        raise FormulationError(f"unknown ensemble solver {solver!r}")
    if method not in _METHODS:
        raise FormulationError(f"unknown factorization method {method!r}")
    from ..analysis.ac import ACAnalysis

    if space is None:
        space = ParameterSpace(circuit)
    frequencies = np.asarray(frequencies, dtype=float)
    values = _ensemble_values(space, values, samples, seed)
    responses = np.zeros((values.shape[0], len(frequencies)), dtype=complex)
    for sample in range(values.shape[0]):
        perturbed = space.apply(values[sample])
        if solver == "lu":
            responses[sample] = ACAnalysis(
                perturbed, output, method=method).frequency_response(
                    frequencies)
        else:
            system = build_mna_system(perturbed)
            stack = system.assemble_batch(2j * math.pi * frequencies)
            solutions = batched_solve(stack, system.rhs)
            responses[sample] = _project_output(
                _output_terms(system, output), solutions)
    return EnsembleResult(frequencies=frequencies, values=values,
                          responses=responses, space=space,
                          output=_normalize_output(output), solver=solver)
