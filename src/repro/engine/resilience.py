"""Resilient solve layer: one escalation chain, diagnostics and quarantine.

The batched sweep and ensemble engines are throughput-first: one singular or
ill-conditioned matrix aborts a whole run.  This module wraps those kernels in
an **escalation chain** driven by structured diagnostics, so a production
sweep can either recover a failing point through progressively more careful
factorizations or quarantine it with a precise, machine-readable report:

* **fast** — the batched kernel the engine would have used anyway
  (:func:`~repro.linalg.dense.batched_solve` on the dense path; on the
  sparse path the sweep engine's compiled refactorization chunks, with the
  ordered pivot search it runs where a reused pivot degrades);
* **fresh** — a full Markowitz pivot search of the failing system alone
  (:func:`~repro.linalg.lu.sparse_lu`; a dense member is converted with
  :meth:`~repro.linalg.sparse.SparseMatrix.from_dense`), abandoning the
  fill-reducing order in favour of numerical safety;
* **regularized** — factor ``A + εI`` as a last resort, then validate the
  solution against the **original** ``A``: an exactly singular system still
  fails its residual test here and is quarantined rather than silently
  "solved".

Past the fast stage both paths run the one chain,
:func:`resilient_sparse_solve`.  A stage is *accepted* only when its
solution is finite and its scaled residual
``‖Ax − b‖∞ / (‖A‖₁·‖x‖∞ + ‖b‖∞)`` — past the fast stage, after up to
:data:`REFINEMENT_STEPS` rounds of iterative refinement — is at or below
:data:`RESIDUAL_LIMIT`.  A solve accepted past the fast stage also gets a
1-norm condition estimate (probe vectors through its factorization); above
:data:`CONDITION_LIMIT` it flags the solution *degraded*: recorded, never
silently dropped.  The chain and its four constants are fixed, so a run's
``on_failure`` mode is its whole resilience configuration.  Every
escalation is recorded in :class:`SolveDiagnostics`; per-run aggregation
lives in :class:`SweepReport`, the one record of a run's escalations and
quarantines.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Tuple

import numpy as np

from ..errors import SingularMatrixError, SolveFailureError
from ..linalg.dense import batched_solve, solve_members
from ..linalg.lu import sparse_lu
from ..linalg.sparse import SparseMatrix

__all__ = ["RESIDUAL_LIMIT", "CONDITION_LIMIT", "REFINEMENT_STEPS",
           "REGULARIZATION", "SolveDiagnostics", "EscalationRecord",
           "FailureRecord", "RecoveryRecord", "SweepReport",
           "scaled_residual", "consistency_residual",
           "sparse_condition_estimate", "resilient_sparse_solve",
           "solve_stack_resilient", "report_to_json", "report_from_json"]

#: Escalation stages, in order of increasing desperation.
STAGES = ("fast", "fresh", "regularized")

#: Largest acceptable scaled residual (see :func:`scaled_residual`); a stage
#: whose solution scores above it is rejected and escalation continues.
RESIDUAL_LIMIT = 1e-8

#: 1-norm condition estimate above which an escalated solution is flagged
#: *degraded* (reported, not rejected).
CONDITION_LIMIT = 1e13

#: Rounds of rescue-only iterative refinement attempted before a stage's
#: residual is judged (each round is kept only when it improves it).
REFINEMENT_STEPS = 1

#: Relative diagonal shift of the ``regularized`` stage:
#: ``ε = √(machine eps) · max|A|`` perturbs each diagonal by one part in
#: ~10⁻⁸ of the largest entry — enough to factor a numerically singular
#: matrix, small enough that a merely ill-conditioned one still passes its
#: residual test against the original ``A``.
REGULARIZATION = float(np.sqrt(np.finfo(float).eps))


# --------------------------------------------------------------------------- #
# diagnostics
# --------------------------------------------------------------------------- #


@dataclasses.dataclass(frozen=True)
class EscalationRecord:
    """One rejected stage: which stage gave up and why."""

    stage: str
    reason: str


@dataclasses.dataclass
class SolveDiagnostics:
    """Structured outcome of one resilient solve.

    Attributes
    ----------
    stage:
        The accepted escalation stage (one of :data:`STAGES`), or the last
        stage attempted when the chain was exhausted.
    residual:
        Scaled residual of the accepted solution (``inf`` on failure).
    condition:
        1-norm condition estimate of the accepted factorization (``None``
        when no stage was accepted).
    refinements:
        Iterative-refinement rounds actually applied (improving rounds only).
    degraded:
        True when ``condition`` exceeded :data:`CONDITION_LIMIT`.
    escalations:
        :class:`EscalationRecord` per rejected stage, in order.
    """

    stage: str
    residual: float
    condition: Optional[float] = None
    refinements: int = 0
    degraded: bool = False
    escalations: Tuple[EscalationRecord, ...] = ()


@dataclasses.dataclass(frozen=True)
class FailureRecord:
    """One quarantined sweep point / ensemble sample."""

    index: int
    description: str
    reason: str
    escalations: Tuple[EscalationRecord, ...] = ()


@dataclasses.dataclass(frozen=True)
class RecoveryRecord:
    """One point / sample recovered past the fast stage."""

    index: int
    stage: str
    residual: float
    condition: Optional[float]
    escalations: Tuple[EscalationRecord, ...] = ()


class SweepReport:
    """Aggregated resilience outcome of one sweep / ensemble run.

    Attributes
    ----------
    label:
        Noun of the underlying system (``"matrix"``, ``"MNA matrix"``, …).
    kind:
        Granularity of the indices: ``"sweep point"`` or ``"sample"``.
    total:
        Number of points / samples attempted.
    failures:
        :class:`FailureRecord` per quarantined index.
    recoveries:
        :class:`RecoveryRecord` per index recovered past the fast stage.
    stage_counts:
        Accepted solves per escalation stage.
    degraded:
        ``(index, condition)`` pairs whose accepted solution exceeded the
        condition limit.
    """

    def __init__(self, label="matrix", kind="sweep point", total=0):
        self.label = label
        self.kind = kind
        self.total = total
        self.failures: List[FailureRecord] = []
        self.recoveries: List[RecoveryRecord] = []
        self.stage_counts = {stage: 0 for stage in STAGES}
        self.degraded: List[Tuple[int, float]] = []

    # -- recording ----------------------------------------------------------

    def record_fast(self, count=1):
        """Count ``count`` solves accepted on the fast path."""
        self.stage_counts["fast"] += int(count)

    def record_recovery(self, index, diagnostics: SolveDiagnostics):
        """Record a solve accepted past the fast stage."""
        self.stage_counts[diagnostics.stage] += 1
        self.recoveries.append(RecoveryRecord(
            index=index, stage=diagnostics.stage,
            residual=diagnostics.residual, condition=diagnostics.condition,
            escalations=diagnostics.escalations))
        if diagnostics.degraded:
            self.degraded.append((index, diagnostics.condition))

    def record_failure(self, index, description, reason, escalations=()):
        """Record a quarantined index."""
        self.failures.append(FailureRecord(
            index=index, description=description, reason=reason,
            escalations=tuple(escalations)))

    def merge(self, other: "SweepReport", offset=0) -> None:
        """Fold one shard's report into this run report.

        The shard's indices are shard-local; ``offset`` re-bases them to
        run coordinates.  ``total`` is left to the caller: shards completing
        out of order make "samples attempted" a supervisor-level fact.
        """
        for record in other.failures:
            self.failures.append(dataclasses.replace(
                record, index=record.index + offset))
        for record in other.recoveries:
            self.recoveries.append(dataclasses.replace(
                record, index=record.index + offset))
        self.degraded.extend((index + offset, condition)
                             for index, condition in other.degraded)
        for stage, count in other.stage_counts.items():
            self.stage_counts[stage] += count

    # -- queries ------------------------------------------------------------

    @property
    def ok(self) -> bool:
        """True when nothing was quarantined."""
        return not self.failures

    @property
    def quarantined(self) -> List[int]:
        """Sorted quarantined indices."""
        return sorted({record.index for record in self.failures})

    @property
    def recovered(self) -> List[int]:
        """Sorted indices recovered past the fast stage."""
        return sorted({record.index for record in self.recoveries})

    def summary(self) -> str:
        """One-line human summary."""
        parts = [f"{self.total} {self.kind}s"]
        escalated = sum(count for stage, count in self.stage_counts.items()
                        if stage != "fast")
        if escalated:
            parts.append(f"{escalated} escalated")
        if self.degraded:
            parts.append(f"{len(self.degraded)} degraded")
        parts.append(f"{len(self.quarantined)} quarantined")
        return f"{self.label}: " + ", ".join(parts)

    def __repr__(self):
        return (f"SweepReport(label={self.label!r}, kind={self.kind!r}, "
                f"total={self.total}, quarantined={self.quarantined})")


# --------------------------------------------------------------------------- #
# checkpoint serialization
# --------------------------------------------------------------------------- #


def report_to_json(report) -> str:
    """Serialize a :class:`SweepReport`'s state (``""`` for ``None``)."""
    import json

    if report is None:
        return ""
    return json.dumps({
        "label": report.label,
        "kind": report.kind,
        "total": report.total,
        "failures": [
            {"index": record.index, "description": record.description,
             "reason": record.reason,
             "escalations": [[e.stage, e.reason]
                             for e in record.escalations]}
            for record in report.failures],
        "recoveries": [
            {"index": record.index, "stage": record.stage,
             "residual": record.residual, "condition": record.condition,
             "escalations": [[e.stage, e.reason]
                             for e in record.escalations]}
            for record in report.recoveries],
        "degraded": [[index, condition]
                     for index, condition in report.degraded],
        "stage_counts": report.stage_counts,
    })


def report_from_json(text):
    """Rebuild a :class:`SweepReport`: the inverse of :func:`report_to_json`."""
    import json

    if not text:
        return None
    state = json.loads(text)
    report = SweepReport(label=state["label"], kind=state["kind"],
                         total=state["total"])
    report.failures = [
        FailureRecord(index=entry["index"],
                      description=entry["description"],
                      reason=entry["reason"],
                      escalations=tuple(EscalationRecord(stage, reason)
                                        for stage, reason
                                        in entry["escalations"]))
        for entry in state["failures"]]
    report.recoveries = [
        RecoveryRecord(index=entry["index"], stage=entry["stage"],
                       residual=entry["residual"],
                       condition=entry["condition"],
                       escalations=tuple(EscalationRecord(stage, reason)
                                         for stage, reason
                                         in entry["escalations"]))
        for entry in state["recoveries"]]
    report.degraded = [(index, condition)
                       for index, condition in state["degraded"]]
    report.stage_counts = dict(state["stage_counts"])
    return report


# --------------------------------------------------------------------------- #
# numerical diagnostics
# --------------------------------------------------------------------------- #


def _matrix_one_norm(matrix) -> float:
    """1-norm (max column sum of magnitudes) of a SparseMatrix."""
    sums = np.zeros(matrix.n_cols)
    for __, col, value in matrix.entries():
        sums[col] += abs(value)
    return float(sums.max()) if matrix.n_cols else 0.0


def scaled_residual(matrix, x, b) -> float:
    """``‖Ax − b‖∞ / (‖A‖₁·‖x‖∞ + ‖b‖∞)`` — the stage-acceptance metric of
    a :class:`~repro.linalg.sparse.SparseMatrix` system.

    Non-finite solutions score ``inf``; the zero-dimensional system scores 0.
    """
    x = np.asarray(x, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if x.size == 0:
        return 0.0
    if not np.all(np.isfinite(x)):
        return float("inf")
    residual = matrix.matvec(x) - b
    numerator = float(np.abs(residual).max())
    denominator = (_matrix_one_norm(matrix) * float(np.abs(x).max())
                   + float(np.abs(b).max()))
    if denominator == 0.0:
        return 0.0 if numerator == 0.0 else float("inf")
    return numerator / denominator


def _absolute_matvec(matrix, magnitudes):
    """``|A|·|x|`` for a SparseMatrix."""
    result = np.zeros(matrix.n_rows)
    for row, col, value in matrix.entries():
        result[row] += abs(value) * magnitudes[col]
    return result


def consistency_residual(matrix, x, b) -> float:
    """Consistency measure of ``x`` against the *true* ``A`` — the
    regularized-stage gate.  Two prongs, the maximum of:

    * the **componentwise** (Oettli–Prager) residual
      ``max_i |Ax − b|_i / ((|A|·|x|)_i + |b_i|)``, with ``0/0 = 0``;
    * the **global** rhs-relative residual ``‖Ax − b‖∞ / ‖b‖∞``.

    The backward error of :func:`scaled_residual` scales with ``‖x‖∞``, so a
    solution of ``A + εI`` that blows up along a null-space direction of an
    exactly singular ``A`` can score an arbitrarily small backward error on
    an *inconsistent* system.  An earlier gate used only the global prong,
    but that is scaled by the *largest* right-hand-side entry: an
    inconsistent singular system driven by a small source (say 1e-6 A into a
    floating node, against a 1 V excitation elsewhere) scored 1e-6 and passed
    as "consistent".  The componentwise prong is scale-invariant row by row —
    each row's residual is judged against that row's own magnitude
    ``(|A|·|x|)_i + |b_i|`` (which always bounds ``|Ax − b|_i``, so the
    measure lives in ``[0, 1]``): a zero row against a nonzero entry scores
    exactly 1 no matter how small the drive, while a consistent zero row
    (zero entry) scores 0 and is legitimately rescuable.

    The global prong is still needed for the opposite failure shape: when
    the blown-up ``x`` feeds *nonzero* rows, ``(|A|·|x|)_i`` explodes with it
    and cancellation hides an O(‖b‖) inconsistency from the componentwise
    ratio (e.g. ``[[1, 1], [1, 1]] · x = [1, 0]``); there the residual
    stays comparable to ``b`` itself and the global prong rejects it.
    """
    x = np.asarray(x, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if x.size == 0:
        return 0.0
    if not np.all(np.isfinite(x)):
        return float("inf")
    numerator = np.abs(matrix.matvec(x) - b)
    denominator = _absolute_matvec(matrix, np.abs(x)) + np.abs(b)
    # A zero denominator row forces a zero numerator (|(Ax)_i| ≤ (|A|·|x|)_i),
    # so 0/0 → 0 is the only degenerate case.
    safe = np.where(denominator == 0.0, 1.0, denominator)
    ratios = np.where(denominator == 0.0, 0.0, numerator / safe)
    componentwise = float(ratios.max())
    rhs_norm = float(np.abs(b).max())
    if rhs_norm == 0.0:
        return componentwise
    return max(componentwise, float(numerator.max()) / rhs_norm)


def sparse_condition_estimate(factorization, matrix) -> float:
    """Probe-based 1-norm condition lower bound for a sparse factorization.

    The sparse :class:`~repro.linalg.lu.LUFactorization` exposes no
    conjugate-transpose solve, so ``‖A⁻¹‖₁`` is bounded from below by pushing
    a few structured probes (uniform, alternating-sign) through ``A⁻¹`` and
    taking the largest amplification ``‖A⁻¹p‖₁ / ‖p‖₁``.
    """
    n = factorization.n
    if n == 0:
        return 0.0
    anorm = _matrix_one_norm(matrix)
    if anorm == 0.0:
        return float("inf")
    probes = [np.full(n, 1.0 / n, dtype=complex),
              np.array([(-1.0) ** i for i in range(n)], dtype=complex) / n]
    best = 0.0
    try:
        for probe in probes:
            solution = factorization.solve(probe)
            if not np.all(np.isfinite(solution)):
                return float("inf")
            amplification = (float(np.abs(solution).sum())
                             / float(np.abs(probe).sum()))
            best = max(best, amplification)
    except SingularMatrixError:
        return float("inf")
    return anorm * best


def _refine(factorization, matrix, x, b):
    """Rescue-only iterative refinement: ``x += F⁻¹(b − Ax)`` while failing.

    Up to :data:`REFINEMENT_STEPS` rounds run, and only while the scaled
    residual is *above* :data:`RESIDUAL_LIMIT` — an already-acceptable
    solution is returned untouched, so it keeps its kernel's exact bits.
    ``factorization`` may be of a *regularized* neighbour of ``matrix``: the
    residual is always measured against the original system, so a shifted
    factorization either converges toward the true solution or the stage is
    rejected honestly.
    Returns ``(x, residual, rounds_applied)``.
    """
    residual = scaled_residual(matrix, x, b)
    applied = 0
    for __ in range(REFINEMENT_STEPS):
        if residual <= RESIDUAL_LIMIT or not np.isfinite(residual):
            break
        defect = b - matrix.matvec(x)
        try:
            correction = factorization.solve(defect)
        except SingularMatrixError:
            break
        candidate = x + correction
        candidate_residual = scaled_residual(matrix, candidate, b)
        if candidate_residual < residual:
            x, residual = candidate, candidate_residual
            applied += 1
        else:
            break
    return x, residual, applied


# --------------------------------------------------------------------------- #
# escalating solves
# --------------------------------------------------------------------------- #


def _attempt(stage, factor, matrix, rhs, escalations):
    """Run one escalation stage: factor, solve, refine and judge.

    ``factor()`` returns the stage's factorization.  Returns
    ``(x, SolveDiagnostics, factorization)`` when the stage is accepted;
    otherwise appends the stage's :class:`EscalationRecord` to
    ``escalations`` and returns ``None``.
    """
    try:
        factorization = factor()
        x = factorization.solve(rhs)
    except SingularMatrixError as error:
        escalations.append(EscalationRecord(stage, str(error)))
        return None
    x, residual, applied = _refine(factorization, matrix, x, rhs)
    rejected = residual > RESIDUAL_LIMIT
    if not rejected and stage == "regularized":
        # The shifted factorization did not see the true A: additionally
        # demand componentwise consistency, which the ‖x‖-scaled backward
        # error cannot certify when x blows up along a null-space direction
        # (exactly singular, inconsistent systems) — and which, unlike an
        # ‖b‖∞-relative test, cannot be fooled by a small drive magnitude.
        consistency = consistency_residual(matrix, x, rhs)
        rejected = consistency > float(np.sqrt(RESIDUAL_LIMIT))
        if rejected:
            residual = max(residual, consistency)
    if rejected:
        escalations.append(EscalationRecord(
            stage, f"residual {residual:.3e} above limit "
            f"{RESIDUAL_LIMIT:.3e}"))
        return None
    condition = sparse_condition_estimate(factorization, matrix)
    return x, SolveDiagnostics(
        stage=stage, residual=residual, condition=condition,
        refinements=applied, degraded=condition > CONDITION_LIMIT,
        escalations=tuple(escalations)), factorization


def resilient_sparse_solve(matrix, rhs, escalations=()):
    """Escalating scalar solve of one sparse system ``A x = b``.

    The one chain past the fast stage (the sweep engine's compiled chunk, or
    the dense path's batched solve): ``fresh`` (a full Markowitz pivot
    search, abandoning the fill-reducing order) then ``regularized``
    (``A + εI``, validated against the original ``A``).  Callers pass the
    fast stage's :class:`EscalationRecord` in
    ``escalations``; a non-finite system is refused before any stage, with
    no records.  Returns ``(x, SolveDiagnostics, pattern)``: ``pattern`` is
    the accepted ``fresh`` factorization, or ``None`` after a regularized
    solve (a shifted pivot order must not poison the next points).  Raises
    :class:`SolveFailureError` when every stage is rejected.
    """
    rhs = np.asarray(rhs, dtype=complex)
    values = np.array([value for __, __, value in matrix.entries()],
                      dtype=complex)
    if not (np.all(np.isfinite(values)) and np.all(np.isfinite(rhs))):
        raise SolveFailureError(
            "system contains non-finite entries; unrecoverable",
            dimension=matrix.n_rows, stage="fast",
            diagnostics=SolveDiagnostics(
                stage="fast", residual=float("inf")))
    escalations = list(escalations)

    def regularized():
        shift = REGULARIZATION * max(_matrix_one_norm(matrix), 1.0)
        return sparse_lu(matrix.diagonally_shifted(shift))

    accepted = (_attempt("fresh", lambda: sparse_lu(matrix), matrix, rhs,
                         escalations)
                or _attempt("regularized", regularized, matrix, rhs,
                            escalations))
    if accepted is None:
        raise SolveFailureError(
            "escalation chain exhausted without an acceptable solution",
            dimension=matrix.n_rows, stage="regularized",
            diagnostics=SolveDiagnostics(
                stage="regularized", residual=float("inf"),
                escalations=tuple(escalations)))
    x, diagnostics, factorization = accepted
    return x, diagnostics, (factorization if diagnostics.stage == "fresh"
                            else None)


def _escalate(report, index, description, solve):
    """Run one resilient ``solve()`` and record its recovery or failure;
    returns the solve's result, or ``None`` when quarantined."""
    try:
        result = solve()
    except SolveFailureError as error:
        report.record_failure(index, description, str(error),
                              error.diagnostics.escalations)
        return None
    report.record_recovery(index, result[1])
    return result


# --------------------------------------------------------------------------- #
# batched front end
# --------------------------------------------------------------------------- #


def _scaled_residuals(defect, anorm, solutions, rhs_stack) -> np.ndarray:
    """:func:`scaled_residual` per member from its defect ``Ax − b`` and
    ``‖A‖₁``: ``‖Ax − b‖∞ / (‖A‖₁·‖x‖∞ + ‖b‖∞)``, with NaN scoring ``inf``."""
    numerator = np.abs(defect).max(axis=1)
    denominator = (anorm * np.abs(solutions).max(axis=1)
                   + np.abs(rhs_stack).max(axis=1))
    with np.errstate(invalid="ignore", divide="ignore"):
        scaled = np.where(denominator == 0.0,
                          np.where(numerator == 0.0, 0.0, np.inf),
                          numerator / denominator)
    return np.where(np.isnan(scaled), np.inf, scaled)


def _entry_residuals(keys, values, solutions, rhs) -> np.ndarray:
    """Vectorized :func:`scaled_residual` over a chunk of sparse members.

    Member ``b`` is the matrix holding ``values[b, e]`` at ``keys[e]``;
    ``solutions`` is ``(B, n)`` and ``rhs`` one shared right-hand side.  A
    member whose solution has a non-finite entry scores ``inf``.  The sums
    are grouped differently from the scalar metric's, so scores agree with
    it to rounding, not bitwise.
    """
    rows, cols = np.asarray(keys, dtype=np.intp).reshape(-1, 2).T
    batch, n = solutions.shape
    if np.any(rows[1:] < rows[:-1]):
        order = np.argsort(rows, kind="stable")
        rows, cols, values = rows[order], cols[order], values[:, order]
    finite = np.all(np.isfinite(solutions), axis=1)
    if not finite.all():
        solutions = np.where(finite[:, None], solutions, 0.0)
    starts = np.flatnonzero(np.diff(rows, prepend=-1))
    rhs_stack = np.broadcast_to(rhs, solutions.shape)
    with np.errstate(invalid="ignore"):
        sums = np.add.reduceat(values * solutions[:, cols], starts, axis=1)
        products = sums
        if len(starts) < n:  # some rows store no value
            products = np.zeros_like(solutions)
            products[:, rows[starts]] = sums
        flat = (cols + n * np.arange(batch)[:, None]).ravel()
        column_sums = np.bincount(flat, np.abs(values).ravel(), batch * n)
        scaled = _scaled_residuals(
            products - rhs_stack, column_sums.reshape(batch, n).max(axis=1),
            solutions, rhs_stack)
    return np.where(finite, scaled, np.inf)


def solve_stack_resilient(stack, rhs, report, indexer) -> np.ndarray:
    """Solve a ``(B, n, n)`` stack, escalating failing members individually.

    The fast stage is :func:`~repro.linalg.dense.batched_solve`; members it
    cannot serve — singular members, non-finite rows, residuals over
    :data:`RESIDUAL_LIMIT` — escalate one by one through the chain past it,
    :func:`resilient_sparse_solve` on the member's
    :meth:`~repro.linalg.sparse.SparseMatrix.from_dense`.  The batched
    kernel is batch-size invariant, so surviving members keep exactly the
    bits a fault-free run would have produced.

    Parameters
    ----------
    stack, rhs:
        The systems; ``rhs`` is one shared vector or a ``(B, n)`` stack.
    report:
        The :class:`SweepReport` receiving per-member outcomes.
    indexer:
        ``indexer(member) -> (report_index, description)`` mapping a stack
        position to the index recorded in the report (sweep point or sample)
        and a human-readable description of the member.

    Returns
    -------
    numpy.ndarray
        ``(B, n)`` solutions; quarantined members' rows are NaN.
    """
    stack = np.asarray(stack, dtype=complex)
    batch, n = stack.shape[0], stack.shape[1]
    rhs = np.asarray(rhs, dtype=complex)
    rhs_stack = (np.broadcast_to(rhs, (batch, n)) if rhs.ndim == 1 else rhs)

    singular = np.zeros(batch, dtype=bool)
    # A non-finite member is legal input here (it will be quarantined);
    # keep its NaN arithmetic from warning inside the batched kernel.
    with np.errstate(invalid="ignore"):
        try:
            solutions = batched_solve(stack, rhs)
        except SingularMatrixError:
            # Re-solve members one by one: zgesv results are batch-size
            # invariant, so healthy members reproduce the fault-free bits.
            solutions, singular = solve_members(stack, rhs_stack)

    finite = np.all(np.isfinite(solutions), axis=1)
    checked = np.where(finite[:, None], solutions, 0.0)
    with np.errstate(invalid="ignore"):
        residuals = _scaled_residuals(
            np.einsum("bij,bj->bi", stack, checked) - rhs_stack,
            np.abs(stack).sum(axis=1).max(axis=1), checked, rhs_stack)
    failing = singular | ~finite | (residuals > RESIDUAL_LIMIT)
    report.record_fast(int(batch - failing.sum()))

    for member in np.flatnonzero(failing):
        member = int(member)
        if singular[member]:
            reason = "fast batched factorization flagged the matrix singular"
        elif not finite[member]:
            reason = "fast batched solution is non-finite"
        else:
            reason = (f"fast batched residual {residuals[member]:.3e} "
                      f"above limit {RESIDUAL_LIMIT:.3e}")
        escalated = _escalate(report, *indexer(member), lambda: (
            resilient_sparse_solve(SparseMatrix.from_dense(stack[member]),
                                   rhs_stack[member],
                                   (EscalationRecord("fast", reason),))))
        solutions[member] = np.nan if escalated is None else escalated[0]
    return solutions
