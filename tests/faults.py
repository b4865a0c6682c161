"""Fault-injection harness for the resilient solve layer.

Chaos wrappers that corrupt the ensemble engine's inputs at precisely chosen
samples — without touching library code — so tests can assert the two
resilience properties of ISSUE 7:

* a **transient** fault (a kernel that fails once and then works) recovers
  **bit-identically** to a fault-free run;
* a **permanent** fault (a sample whose stamped matrix is singular or
  non-finite at every frequency) degrades to an **accurate quarantine
  report** naming exactly the injected samples, with every other sample's
  response untouched to the last bit.

The injection points are module-level names the engine looks up at call
time, patched inside context managers:

* :func:`ensemble_faults` replaces
  ``repro.montecarlo.engine.ValueProgram`` with a factory returning a
  :class:`ChaosProgram` — a transparent proxy whose :meth:`dense_parts`
  (and, for ``nan`` faults, :meth:`sparse_values`) corrupts the chosen
  samples' stamped ``(G, C)`` matrices;
* :func:`failing_kernel` replaces
  ``repro.engine.resilience.batched_solve`` with a wrapper that raises
  :class:`~repro.errors.SingularMatrixError` on its N-th call and passes
  every other call through untouched, and counts the member-by-member
  re-solves (``repro.engine.resilience.solve_members``) too;
* :func:`parallel_faults` installs a **process-level** fault plan for the
  supervised multiprocess driver — SIGKILL a worker mid-shard, hang it past
  the heartbeat timeout, or crash the attempt — shipped to workers inside
  the pickled payload, so it works under fork and spawn alike.
"""

from __future__ import annotations

import contextlib

import numpy as np

import repro.engine.resilience as resilience
import repro.montecarlo.engine as ensemble_engine
import repro.montecarlo.parallel as parallel_engine
from repro.errors import SingularMatrixError

#: Supported per-sample fault kinds.
FAULT_KINDS = ("singular", "nan", "near_singular")


def inject_dense_fault(constant, dynamic, kind, epsilon=1e-14):
    """Corrupt one sample's stamped ``(G, C)`` parts in place.

    ``singular`` duplicates row 0 into row 1 of *both* parts, so
    ``G + s·C`` has two identical rows — exactly singular at every
    frequency.  ``nan`` poisons one conductance entry.  ``near_singular``
    makes row 1 a ``(1 + ε)`` multiple of row 0: solvable, but with a
    condition number of order ``1/ε``.
    """
    if kind == "singular":
        constant[1, :] = constant[0, :]
        dynamic[1, :] = dynamic[0, :]
    elif kind == "nan":
        constant[0, 0] = np.nan
    elif kind == "near_singular":
        constant[1, :] = constant[0, :] * (1.0 + epsilon)
        dynamic[1, :] = dynamic[0, :] * (1.0 + epsilon)
    else:
        raise ValueError(f"unknown fault kind {kind!r}; "
                         f"expected one of {FAULT_KINDS}")


class ChaosProgram:
    """Transparent :class:`~repro.montecarlo.program.ValueProgram` proxy
    that corrupts chosen samples' stamped parts.

    ``faults`` maps sample index → fault kind (one of :data:`FAULT_KINDS`).
    :meth:`dense_parts` and :meth:`sparse_values` inject them; every other
    attribute — ``dimension``, ``rhs``, … — is forwarded to the wrapped
    program untouched, so the engine cannot tell the difference until it
    looks at the corrupted matrices.

    With ``ensemble_values`` (the full ``(M, E)`` value matrix of the run)
    the fault indices are **global**: each row of the slice this program is
    handed is mapped back to its ensemble index by exact byte match, so a
    sharded run — checkpointed or multiprocess, where each shard sees only
    its own rows — corrupts exactly the same samples as an unsharded one.
    (Values are drawn up front and shipped bit-exactly through shared
    memory, so byte-identity is guaranteed.)  Without it, indices are
    positions within whatever slice ``dense_parts`` receives.
    """

    def __init__(self, program, faults, epsilon=1e-14,
                 ensemble_values=None):
        self._program = program
        self._faults = dict(faults)
        self._epsilon = epsilon
        self._row_index = None
        if ensemble_values is not None:
            rows = np.ascontiguousarray(np.asarray(ensemble_values,
                                                   dtype=float))
            self._row_index = {rows[i].tobytes(): i
                               for i in range(rows.shape[0])}

    def __getattr__(self, name):
        return getattr(self._program, name)

    def _global_index(self, values, position):
        if self._row_index is None:
            return position
        row = np.ascontiguousarray(values[position]).tobytes()
        return self._row_index.get(row, -1)

    def dense_parts(self, values):
        constant, dynamic = self._program.dense_parts(values)
        constant = constant.copy()
        dynamic = dynamic.copy()
        for position in range(constant.shape[0]):
            kind = self._faults.get(self._global_index(values, position))
            if kind is not None:
                inject_dense_fault(constant[position], dynamic[position],
                                   kind, self._epsilon)
        return constant, dynamic

    def sparse_values(self, values):
        """The sparse path's entry values, with ``nan`` faults injected.

        A ``nan`` fault poisons the sample's first constant entry; the other
        kinds corrupt dense rows and have no sparse form.
        """
        constant_keys, constant, dynamic_keys, dynamic = (
            self._program.sparse_values(values))
        for position in range(constant.shape[0]):
            kind = self._faults.get(self._global_index(values, position))
            if kind == "nan":
                constant[position, 0] = np.nan
            elif kind is not None:
                raise ValueError(f"fault kind {kind!r} has no sparse-path "
                                 "injection; use 'nan'")
        return constant_keys, constant, dynamic_keys, dynamic


@contextlib.contextmanager
def ensemble_faults(faults, epsilon=1e-14, ensemble_values=None):
    """Corrupt chosen ensemble samples inside the ``with`` block.

    Patches the ``ValueProgram`` name the ensemble engine instantiates, so
    any :func:`~repro.montecarlo.engine.ensemble_sweep` call in the block
    sees a :class:`ChaosProgram` with the given ``faults`` mapping.  Pass
    ``ensemble_values`` to make the indices global across sharded runs
    (see :class:`ChaosProgram`).  The patch is inherited by worker
    processes forked inside the block, so it also covers multiprocess
    ensembles under the default Linux start method.
    """
    original = ensemble_engine.ValueProgram

    class _ChaosFactory:
        @staticmethod
        def from_circuit(circuit, space):
            return ChaosProgram(original.from_circuit(circuit, space),
                                faults, epsilon,
                                ensemble_values=ensemble_values)

    ensemble_engine.ValueProgram = _ChaosFactory
    try:
        yield
    finally:
        ensemble_engine.ValueProgram = original


@contextlib.contextmanager
def parallel_faults(plan):
    """Install a process-level fault plan for the supervised driver.

    ``plan`` maps shard index → action spec, where an action is ``"kill"``
    (SIGKILL the worker mid-shard), ``"kill_after"`` (SIGKILL *after* the
    shard solved but before any write-back or completion message — the
    at-most-once worst case for streaming accumulators: the supervisor must
    re-dispatch and fold the shard exactly once), ``"hang"`` (stop
    heartbeating and sleep past the deadline) or ``"crash"`` (raise inside
    the worker).  A bare string fires on **every** attempt of that shard (a
    poisoned shard); a list is indexed by attempt number, so ``["kill"]``
    fails attempt 1 only and lets the re-dispatch succeed.

    :func:`repro.montecarlo.parallel.run_shards` snapshots the plan into
    the worker payload at call time, so it reaches workers through the
    pickled payload regardless of start method.
    """
    original = parallel_engine._FAULT_PLAN
    parallel_engine._FAULT_PLAN = dict(plan)
    try:
        yield
    finally:
        parallel_engine._FAULT_PLAN = original


@contextlib.contextmanager
def failing_kernel(nth=1):
    """Make the resilient layer's batched LAPACK kernel fail transiently.

    The patched kernel raises :class:`SingularMatrixError` on its ``nth``
    call (1-based) and behaves normally on every other call — the shape of
    a transient backend failure.  Yields a dict whose ``"count"`` entry
    tracks how many calls the LAPACK kernels received: the batched kernel
    and the member-by-member re-solve that retries a failed stack.
    """
    original = resilience.batched_solve
    original_members = resilience.solve_members
    state = {"count": 0}

    def chaos(stack, rhs):
        state["count"] += 1
        if state["count"] == nth:
            raise SingularMatrixError("injected transient kernel failure")
        return original(stack, rhs)

    def members(stack, rhs_stack):
        state["count"] += 1
        return original_members(stack, rhs_stack)

    resilience.batched_solve = chaos
    resilience.solve_members = members
    try:
        yield state
    finally:
        resilience.batched_solve = original
        resilience.solve_members = original_members
