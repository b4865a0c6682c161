"""Resilient solve layer: escalation, quarantine, checkpoints, fault injection.

The contract under test (ISSUE 7):

* the **no-fault default path is bit-identical** to the legacy engines —
  turning quarantine on must not change a single response bit;
* a **transient** fault recovers bit-identically; a **permanent** fault
  degrades to an accurate :class:`~repro.engine.resilience.SweepReport`
  naming exactly the injected samples, with every surviving sample's
  response untouched;
* statistics (:mod:`repro.analysis.montecarlo`) exclude quarantined samples
  and report them, instead of NaN-poisoning envelopes and yields;
* checkpointed ensembles resume **bit-identically** after a kill;
* all four engines (dense, sparse+ordering, rank-1 screening, symbolic)
  raise the same typed :class:`~repro.errors.SingularMatrixError` for the
  same singular circuits.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from faults import ensemble_faults, failing_kernel

import repro.engine.sweep as sweep_module
from repro.analysis.montecarlo import (MonteCarloResult, YieldSpec,
                                       monte_carlo_analysis,
                                       variance_attribution, yield_analysis)
from repro.analysis.sensitivity import element_sensitivities
from repro.circuits import build_ua741
from repro.circuits.rc_ladder import build_rc_ladder
from repro.engine.resilience import (CONDITION_LIMIT, REFINEMENT_STEPS,
                                     REGULARIZATION, RESIDUAL_LIMIT,
                                     STAGES, SweepReport, _entry_residuals,
                                     resilient_sparse_solve, scaled_residual,
                                     solve_stack_resilient)
from repro.engine.session import AnalysisSession
from repro.engine.sweep import SweepEngine
from repro.errors import (CheckpointError, LinAlgError, NetlistError,
                          SingularMatrixError, SolveFailureError,
                          ValidationError)
from repro.linalg.dense import batched_solve
from repro.linalg.sparse import SparseMatrix
from repro.mna.builder import build_mna_system
from repro.montecarlo import (ParameterSpace, Tolerance, checkpoint_info,
                              checkpointed_ensemble_sweep, ensemble_sweep,
                              parallel_ensemble_sweep)
from repro.netlist.circuit import Circuit
from repro.nodal.reduce import TransferSpec
from repro.reporting import format_sweep_report
from repro.symbolic.generation import symbolic_network_function

FREQUENCIES = np.logspace(1, 7, 9)


def _toleranced(circuit, fraction=0.05, count=5):
    names = [element.name for element in circuit
             if type(element).__name__ in ("Resistor", "Capacitor")][:count]
    return ParameterSpace(circuit, {name: fraction for name in names})


@pytest.fixture(scope="module")
def ua741():
    circuit, spec = build_ua741()
    return circuit, spec, _toleranced(circuit)


@pytest.fixture(scope="module")
def ladder():
    circuit, spec = build_rc_ladder(4)
    return circuit, spec, _toleranced(circuit, fraction=0.1)


def build_floating_load():
    """1 A into ``n1`` through ``Gload`` (±50 %) and ``C1``: a ``Gload`` of 0
    leaves ``n1`` on ``C1`` alone, singular at 0 Hz."""
    circuit = Circuit("floating")
    circuit.add_current_source("iin", "0", "n1", 1.0)
    circuit.add_conductor("Gload", "n1", "0", 1e-3)
    circuit.add_capacitor("C1", "n1", "0", 1e-9)
    circuit.replace(circuit["Gload"].with_tolerance(0.5))
    return circuit


def build_floating_at_dc():
    """Node ``b`` hangs on a capacitor alone: singular exactly at s = 0."""
    circuit = Circuit("floating")
    circuit.add_voltage_source("vin", "in", "0", 1.0)
    circuit.add_resistor("R1", "in", "out", 1e3)
    circuit.add_resistor("RL", "out", "0", 2e3)
    circuit.add_capacitor("C1", "b", "0", 1e-12)
    return circuit


def build_driven_floating_at_dc():
    """A current source drives the floating node: *inconsistent* at s = 0.

    The zero row meets a nonzero right-hand-side entry, so not even the
    regularized stage can certify a solution — the point must quarantine.
    """
    circuit = build_floating_at_dc()
    circuit.add_current_source("Ib", "b", "0", 1.0)
    return circuit


def build_isolated_island():
    """An R‖C island with no path to the rest: singular at every s."""
    circuit = Circuit("island")
    circuit.add_voltage_source("vin", "in", "0", 1.0)
    circuit.add_resistor("R1", "in", "out", 1e3)
    circuit.add_resistor("RL", "out", "0", 2e3)
    circuit.add_resistor("Ri", "a", "b", 1e3)
    circuit.add_capacitor("Ci", "a", "b", 1e-9)
    return circuit


class TestEscalationPolicy:
    """The fixed limits of the escalation chain."""

    def test_fixed_defaults(self):
        assert STAGES == ("fast", "fresh", "regularized")
        assert RESIDUAL_LIMIT == 1e-8
        assert CONDITION_LIMIT == 1e13
        assert REFINEMENT_STEPS == 1
        assert REGULARIZATION == pytest.approx(np.sqrt(np.finfo(float).eps))

    def test_escalated_ill_conditioned_solve_flagged_degraded(self):
        # Accepted at the first escalated stage, but its ~1e15 condition
        # estimate is over the limit: recorded as degraded, not rejected.
        x, diagnostics, __ = resilient_sparse_solve(
            SparseMatrix.from_dense(np.array([[1.0, 0.0], [0.0, 1e-15]])),
            np.array([1.0, 1e-15], dtype=complex))
        assert diagnostics.stage == "fresh"
        assert diagnostics.condition > CONDITION_LIMIT
        assert diagnostics.degraded
        np.testing.assert_allclose(x, [1.0, 1.0])
        report = SweepReport()
        report.record_recovery(3, diagnostics)
        assert report.degraded == [(3, diagnostics.condition)]


class TestResilientDenseSolve:
    """A dense system through the one chain, as :func:`solve_stack_resilient`
    escalates a failing member: ``SparseMatrix.from_dense``, then fresh →
    regularized.  The rank-deficient ``[[1, 1], [1, 1]]`` systems reach the
    consistency gate's global prong; the sparse class's zero pivot reaches
    its componentwise one."""

    def _solve(self, matrix, rhs):
        return resilient_sparse_solve(SparseMatrix.from_dense(matrix), rhs)

    def test_clean_system_accepted_fresh(self):
        rng = np.random.default_rng(0)
        matrix = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        matrix += 4 * np.eye(4)
        rhs = rng.normal(size=4) + 0j
        x, diagnostics, pattern = self._solve(matrix, rhs)
        assert diagnostics.stage == "fresh"
        assert diagnostics.escalations == ()
        assert pattern is not None
        assert np.allclose(matrix @ x, rhs)

    def test_consistent_singular_recovered_by_regularization(self):
        matrix = np.array([[1.0, 1.0], [1.0, 1.0]], dtype=complex)
        rhs = np.array([2.0, 2.0], dtype=complex)
        x, diagnostics, pattern = self._solve(matrix, rhs)
        assert diagnostics.stage == "regularized"
        assert [record.stage for record in diagnostics.escalations] == [
            "fresh"]
        assert pattern is None
        assert np.allclose(matrix @ x, rhs)

    def test_inconsistent_singular_quarantined(self):
        matrix = np.array([[1.0, 1.0], [1.0, 1.0]], dtype=complex)
        rhs = np.array([1.0, 0.0], dtype=complex)
        with pytest.raises(SolveFailureError) as excinfo:
            self._solve(matrix, rhs)
        error = excinfo.value
        assert isinstance(error, SingularMatrixError)
        assert error.diagnostics is not None
        stages = [record.stage for record in error.diagnostics.escalations]
        assert stages == ["fresh", "regularized"]

    def test_non_finite_input_unrecoverable(self):
        matrix = np.eye(3, dtype=complex)
        matrix[0, 0] = np.nan
        with pytest.raises(SolveFailureError, match="non-finite") as excinfo:
            self._solve(matrix, np.ones(3, dtype=complex))
        assert excinfo.value.diagnostics.escalations == ()


class TestResilientSparseSolve:
    """The sparse chain past the engine's fast stage: fresh → regularized."""

    def _singular_matrix(self):
        # diag(1, 1, 0): exactly singular, zero last pivot.
        return SparseMatrix.from_entries(
            3, 3, [((0, 0), 1.0), ((1, 1), 1.0), ((2, 2), 0.0),
                   ((0, 1), 0.2), ((1, 0), 0.1)])

    def test_consistent_singular_recovered(self):
        matrix = self._singular_matrix()
        rhs = np.array([1.0, 1.0, 0.0], dtype=complex)
        x, diagnostics, __ = resilient_sparse_solve(matrix, rhs)
        assert diagnostics.stage == "regularized"
        assert np.allclose(matrix.matvec(x), rhs)

    def test_inconsistent_singular_quarantined(self):
        matrix = self._singular_matrix()
        rhs = np.array([1.0, 1.0, 1.0], dtype=complex)
        with pytest.raises(SolveFailureError) as excinfo:
            resilient_sparse_solve(matrix, rhs)
        stages = [r.stage for r in excinfo.value.diagnostics.escalations]
        assert stages == ["fresh", "regularized"]


class TestEntryResiduals:
    """The sparse fast stage's vectorized residual against the scalar one."""

    @pytest.mark.parametrize("seed", range(24))
    def test_matches_scaled_residual(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 41))
        members = int(rng.integers(1, 6))
        cells = rng.choice(n * n, size=int(rng.integers(n, 3 * n + 1)),
                           replace=False)
        keys = [(int(cell) // n, int(cell) % n) for cell in cells]

        def draw(shape):
            magnitude = 10.0 ** rng.uniform(-6.0, 6.0, size=shape)
            return magnitude * (rng.normal(size=shape)
                                + 1j * rng.normal(size=shape))

        values = draw((members, len(keys)))
        values[rng.random(values.shape) < 0.15] = 0.0
        solutions = draw((members, n))
        rhs = draw(n)
        scores = _entry_residuals(keys, values, solutions, rhs)
        for member in range(members):
            matrix = SparseMatrix.from_entries(
                n, n, zip(keys, values[member].tolist()))
            assert scores[member] == pytest.approx(
                scaled_residual(matrix, solutions[member], rhs), rel=1e-12)

    def test_non_finite_solution_scores_inf(self):
        # Column 2 holds no stored value, so only the finiteness check can
        # see the infinity of the second member.
        keys = [(1, 0), (0, 0), (1, 1)]
        values = np.ones((3, len(keys)), dtype=complex)
        solutions = np.ones((3, 3), dtype=complex)
        solutions[0, 0] = np.nan
        solutions[1, 2] = np.inf
        scores = _entry_residuals(keys, values, solutions, np.ones(3))
        assert np.isinf(scores[:2]).all()
        assert np.isfinite(scores[2])


def _resilient_sweep(system, s, method):
    """Solve ``system`` at every point of ``s`` through the escalation chain.

    Dense: one :func:`solve_stack_resilient` call on the assembled stack.
    Sparse: the sweep engine's one sparse solve loop with a report.
    Returns ``(solutions, report)``; quarantined points' rows are NaN.
    """
    report = SweepReport(kind="sweep point", total=len(s))

    def describe(point):
        return point, f"sweep point {point} (s={complex(s[point])!r})"

    if method == "dense":
        solutions = solve_stack_resilient(system.assemble_batch(s),
                                          system.rhs, report, describe)
        return solutions, report
    keys, constant, dynamic = system.merged_sparse_structure()
    solutions = np.empty((len(s), system.dimension), dtype=complex)
    for start, x in SweepEngine(system, method="sparse")._sparse_solutions(
            keys, constant, dynamic, s, system.rhs, report, describe):
        solutions[start:start + len(x)] = x
    return solutions, report


def _fault_free(system, s, method):
    """The plain solves a resilient sweep's healthy points must reproduce."""
    if method == "dense":
        return batched_solve(system.assemble_batch(s), system.rhs)
    return SweepEngine(system, method="sparse").solve_sweep(s, system.rhs)


class TestSweepQuarantineParity:
    """Singular sweep points are quarantined or rescued, never fatal."""

    @pytest.mark.parametrize("method", ["dense", "sparse"])
    def test_singular_point_quarantined_not_fatal(self, method):
        circuit = build_driven_floating_at_dc()
        system = build_mna_system(circuit)
        s = np.array([0j, 2j * np.pi * 1e3])
        solutions, report = _resilient_sweep(system, s, method)
        assert report.quarantined == [0]
        assert np.isnan(solutions[0]).all()
        assert "sweep point 0" in report.failures[0].description
        # The surviving point keeps its fault-free bits.
        clean = _fault_free(system, s[1:], method)
        assert np.array_equal(solutions[1], clean[0])
        # The report renders.
        assert "quarantined" in format_sweep_report(report)

    @pytest.mark.parametrize("method", ["dense", "sparse"])
    @pytest.mark.parametrize("drive", [1e-6, 1e-9, 1e-12])
    def test_small_drive_inconsistency_still_quarantined(self, method, drive):
        # Regression: the old gate scaled the residual by ‖b‖∞, so a tiny
        # current into the floating node (1e-6 A against the 1 V source
        # elsewhere in b) scored ~1e-6 and was silently "rescued" even
        # though the s = 0 system is inconsistent.  The componentwise gate
        # judges the zero row against its own rhs entry and must quarantine
        # no matter how small the drive is.
        circuit = build_floating_at_dc()
        circuit.add_current_source("Ib", "b", "0", drive)
        system = build_mna_system(circuit)
        s = np.array([0j, 2j * np.pi * 1e3])
        solutions, report = _resilient_sweep(system, s, method)
        assert report.quarantined == [0]
        assert np.isnan(solutions[0]).all()
        assert np.isfinite(solutions[1]).all()

    @pytest.mark.parametrize("method", ["dense", "sparse"])
    def test_consistent_singular_point_rescued(self, method):
        # The *undriven* floating node is a zero row against a zero rhs
        # entry: still singular, but consistent — the regularized stage can
        # certify a solution and must record the rescue, not quarantine it.
        circuit = build_floating_at_dc()
        system = build_mna_system(circuit)
        s = np.array([0j, 2j * np.pi * 1e3])
        solutions, report = _resilient_sweep(system, s, method)
        assert report.quarantined == []
        assert report.recovered == [0]
        assert report.stage_counts["regularized"] == 1
        assert np.isfinite(solutions).all()


class TestEnsembleQuarantine:
    """The ensemble acceptance path: injected faults → accurate reports."""

    @pytest.mark.parametrize("solver", ["lapack"])
    def test_no_fault_bit_parity(self, ua741, solver):
        circuit, spec, space = ua741
        legacy = ensemble_sweep(circuit, spec, FREQUENCIES, space,
                                samples=16, seed=2)
        resilient = ensemble_sweep(circuit, spec, FREQUENCIES, space,
                                   samples=16, seed=2,
                                   on_failure="quarantine")
        assert legacy.solver == resilient.solver == solver
        assert np.array_equal(legacy.responses, resilient.responses)
        assert resilient.report.ok
        assert resilient.surviving_mask().all()

    def test_injected_faults_quarantined_exactly(self, ua741):
        circuit, spec, space = ua741
        samples, seed = 256, 7
        clean = ensemble_sweep(circuit, spec, FREQUENCIES, space,
                               samples=samples, seed=seed)
        with ensemble_faults({3: "singular", 17: "nan"}):
            result = monte_carlo_analysis(circuit, spec, FREQUENCIES, space,
                                          samples=samples, seed=seed,
                                          on_failure="quarantine")
        ensemble = result.ensemble
        report = ensemble.report
        # The report names exactly the injected samples.
        assert report.quarantined == [3, 17]
        descriptions = {record.index: record.description
                        for record in report.failures}
        assert "ensemble member 3" in descriptions[3]
        assert "ensemble member 17" in descriptions[17]
        # Quarantined rows are NaN; every survivor keeps fault-free bits.
        mask = ensemble.surviving_mask()
        assert not mask[3] and not mask[17] and mask.sum() == samples - 2
        assert np.isnan(ensemble.responses[3]).all()
        assert np.isnan(ensemble.responses[17]).all()
        assert np.array_equal(ensemble.responses[mask],
                              clean.responses[mask])
        # Envelope == the clean run's statistics restricted to survivors.
        envelope = result.envelope()
        clean_magnitudes = clean.magnitudes_db()[mask]
        assert np.array_equal(envelope.minimum_db,
                              clean_magnitudes.min(axis=0))
        assert np.array_equal(envelope.maximum_db,
                              clean_magnitudes.max(axis=0))
        assert np.array_equal(envelope.mean_db,
                              clean_magnitudes.mean(axis=0))
        # Yield excludes and reports the quarantined samples.
        pivot = float(np.median(clean.magnitudes_db()[:, 4]))
        spec_gain = YieldSpec(name="gain", minimum_gain_db=pivot,
                              at_frequency=float(FREQUENCIES[4]))
        clean_yield = yield_analysis(clean, spec_gain)
        faulted_yield = result.yield_against(spec_gain)
        assert faulted_yield.total == samples - 2
        assert faulted_yield.quarantined == [3, 17]
        assert faulted_yield.failures == [
            index for index in clean_yield.failures if index not in (3, 17)]
        # Variance attribution stays finite over the survivors.
        for entry in variance_attribution(result):
            assert np.isfinite(entry.share)

    def test_sparse_ensemble_quarantine(self, ladder):
        # The sparse path's resilient loop: quarantine on a clean run keeps
        # every bit, and NaN-poisoned samples are named and masked whole.
        circuit, spec, space = ladder
        options = dict(samples=8, seed=3, method="sparse")
        clean = ensemble_sweep(circuit, spec, FREQUENCIES, space, **options)
        resilient = ensemble_sweep(circuit, spec, FREQUENCIES, space,
                                   on_failure="quarantine", **options)
        assert resilient.solver == "sparse"
        assert np.array_equal(clean.responses, resilient.responses)
        assert resilient.report.ok
        assert resilient.report.stage_counts["fast"] == 8 * len(FREQUENCIES)
        with ensemble_faults({2: "nan", 5: "nan"}):
            faulted = ensemble_sweep(circuit, spec, FREQUENCIES, space,
                                     on_failure="quarantine", **options)
        assert faulted.report.quarantined == [2, 5]
        assert np.isnan(faulted.responses[[2, 5]]).all()
        mask = faulted.surviving_mask()
        assert mask.sum() == 6
        assert np.array_equal(faulted.responses[mask], clean.responses[mask])

    def test_sparse_quarantine_escalates_only_failing_points(
            self, ladder, monkeypatch):
        # The compiled chunks are the fast stage: a clean quarantined run
        # escalates nothing, and a NaN sample escalates its first point
        # alone before it is quarantined.
        circuit, spec, space = ladder
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return resilient_sparse_solve(*args, **kwargs)

        monkeypatch.setattr(sweep_module, "resilient_sparse_solve", counting)
        options = dict(samples=8, seed=3, method="sparse",
                       on_failure="quarantine")
        ensemble_sweep(circuit, spec, FREQUENCIES, space, **options)
        assert calls == []
        with ensemble_faults({2: "nan", 5: "nan"}):
            faulted = ensemble_sweep(circuit, spec, FREQUENCIES, space,
                                     **options)
        assert len(calls) == 2
        assert faulted.report.quarantined == [2, 5]

    def test_all_quarantined_statistics_refuse(self, ua741):
        circuit, spec, space = ua741
        with ensemble_faults({0: "nan", 1: "nan", 2: "nan"}):
            ensemble = ensemble_sweep(circuit, spec, FREQUENCIES[:3], space,
                                      samples=3, seed=0,
                                      on_failure="quarantine")
        assert ensemble.report.quarantined == [0, 1, 2]
        result = MonteCarloResult(ensemble=ensemble,
                                  nominal_response=np.zeros(3), seed=0)
        with pytest.raises(LinAlgError, match="quarantined"):
            result.envelope()
        with pytest.raises(LinAlgError, match="quarantined"):
            variance_attribution(result)

    def test_raise_mode_names_sample(self, ua741):
        circuit, spec, space = ua741
        with ensemble_faults({2: "singular"}):
            with pytest.raises(SingularMatrixError,
                               match="ensemble member 2 at sweep point 0"):
                ensemble_sweep(circuit, spec, FREQUENCIES[:3], space,
                               samples=4, seed=0)

    @pytest.mark.parametrize("method", ["dense", "sparse"])
    def test_raise_mode_names_member(self, method):
        # A conductance of 0 leaves n1 on C1 alone: member 2 is singular at
        # 0 Hz, the second point.  Both paths name the member and the point.
        circuit = build_floating_load()
        with pytest.raises(SingularMatrixError,
                           match="ensemble member 2 at sweep point 1"):
            ensemble_sweep(circuit, "n1", [1e3, 0.0, 1e5],
                           ParameterSpace(circuit),
                           values=[[1e-3], [2e-3], [0.0]], method=method)

    @pytest.mark.parametrize("mode", ["streaming", "workers=1", "workers=2"])
    @pytest.mark.parametrize("method", ["dense", "sparse"])
    def test_sharded_raise_mode_names_run_member(self, method, mode):
        # Shards of two: the singular member 3 is the second member of the
        # second shard, and every sharded run names it by its place in the
        # whole run.
        circuit = build_floating_load()
        arguments = (circuit, "n1", [1e3, 0.0], ParameterSpace(circuit))
        values = [[1e-3], [2e-3], [1e-3], [0.0]]
        with pytest.raises(SingularMatrixError,
                           match="ensemble member 3 at sweep point 1"):
            if mode == "streaming":
                ensemble_sweep(*arguments, values=values, method=method,
                               store_responses=False, shard_size=2)
            else:
                parallel_ensemble_sweep(
                    *arguments, values=values, method=method, shard_size=2,
                    workers=int(mode[-1]), on_failure="raise")

    @pytest.mark.parametrize("method,mode", [
        pytest.param(method, mode,
                     id=mode if method == "sparse" else f"{method}-{mode}")
        for method in ("sparse", "dense")
        for mode in ("stored", "streaming", "workers=1", "workers=2")])
    def test_sparse_raise_mode_refuses_nan_member(self, ladder, method, mode):
        # A NaN stamped into member 2 is refused — on the sparse path before
        # its pivot search, on the dense path by LAPACK — and the error names
        # the member and its first point by their place in the whole run.
        circuit, spec, space = ladder
        values = space.sample_values(4, seed=3)
        arguments = (circuit, spec, FREQUENCIES, space)
        with ensemble_faults({2: "nan"}, ensemble_values=values):
            with pytest.raises(SingularMatrixError,
                               match="ensemble member 2 at sweep point 0 "
                                     "is singular") as excinfo:
                if mode == "stored":
                    ensemble_sweep(*arguments, values=values, method=method)
                elif mode == "streaming":
                    ensemble_sweep(*arguments, values=values, method=method,
                                   store_responses=False, shard_size=2)
                else:
                    parallel_ensemble_sweep(
                        *arguments, values=values, method=method,
                        shard_size=2, workers=int(mode[-1]),
                        on_failure="raise")
        if mode == "stored" and method == "sparse":
            assert "non-finite" in str(excinfo.value.__cause__)


class TestTransientFaults:
    """A kernel that fails once must recover bit-identically."""

    def test_transient_kernel_failure_recovers_bit_identically(self, ladder):
        circuit, spec, space = ladder
        clean = ensemble_sweep(circuit, spec, FREQUENCIES, space,
                               samples=12, seed=4)
        with failing_kernel(nth=1) as state:
            resilient = ensemble_sweep(circuit, spec, FREQUENCIES, space,
                                       samples=12, seed=4,
                                       on_failure="quarantine")
        assert state["count"] > 1  # the kernel failed and was retried
        assert np.array_equal(clean.responses, resilient.responses)
        assert resilient.report.ok


class TestCheckpointedEnsembles:
    """Kill + resume must be bit-identical to an uninterrupted run."""

    def test_kill_and_resume_bit_identical(self, ladder, tmp_path):
        circuit, spec, space = ladder
        path = str(tmp_path / "run.npz")
        reference = ensemble_sweep(circuit, spec, FREQUENCIES, space,
                                   samples=20, seed=3,
                                   on_failure="quarantine")
        killed = checkpointed_ensemble_sweep(
            circuit, spec, FREQUENCIES, space, path=path, samples=20,
            seed=3, shard_size=6, max_shards=2)
        assert not killed.finished and killed.completed == 12
        assert checkpoint_info(path)["completed"] == 12
        resumed = checkpointed_ensemble_sweep(
            circuit, spec, FREQUENCIES, space, path=path, samples=20,
            seed=3, shard_size=6)
        assert resumed.finished and resumed.resumed_from == 12
        assert np.array_equal(resumed.ensemble.responses,
                              reference.responses)
        # Streaming statistics match an uninterrupted checkpointed run bit
        # for bit.
        straight = checkpointed_ensemble_sweep(
            circuit, spec, FREQUENCIES, space,
            path=str(tmp_path / "straight.npz"), samples=20, seed=3,
            shard_size=6)
        assert resumed.statistics.count == straight.statistics.count
        assert np.array_equal(resumed.statistics.sum_db,
                              straight.statistics.sum_db)
        assert np.array_equal(resumed.statistics.sumsq_db,
                              straight.statistics.sumsq_db)
        assert np.array_equal(resumed.statistics.min_db,
                              straight.statistics.min_db)
        assert np.array_equal(resumed.statistics.max_db,
                              straight.statistics.max_db)

    def test_mismatched_run_rejected(self, ladder, tmp_path):
        circuit, spec, space = ladder
        path = str(tmp_path / "run.npz")
        checkpointed_ensemble_sweep(circuit, spec, FREQUENCIES, space,
                                    path=path, samples=12, seed=3,
                                    shard_size=6, max_shards=1)
        with pytest.raises(CheckpointError, match="seed"):
            checkpointed_ensemble_sweep(circuit, spec, FREQUENCIES, space,
                                        path=path, samples=12, seed=4,
                                        shard_size=6)
        with pytest.raises(CheckpointError, match="shard_size"):
            checkpointed_ensemble_sweep(circuit, spec, FREQUENCIES, space,
                                        path=path, samples=12, seed=3,
                                        shard_size=4)
        with pytest.raises(CheckpointError, match="on_failure"):
            checkpointed_ensemble_sweep(circuit, spec, FREQUENCIES, space,
                                        path=path, samples=12, seed=3,
                                        shard_size=6, on_failure="raise")
        with pytest.raises(CheckpointError, match="method"):
            checkpointed_ensemble_sweep(circuit, spec, FREQUENCIES, space,
                                        path=path, samples=12, seed=3,
                                        shard_size=6, method="sparse")

    def test_lu_checkpoint_refused(self, ladder, tmp_path):
        # Earlier releases checkpointed solver="lu" runs, whose rows differ
        # from the LAPACK solver's bits: resuming one must be refused.
        circuit, spec, space, path = self._valid_checkpoint(ladder, tmp_path)
        assert checkpoint_info(str(path))["solver"] == "lapack"
        with np.load(str(path), allow_pickle=False) as archive:
            state = {key: archive[key] for key in archive.files}
        state["solver"] = np.array("lu")
        with open(str(path), "wb") as handle:
            np.savez(handle, **state)
        with pytest.raises(CheckpointError, match="solver"):
            checkpointed_ensemble_sweep(circuit, spec, FREQUENCIES, space,
                                        path=str(path), samples=12, seed=3,
                                        shard_size=6)

    def test_checkpoint_with_retired_stage_resumes(self, ladder, tmp_path):
        # Earlier releases counted a dense "bitexact" stage in every report:
        # such a checkpoint still resumes, keeping the counts it holds.
        circuit, spec, space, path = self._valid_checkpoint(ladder, tmp_path)
        with np.load(str(path), allow_pickle=False) as archive:
            state = {key: archive[key] for key in archive.files}
        report = json.loads(str(state["report_json"]))
        report["stage_counts"]["bitexact"] = 0
        state["report_json"] = np.array(json.dumps(report))
        with open(str(path), "wb") as handle:
            np.savez(handle, **state)
        resumed = checkpointed_ensemble_sweep(
            circuit, spec, FREQUENCIES, space, path=str(path), samples=12,
            seed=3, shard_size=6)
        assert resumed.finished and resumed.resumed_from == 6
        assert resumed.report.stage_counts["bitexact"] == 0
        assert resumed.report.stage_counts["fast"] == 12 * len(FREQUENCIES)

    def test_corrupt_checkpoint_rejected(self, ladder, tmp_path):
        circuit, spec, space = ladder
        path = tmp_path / "run.npz"
        path.write_bytes(b"not a checkpoint")
        with pytest.raises(CheckpointError):
            checkpointed_ensemble_sweep(circuit, spec, FREQUENCIES, space,
                                        path=str(path), samples=12, seed=3)

    def _valid_checkpoint(self, ladder, tmp_path, name="run.npz"):
        circuit, spec, space = ladder
        path = tmp_path / name
        checkpointed_ensemble_sweep(circuit, spec, FREQUENCIES, space,
                                    path=str(path), samples=12, seed=3,
                                    shard_size=6, max_shards=1)
        return circuit, spec, space, path

    def test_truncated_checkpoint_rejected(self, ladder, tmp_path):
        # A torn copy from a foreign filesystem: the zip central directory
        # (written last) is gone.  os.replace atomicity cannot protect a
        # file that was truncated *after* it was written somewhere else.
        circuit, spec, space, path = self._valid_checkpoint(ladder, tmp_path)
        whole = path.read_bytes()
        for keep in (len(whole) // 2, len(whole) - 8):
            path.write_bytes(whole[:keep])
            with pytest.raises(CheckpointError, match="cannot read"):
                checkpoint_info(str(path))
            with pytest.raises(CheckpointError, match="cannot read"):
                checkpointed_ensemble_sweep(circuit, spec, FREQUENCIES,
                                            space, path=str(path),
                                            samples=12, seed=3, shard_size=6)

    def test_wrong_magic_rejected(self, ladder, tmp_path):
        # Right size, wrong bytes at the front: not a zip archive at all.
        circuit, spec, space, path = self._valid_checkpoint(ladder, tmp_path)
        whole = bytearray(path.read_bytes())
        whole[:4] = b"XXXX"
        path.write_bytes(bytes(whole))
        with pytest.raises(CheckpointError, match="cannot read"):
            checkpoint_info(str(path))

    def test_torn_member_rejected(self, ladder, tmp_path):
        # The archive structure survives but a member's compressed payload
        # is corrupted — CRC / decompression failure must surface as
        # CheckpointError, not zlib garbage or silently wrong arrays.
        circuit, spec, space, path = self._valid_checkpoint(ladder, tmp_path)
        whole = bytearray(path.read_bytes())
        # Flip bytes in the middle of the file, inside member payloads but
        # far from the end-of-archive records.
        middle = len(whole) // 2
        for offset in range(middle, middle + 64):
            whole[offset] ^= 0xFF
        path.write_bytes(bytes(whole))
        with pytest.raises(CheckpointError):
            checkpointed_ensemble_sweep(circuit, spec, FREQUENCIES, space,
                                        path=str(path), samples=12, seed=3,
                                        shard_size=6)

    def test_inconsistent_shapes_rejected(self, ladder, tmp_path):
        # A checkpoint whose arrays disagree with its own bookkeeping (a
        # partially-written shard recovered by a foreign tool) must not
        # flow into the resume path.
        from repro.montecarlo import checkpoint as checkpoint_module

        circuit, spec, space, path = self._valid_checkpoint(ladder, tmp_path)
        with np.load(str(path), allow_pickle=False) as archive:
            state = {key: archive[key] for key in archive.files}
        state["responses"] = state["responses"][:-2]
        with open(str(path), "wb") as handle:
            np.savez(handle, **state)
        with pytest.raises(CheckpointError, match="internally inconsistent"):
            checkpoint_module._load_checkpoint(str(path))


class TestSingularCircuitsAllEngines:
    """The same singular circuits raise the same typed error everywhere."""

    CASES = [
        ("floating", build_floating_at_dc, np.array([0.0])),
        ("island", build_isolated_island, np.array([0.0, 1e3])),
    ]

    @pytest.mark.parametrize("name,build,frequencies", CASES,
                             ids=[case[0] for case in CASES])
    def test_dense_engine(self, name, build, frequencies):
        system = build_mna_system(build())
        engine = SweepEngine(system, method="dense")
        with pytest.raises(SingularMatrixError, match="singular"):
            engine.solve_sweep(2j * np.pi * frequencies, system.rhs)

    @pytest.mark.parametrize("name,build,frequencies", CASES,
                             ids=[case[0] for case in CASES])
    def test_sparse_engine(self, name, build, frequencies):
        system = build_mna_system(build())
        engine = SweepEngine(system, method="sparse")
        with pytest.raises(SingularMatrixError, match="singular"):
            engine.solve_sweep(2j * np.pi * frequencies, system.rhs)

    @pytest.mark.parametrize("name,build,frequencies", CASES,
                             ids=[case[0] for case in CASES])
    def test_screening_engine(self, name, build, frequencies):
        with pytest.raises(SingularMatrixError, match="singular"):
            element_sensitivities(build(), "out", frequencies)

    @pytest.mark.parametrize("name,build,frequencies", CASES,
                             ids=[case[0] for case in CASES])
    def test_symbolic_engine(self, name, build, frequencies):
        transfer = symbolic_network_function(
            build(), TransferSpec(inputs=["vin"], output="out"))
        s = complex(2j * np.pi * frequencies[0])
        with pytest.raises(SingularMatrixError, match="singular"):
            transfer.evaluate(s)
        # Historic callers caught ZeroDivisionError; that must keep working.
        with pytest.raises(ZeroDivisionError):
            transfer.evaluate(s)


class TestToleranceValidation:
    """Bad tolerances fail loudly at construction, not deep in sampling."""

    @pytest.mark.parametrize("fraction", [-0.1, 0.0, 1.0, 1.5,
                                          float("nan"), float("inf")])
    def test_invalid_fraction_rejected(self, fraction):
        with pytest.raises(ValidationError):
            Tolerance(fraction)

    def test_validation_error_is_netlist_error(self):
        with pytest.raises(NetlistError):
            Tolerance(-0.2)

    def test_valid_tolerance_accepted(self):
        assert Tolerance(0.05).fraction == 0.05

    def test_invalid_distribution_rejected(self):
        with pytest.raises(NetlistError):
            Tolerance(0.05, distribution="triangular")


class TestRunReport:
    """A run's SweepReport is the one record of its escalations."""

    def test_quarantine_recorded_in_the_run_report_only(self, ua741):
        circuit, spec, space = ua741
        with ensemble_faults({1: "singular"}):
            result = ensemble_sweep(circuit, spec, FREQUENCIES[:3], space,
                                    samples=4, seed=0,
                                    on_failure="quarantine")
        assert result.report.quarantined == [1]
        # One failure per quarantined (sample, frequency) solve.
        assert len(result.report.failures) == 3
        assert result.report.stage_counts["fast"] >= 1
        assert "resilience" not in AnalysisSession().stats()
