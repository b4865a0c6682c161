"""Tests for the Monte Carlo / tolerance-analysis subsystem (PR 5)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.montecarlo import (
    YieldSpec,
    corner_analysis,
    monte_carlo_analysis,
    yield_analysis,
)
from repro.engine.session import AnalysisSession
from repro.errors import FormulationError, NetlistError, SingularMatrixError
from repro.linalg.dense import batched_dense_lu, batched_solve
from repro.mna.builder import build_mna_system
from repro.montecarlo import (
    ParameterSpace,
    Tolerance,
    ValueProgram,
    ensemble_sweep,
    rebuild_sweep,
)
from repro.netlist.circuit import Circuit
from repro.netlist.elements import Resistor
from repro.nodal.reduce import TransferSpec


@pytest.fixture
def toleranced_rc():
    """Two-pole RC with ±10 % tolerances on every passive."""
    circuit = Circuit("rc2")
    circuit.add_voltage_source("vin", "in", "0", 1.0)
    circuit.add_resistor("R1", "in", "mid", 1e3)
    circuit.add_capacitor("C1", "mid", "0", 1e-9)
    circuit.add_resistor("R2", "mid", "out", 2.2e3)
    circuit.add_capacitor("C2", "out", "0", 470e-12)
    for name in ("R1", "C1", "R2", "C2"):
        circuit.replace(circuit[name].with_tolerance(0.1))
    return circuit, TransferSpec(inputs=["vin"], output="out")


FREQUENCIES = np.logspace(1, 7, 13)


class TestTolerance:
    def test_metadata_on_elements(self):
        resistor = Resistor("R1", "a", "0", 1e3).with_tolerance(0.05)
        assert resistor.tolerance == Tolerance(0.05, "gaussian")
        assert resistor.with_tolerance(None).tolerance is None
        uniform = resistor.with_tolerance(Tolerance(0.01, "uniform"))
        assert uniform.tolerance.distribution == "uniform"

    def test_invalid_tolerances_rejected(self):
        with pytest.raises(NetlistError):
            Tolerance(0.0)
        with pytest.raises(NetlistError):
            Tolerance(1.5)
        with pytest.raises(NetlistError):
            Tolerance(0.1, "triangular")

    def test_tolerance_changes_fingerprint(self, toleranced_rc):
        circuit, __ = toleranced_rc
        stripped = circuit.copy()
        stripped.replace(stripped["R1"].with_tolerance(None))
        assert (AnalysisSession.fingerprint(circuit)
                != AnalysisSession.fingerprint(stripped))

    def test_value_scaling_preserves_tolerance(self, toleranced_rc):
        circuit, __ = toleranced_rc
        scaled = circuit.with_value_scaled("R1", 2.0)
        assert scaled["R1"].value == 2e3
        assert scaled["R1"].tolerance == Tolerance(0.1)


class TestParameterSpace:
    def test_axes_from_element_metadata(self, toleranced_rc):
        circuit, __ = toleranced_rc
        space = ParameterSpace(circuit)
        assert space.names == ["R1", "C1", "R2", "C2"]
        assert len(space) == 4
        np.testing.assert_allclose(space.nominal_values,
                                   [1e3, 1e-9, 2.2e3, 470e-12])

    def test_explicit_tolerances_override(self, toleranced_rc):
        circuit, __ = toleranced_rc
        space = ParameterSpace(circuit, {"R1": 0.01})
        fractions = {axis.name: axis.tolerance.fraction
                     for axis in space.axes}
        assert fractions["R1"] == 0.01
        assert fractions["C1"] == 0.1

    def test_empty_and_invalid_spaces_rejected(self, simple_rc):
        circuit, __ = simple_rc
        with pytest.raises(NetlistError, match="empty"):
            ParameterSpace(circuit)
        with pytest.raises(NetlistError, match="unknown element"):
            ParameterSpace(circuit, {"Rnone": 0.1})
        with pytest.raises(NetlistError, match="cannot carry"):
            ParameterSpace(circuit, {"vin": 0.1})

    def test_sampling_deterministic_per_seed(self, toleranced_rc):
        circuit, __ = toleranced_rc
        space = ParameterSpace(circuit)
        first = space.sample_values(16, seed=7)
        second = space.sample_values(16, seed=7)
        other = space.sample_values(16, seed=8)
        assert np.array_equal(first, second)
        assert not np.array_equal(first, other)
        assert first.shape == (16, 4)
        assert (first > 0).all()

    def test_distributions(self, toleranced_rc):
        circuit, __ = toleranced_rc
        space = ParameterSpace(circuit, {
            "R1": Tolerance(0.1, "uniform"),
            "C1": Tolerance(0.1, "corner"),
        })
        multipliers = space.sample_multipliers(500, seed=1)
        uniform = multipliers[:, space.names.index("R1")]
        corner = multipliers[:, space.names.index("C1")]
        assert uniform.min() >= 0.9 and uniform.max() <= 1.1
        assert set(np.round(corner, 12)) == {0.9, 1.1}

    def test_corner_values_full_factorial(self, toleranced_rc):
        circuit, __ = toleranced_rc
        space = ParameterSpace(circuit)
        corners = space.corner_multipliers()
        assert corners.shape == (16, 4)          # 2^4 factorial
        assert {round(m, 12) for m in corners.ravel()} == {0.9, 1.1}

    def test_corner_values_large_space_falls_back(self):
        circuit = Circuit("ladder")
        circuit.add_voltage_source("vin", "in", "0", 1.0)
        previous = "in"
        for index in range(14):
            node = f"n{index}"
            circuit.add_resistor(f"R{index}", previous, node, 1e3)
            circuit.replace(circuit[f"R{index}"].with_tolerance(0.05))
            previous = node
        space = ParameterSpace(circuit)
        corners = space.corner_multipliers()
        assert corners.shape == (2 * 14 + 2, 14)  # extremes + one-at-a-time

    @pytest.mark.parametrize("method", ["sobol", "lhs"])
    def test_qmc_same_seeded_determinism_contract(self, toleranced_rc,
                                                  method):
        circuit, __ = toleranced_rc
        space = ParameterSpace(circuit)
        first = space.sample_values(64, seed=7, method=method)
        second = space.sample_values(64, seed=7, method=method)
        other = space.sample_values(64, seed=8, method=method)
        assert np.array_equal(first, second)
        assert not np.array_equal(first, other)
        assert first.shape == (64, 4)
        assert (first > 0).all()
        # Band coverage: multipliers live inside the 3-sigma/flat band.
        multipliers = first / space.nominal_values[None, :]
        assert multipliers.min() > 0.5 and multipliers.max() < 1.5

    @pytest.mark.parametrize("method", ["sobol", "lhs"])
    def test_qmc_dimension_prefix_consistent(self, toleranced_rc, method):
        # Adding tolerance axes must not change the draws of the axes that
        # were already there (each dimension derives randomization from its
        # own [seed, dimension] child stream).
        circuit = Circuit("bare-rc2")
        circuit.add_voltage_source("vin", "in", "0", 1.0)
        circuit.add_resistor("R1", "in", "mid", 1e3)
        circuit.add_capacitor("C1", "mid", "0", 1e-9)
        circuit.add_resistor("R2", "mid", "out", 2.2e3)
        circuit.add_capacitor("C2", "out", "0", 470e-12)
        narrow = ParameterSpace(circuit, {"R1": 0.1, "C1": 0.1})
        wide = ParameterSpace(circuit, {"R1": 0.1, "C1": 0.1,
                                        "R2": 0.1, "C2": 0.1})
        assert wide.names[:2] == narrow.names
        narrow_draw = narrow.sample_multipliers(32, seed=5, method=method)
        wide_draw = wide.sample_multipliers(32, seed=5, method=method)
        assert np.array_equal(wide_draw[:, :2], narrow_draw)

    def test_sobol_count_prefix_consistent(self, toleranced_rc):
        circuit, __ = toleranced_rc
        space = ParameterSpace(circuit)
        short = space.sample_multipliers(32, seed=5, method="sobol")
        long = space.sample_multipliers(128, seed=5, method="sobol")
        assert np.array_equal(long[:32], short)

    def test_qmc_stratification_beats_random(self, toleranced_rc):
        # The point of QMC: one-dimensional projections cover the band
        # evenly.  With 64 LHS samples every one of 64 strata is hit exactly
        # once; Sobol at a power of two does the same.
        circuit, __ = toleranced_rc
        space = ParameterSpace(circuit, {"R1": Tolerance(0.1, "uniform")})
        for method in ("sobol", "lhs"):
            multipliers = space.sample_multipliers(64, seed=2, method=method)
            u = (multipliers[:, 0] - 0.9) / 0.2   # back to [0, 1)
            counts = np.bincount(np.clip((u * 64).astype(int), 0, 63),
                                 minlength=64)
            assert counts.max() == 1, method

    def test_qmc_rejects_unknown_method_and_oversized_sobol(self,
                                                            toleranced_rc):
        from repro.montecarlo.qmc import SOBOL_MAX_DIMS

        circuit, __ = toleranced_rc
        space = ParameterSpace(circuit)
        with pytest.raises(NetlistError, match="unknown sampling method"):
            space.sample_multipliers(8, seed=0, method="halton")
        circuit = Circuit("wide")
        circuit.add_voltage_source("vin", "in", "0", 1.0)
        previous = "in"
        for index in range(SOBOL_MAX_DIMS + 1):
            node = f"n{index}"
            circuit.add_resistor(f"R{index}", previous, node, 1e3)
            circuit.replace(circuit[f"R{index}"].with_tolerance(0.05))
            previous = node
        wide = ParameterSpace(circuit)
        with pytest.raises(NetlistError, match="sobol sampling supports"):
            wide.sample_multipliers(8, seed=0, method="sobol")
        # LHS has no dimension cap.
        assert wide.sample_multipliers(8, seed=0, method="lhs").shape == (
            8, SOBOL_MAX_DIMS + 1)

    def test_qmc_ensemble_end_to_end(self, toleranced_rc):
        # QMC values flow through the vectorized engine exactly like random
        # ones: pass them via values=, bit-identical to the rebuild path.
        circuit, spec = toleranced_rc
        space = ParameterSpace(circuit)
        values = space.sample_values(8, seed=4, method="sobol")
        vectorized = ensemble_sweep(circuit, spec, FREQUENCIES, space,
                                    values=values)
        rebuilt = rebuild_sweep(circuit, spec, FREQUENCIES, space,
                                values=values, solver="lapack")
        assert np.array_equal(vectorized.responses, rebuilt.responses)

    def test_apply_rebuilds_values(self, toleranced_rc):
        circuit, __ = toleranced_rc
        space = ParameterSpace(circuit)
        values = space.sample_values(1, seed=3)[0]
        perturbed = space.apply(values)
        for name, value in zip(space.names, values):
            element = perturbed[name]
            assert element.value == value
        with pytest.raises(NetlistError):
            space.apply(values[:2])


class TestValueProgram:
    def test_dense_parts_bit_identical_to_rebuild(self, toleranced_rc):
        circuit, __ = toleranced_rc
        space = ParameterSpace(circuit)
        program = ValueProgram.from_circuit(circuit, space)
        values = space.sample_values(5, seed=11)
        constant_stack, dynamic_stack = program.dense_parts(values)
        for sample in range(5):
            rebuilt = build_mna_system(space.apply(values[sample]))
            constant, dynamic = rebuilt.dense_parts()
            assert np.array_equal(constant_stack[sample], constant), sample
            assert np.array_equal(dynamic_stack[sample], dynamic), sample

    def test_rhs_matches_builder(self, toleranced_rc):
        circuit, __ = toleranced_rc
        space = ParameterSpace(circuit)
        program = ValueProgram.from_circuit(circuit, space)
        assert np.array_equal(program.rhs, build_mna_system(circuit).rhs)

    def test_shape_validation(self, toleranced_rc):
        circuit, __ = toleranced_rc
        program = ValueProgram.from_circuit(circuit,
                                            ParameterSpace(circuit))
        with pytest.raises(FormulationError):
            program.axis_parameters(np.ones((3, 2)))


class TestEnsembleSweep:
    def test_lapack_arm_batch_invariant(self, toleranced_rc):
        circuit, spec = toleranced_rc
        vectorized = ensemble_sweep(circuit, spec, FREQUENCIES, samples=9,
                                    seed=5)
        one_at_a_time = rebuild_sweep(circuit, spec, FREQUENCIES,
                                      values=vectorized.values,
                                      solver="lapack")
        assert np.array_equal(vectorized.responses, one_at_a_time.responses)

    def test_workers_do_not_change_bits(self, toleranced_rc):
        circuit, spec = toleranced_rc
        single = ensemble_sweep(circuit, spec, FREQUENCIES, samples=9,
                                seed=5, workers=1)
        threaded = ensemble_sweep(circuit, spec, FREQUENCIES, samples=9,
                                  seed=5, workers=4)
        assert np.array_equal(single.responses, threaded.responses)

    def test_sparse_fallback_close_to_rebuild(self, toleranced_rc):
        circuit, spec = toleranced_rc
        vectorized = ensemble_sweep(circuit, spec, FREQUENCIES, samples=4,
                                    seed=5, method="sparse")
        assert vectorized.solver == "sparse"
        reference = rebuild_sweep(circuit, spec, FREQUENCIES,
                                  values=vectorized.values)
        scale = np.maximum(np.abs(reference.responses),
                           np.finfo(float).tiny)
        deviation = np.max(np.abs(vectorized.responses
                                  - reference.responses) / scale)
        assert deviation <= 1e-9

    def test_explicit_values_and_validation(self, toleranced_rc):
        circuit, spec = toleranced_rc
        space = ParameterSpace(circuit)
        values = space.corner_values()
        result = ensemble_sweep(circuit, spec, FREQUENCIES, space,
                                values=values)
        assert result.responses.shape == (16, len(FREQUENCIES))
        with pytest.raises(FormulationError):
            ensemble_sweep(circuit, spec, FREQUENCIES, space,
                           values=values[:, :2])

    @pytest.mark.parametrize("shape", [(3,), (2, 4)])
    def test_rebuild_validates_values_like_the_engine(self, toleranced_rc,
                                                      shape):
        # Both entry points reject a mis-shaped value matrix with the same
        # FormulationError, before any sample is rebuilt.
        circuit, spec = toleranced_rc
        circuit = circuit.copy()
        circuit.replace(circuit["C2"].with_tolerance(None))
        space = ParameterSpace(circuit)
        assert len(space) == 3
        values = np.ones(shape)
        for sweep in (ensemble_sweep, rebuild_sweep):
            with pytest.raises(FormulationError, match="values must be"):
                sweep(circuit, spec, FREQUENCIES, space, values=values)

    def test_singular_member_raises(self):
        # An RC divider whose only path to the output opens when R2's
        # conductance collapses: force a value that shorts nothing but
        # makes the matrix singular is hard to construct linearly, so use
        # a current source into a node whose only ground path is the
        # toleranced resistor driven to an extreme is still regular; the
        # reliable singular case is a zero-valued conductance sample.
        circuit = Circuit("sing")
        circuit.add_current_source("iin", "0", "n1", 1.0)
        circuit.add_conductor("Gload", "n1", "0", 1e-3)
        circuit.replace(circuit["Gload"].with_tolerance(0.5))
        space = ParameterSpace(circuit)
        values = np.array([[0.0]])
        with pytest.raises(SingularMatrixError):
            ensemble_sweep(circuit, "n1", np.array([0.0]), space,
                           values=values)


class TestBatchedSolve:
    def test_matches_lu_solver(self):
        rng = np.random.default_rng(0)
        stack = rng.standard_normal((6, 9, 9)) + 1j * rng.standard_normal(
            (6, 9, 9))
        rhs = rng.standard_normal(9) + 1j * rng.standard_normal(9)
        fast = batched_solve(stack, rhs)
        reference = batched_dense_lu(stack.copy()).solve(rhs)
        np.testing.assert_allclose(fast, reference, rtol=1e-10)

    def test_batch_invariance(self):
        rng = np.random.default_rng(1)
        stack = rng.standard_normal((8, 7, 7)) + 1j * rng.standard_normal(
            (8, 7, 7))
        rhs = rng.standard_normal((8, 7)) + 1j * rng.standard_normal((8, 7))
        together = batched_solve(stack, rhs)
        alone = np.array([batched_solve(stack[k:k + 1], rhs[k:k + 1])[0]
                          for k in range(8)])
        assert np.array_equal(together, alone)

    def test_singular_raises_with_index(self):
        stack = np.stack([np.eye(3, dtype=complex),
                          np.zeros((3, 3), dtype=complex)])
        with pytest.raises(SingularMatrixError, match="matrix 1"):
            batched_solve(stack, np.ones(3))

    def test_shape_validation(self):
        from repro.errors import LinAlgError
        with pytest.raises(LinAlgError):
            batched_solve(np.zeros((2, 3, 4)), np.ones(3))
        with pytest.raises(LinAlgError):
            batched_solve(np.zeros((2, 3, 3), dtype=complex), np.ones(4))


class TestAnalysisLayer:
    def test_monte_carlo_envelope_brackets_nominal(self, toleranced_rc):
        circuit, spec = toleranced_rc
        result = monte_carlo_analysis(circuit, spec, FREQUENCIES,
                                      samples=64, seed=9)
        envelope = result.envelope()
        nominal_db = 20.0 * np.log10(np.abs(result.nominal_response))
        assert (envelope.minimum_db <= nominal_db + 1e-9).all()
        assert (envelope.maximum_db >= nominal_db - 1e-9).all()
        assert (envelope.width_db() >= 0).all()
        assert (envelope.percentile_low_db
                <= envelope.percentile_high_db).all()

    def test_variance_attribution_cross_check(self, toleranced_rc):
        circuit, spec = toleranced_rc
        result = monte_carlo_analysis(circuit, spec, FREQUENCIES,
                                      samples=256, seed=2)
        entries = result.attribution()
        assert {entry.name for entry in entries} == {"R1", "C1", "R2", "C2"}
        shares = np.array([entry.share for entry in entries])
        predicted = np.array([entry.predicted_share for entry in entries])
        # The regression model explains a near-linear circuit almost fully,
        # and the rank-1 first-order prediction agrees on the shares.
        assert shares.sum() == pytest.approx(1.0, abs=0.15)
        assert entries == sorted(entries, key=lambda e: e.share,
                                 reverse=True)
        np.testing.assert_allclose(predicted, shares, atol=0.1)

    def test_corner_analysis_brackets_ensemble(self, toleranced_rc):
        circuit, spec = toleranced_rc
        corners = corner_analysis(circuit, spec, FREQUENCIES)
        assert corners.values.shape[0] == 16
        assert (corners.worst_low_db <= corners.worst_high_db).all()

    def test_yield_analysis(self, toleranced_rc):
        circuit, spec = toleranced_rc
        result = monte_carlo_analysis(circuit, spec, FREQUENCIES,
                                      samples=32, seed=1)
        passing = YieldSpec(name="dc", minimum_gain_db=-3.0,
                            at_frequency=10.0)
        failing = YieldSpec(name="impossible", minimum_gain_db=60.0,
                            at_frequency=10.0)
        report = yield_analysis(result, [passing, failing])
        assert report.total == 32
        assert report.per_spec["dc"] == 32
        assert report.per_spec["impossible"] == 0
        assert report.passed == 0 and report.fraction == 0.0
        alone = result.yield_against(passing)
        assert alone.fraction == 1.0
        with pytest.raises(ValueError, match="at_frequency"):
            yield_analysis(result, YieldSpec(minimum_gain_db=0.0))

    def test_session_memoizes_whole_result(self, toleranced_rc):
        """A session feeds the nominal sweep and changes no result bit."""
        circuit, spec = toleranced_rc
        session = AnalysisSession()
        space = ParameterSpace(circuit)
        first = monte_carlo_analysis(circuit, spec, FREQUENCIES, space,
                                     samples=16, seed=3, session=session)
        hits_before, misses_before = session.hits, session.misses
        second = monte_carlo_analysis(circuit, spec, FREQUENCIES, space,
                                      samples=16, seed=3, session=session)
        # The nominal sweep's factors came back from the session's cache.
        assert session.hits > hits_before
        assert session.misses == misses_before
        sessionless = monte_carlo_analysis(circuit, spec, FREQUENCIES,
                                           space, samples=16, seed=3)
        for run in (second, sessionless):
            assert np.array_equal(run.responses, first.responses)
            assert np.array_equal(run.nominal_response,
                                  first.nominal_response)
        assert session.invalidate(circuit) > 0
