"""Error-path coverage for the parser and the experiment runners (PR 5).

The two thinnest-covered surfaces before this PR: malformed netlist input
(duplicate names, dangling nodes, zero-value edge cases) and the failure /
degenerate branches of :mod:`repro.reporting.experiments`.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ParseError, ValidationError
from repro.netlist.parser import parse_netlist
from repro.netlist.validate import validate_circuit
from repro.reporting import experiments
from repro.reporting.experiments import (
    BatchSweepResult,
    MonteCarloEnsembleResult,
    SensitivityScreeningResult,
    ua741_tolerance_space,
)


class TestParserMalformedInput:
    def test_duplicate_element_names(self):
        with pytest.raises(ParseError, match="duplicate element name"):
            parse_netlist("R1 a 0 1k\nR1 b 0 2k\n")
        # Element names are case-insensitive, like SPICE.
        with pytest.raises(ParseError, match="duplicate element name"):
            parse_netlist("R1 a 0 1k\nr1 b 0 2k\n")

    def test_both_terminals_on_one_node(self):
        with pytest.raises(ParseError, match="both terminals"):
            parse_netlist("R1 a a 1k\n")

    def test_zero_and_negative_values(self):
        with pytest.raises(ParseError, match="non-positive resistance"):
            parse_netlist("R1 a 0 0\n")
        with pytest.raises(ParseError, match="non-positive resistance"):
            parse_netlist("R1 a 0 -1k\n")
        with pytest.raises(ParseError, match="negative capacitance"):
            parse_netlist("C1 a 0 -1p\n")
        with pytest.raises(ParseError, match="non-positive inductance"):
            parse_netlist("L1 a 0 0\n")
        # Zero-valued conductors and sources are legal (gds = 0, AC-off
        # source) and must parse cleanly.
        circuit = parse_netlist("V1 a 0 0\nR1 a 0 1k\n")
        assert circuit["V1"].value == 0.0

    def test_error_carries_line_number(self):
        with pytest.raises(ParseError) as excinfo:
            parse_netlist("* title\nR1 a 0 1k\nR2 b b 1k\n")
        assert excinfo.value.line_number == 3
        assert "line 3" in str(excinfo.value)

    def test_model_card_needs_name_and_type(self):
        with pytest.raises(ParseError, match=r"\.model needs"):
            parse_netlist(".model onlyname\n")
        with pytest.raises(ParseError, match=r"\.subckt needs"):
            parse_netlist(".subckt\n.ends\n")

    def test_dangling_node_reported_by_validation(self):
        circuit = parse_netlist("V1 in 0 ac 1\nR1 in out 1k\nR2 out 0 1k\n"
                                "C1 lonely 0 1p\n")
        report = validate_circuit(circuit, raise_on_error=False)
        assert not report.ok or report.warnings
        joined = " ".join(report.errors + report.warnings)
        assert "lonely" in joined

    def test_ignored_dot_cards_are_collected_not_fatal(self):
        circuit = parse_netlist(".options reltol=1e-4\nR1 a 0 1k\n.end\n")
        assert "R1" in circuit


class TestSamplingValidation:
    """ISSUE 10 satellite: malformed sampling requests fail with a typed
    :class:`~repro.errors.ValidationError`, never a silent empty draw or a
    bare numpy exception."""

    @pytest.fixture(scope="class")
    def space(self):
        from repro.circuits.rc_ladder import build_rc_ladder
        from repro.montecarlo import ParameterSpace

        circuit, __ = build_rc_ladder(3)
        names = [element.name for element in circuit
                 if type(element).__name__ in ("Resistor", "Capacitor")][:2]
        return ParameterSpace(circuit, {name: 0.1 for name in names})

    def test_unknown_method_is_rejected(self, space):
        with pytest.raises(ValidationError,
                           match="unknown sampling method 'halton'"):
            space.sample_values(8, method="halton")

    def test_out_of_range_counts_are_rejected(self, space):
        for bad in (0, -4):
            with pytest.raises(ValidationError, match="must be positive"):
                space.sample_values(bad)
        with pytest.raises(ValidationError, match="must be an integer"):
            space.sample_values(2.5)
        with pytest.raises(ValidationError, match="must be an integer"):
            space.sample_multipliers("many")

    def test_validation_error_is_a_netlist_error(self):
        from repro.errors import NetlistError

        assert issubclass(ValidationError, NetlistError)

    def test_qmc_generators_validate_directly(self):
        from repro.montecarlo.qmc import (SOBOL_MAX_DIMS,
                                          latin_hypercube_uniforms,
                                          sobol_uniforms)

        with pytest.raises(ValidationError, match="count must be positive"):
            sobol_uniforms(0, 2)
        with pytest.raises(ValidationError, match="dimension count"):
            sobol_uniforms(4, 0)
        with pytest.raises(ValidationError, match="sobol sampling supports"):
            sobol_uniforms(4, SOBOL_MAX_DIMS + 1)
        with pytest.raises(ValidationError, match="count must be positive"):
            latin_hypercube_uniforms(-1, 2)

    def test_importance_sample_validation(self, space):
        with pytest.raises(ValidationError, match="must be positive"):
            space.importance_sample(0)
        with pytest.raises(ValidationError, match="scale"):
            space.importance_sample(8, scale=0.0)
        with pytest.raises(ValidationError, match="mixture"):
            space.importance_sample(8, mixture=1.0)
        with pytest.raises(ValidationError, match="unknown axis"):
            space.importance_sample(8, shift={"nonexistent": 1.0})


class TestEnsembleMethodValidation:
    """A misspelled ``method`` fails in every ensemble driver instead of
    quietly running the dense path."""

    def test_unknown_method_is_rejected_by_every_driver(self, tmp_path):
        from repro.circuits.rc_ladder import build_rc_ladder
        from repro.errors import FormulationError
        from repro.montecarlo import (ParameterSpace,
                                      checkpointed_ensemble_sweep,
                                      ensemble_sweep, parallel_ensemble_sweep,
                                      rebuild_sweep)

        circuit, spec = build_rc_ladder(3)
        names = [element.name for element in circuit
                 if type(element).__name__ in ("Resistor", "Capacitor")][:2]
        space = ParameterSpace(circuit, {name: 0.1 for name in names})
        frequencies = np.logspace(1, 5, 3)
        unknown = "unknown factorization method 'sparce'"
        with pytest.raises(FormulationError, match=unknown):
            ensemble_sweep(circuit, spec, frequencies, space, samples=4,
                           method="sparce")
        with pytest.raises(FormulationError, match=unknown):
            parallel_ensemble_sweep(circuit, spec, frequencies, space,
                                    samples=4, workers=1, method="sparce")
        path = tmp_path / "run.npz"
        with pytest.raises(FormulationError, match=unknown):
            checkpointed_ensemble_sweep(circuit, spec, frequencies, space,
                                        path=str(path), samples=4,
                                        method="sparce")
        # Nothing was checkpointed under the misspelled method.
        assert not path.exists()
        for solver in ("lu", "lapack"):
            with pytest.raises(FormulationError, match=unknown):
                rebuild_sweep(circuit, spec, frequencies, space, samples=2,
                              solver=solver, method="sparce")


class TestExperimentErrorPaths:
    def test_zero_time_speedups_are_infinite(self):
        batch = BatchSweepResult(
            circuit_name="x", dimension=3, num_points=2,
            pointwise_seconds=1.0, batched_seconds=0.0,
            max_relative_deviation=0.0, bitwise_identical=True)
        assert batch.speedup == float("inf")
        screening = SensitivityScreeningResult(
            circuit_name="x", dimension=3, num_elements=2,
            num_frequencies=2, rank1_seconds=0.0, rebuild_seconds=1.0,
            max_relative_deviation=0.0, ranking_identical=True,
            singular_sets_identical=True)
        assert screening.speedup == float("inf")
        ensemble = MonteCarloEnsembleResult(
            circuit_name="x", dimension=3, num_samples=4,
            num_frequencies=2, num_axes=1, rebuild_seconds=1.0,
            vectorized_seconds=0.0, lapack_relative_deviation=0.0,
            batch_invariant=True)
        assert ensemble.speedup == float("inf")
        assert "batch-invariant ok" in ensemble.describe()

    def test_screening_deviation_flags_none_mismatch(self):
        from repro.analysis.sensitivity import ElementScreening, ScreeningResult

        frequencies = np.array([1.0, 10.0])
        baseline = np.ones(2, dtype=complex)

        def result(response):
            return ScreeningResult(
                frequencies=frequencies, baseline=baseline,
                screenings=[ElementScreening("R1", response, response)],
                perturbation=0.01, method="rank1")

        mismatch = experiments._screening_deviation(
            result(None), result(baseline.copy()))
        assert mismatch == float("inf")
        agree = experiments._screening_deviation(result(None), result(None))
        assert agree == 0.0

    def test_workload_deviation_flags_ranking_mismatch(self):
        cold = {"ranking": ["a", "b"], "curve": np.ones(3)}
        warm_ok = {"ranking": ["a", "b"], "curve": np.ones(3)}
        warm_bad = {"ranking": ["b", "a"], "curve": np.ones(3)}
        assert experiments._workload_deviation(cold, warm_ok) == 0.0
        assert experiments._workload_deviation(cold, warm_bad) == float("inf")

    def test_ua741_tolerance_space_covers_the_passives(self):
        circuit, spec, space = ua741_tolerance_space(0.05)
        assert len(space) == 12
        assert set(space.names) == {"R1", "R2", "R3", "R4", "R5", "R6", "R7",
                                    "R8", "R9", "RL", "Cc", "CL"}
        assert all(axis.tolerance.fraction == 0.05 for axis in space.axes)

    def test_montecarlo_runner_reduced_shape(self):
        result = experiments.run_montecarlo_ensemble(
            num_samples=6, num_points=5, repeats=1)[0]
        assert result.num_samples == 6 and result.num_frequencies == 5
        assert result.batch_invariant
        assert result.lapack_relative_deviation <= 1e-9
        assert "ua741" in result.describe()
