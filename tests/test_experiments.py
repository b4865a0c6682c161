"""Tests for the experiment runners and report formatting (reporting package)."""

import pytest

from repro.reporting.experiments import (
    run_cpu_reduction,
    run_fig2,
    run_scaling_ablation,
    run_sdg_experiment,
    run_table1,
    run_table2_table3,
)
from repro.reporting.tables import (
    format_adaptive_iterations,
    format_bode_comparison,
    format_coefficient_table,
    format_table1,
)


@pytest.fixture(scope="module")
def table1_result():
    return run_table1()


@pytest.fixture(scope="module")
def table2_result():
    return run_table2_table3()


@pytest.fixture(scope="module")
def fig2_result():
    return run_fig2(points_per_decade=3)


class TestTable1:
    def test_unscaled_interpolation_fails_scaled_succeeds(self, table1_result):
        assert table1_result.degree_bound == 9
        assert table1_result.unscaled_valid_count() < 4
        assert table1_result.scaled_valid_count() >= 8
        assert (table1_result.scaled_valid_count()
                > table1_result.unscaled_valid_count())

    def test_numerator_shows_same_effect(self, table1_result):
        assert (table1_result.scaled_valid_count("numerator")
                >= table1_result.unscaled_valid_count("numerator"))

    def test_formatting(self, table1_result):
        text = format_table1(table1_result)
        assert "Table 1" in text
        assert "s^i" in text
        assert str(table1_result.degree_bound) in text


class TestTable2And3:
    def test_multiple_shifting_regions(self, table2_result):
        regions = table2_result.region_sequence()
        assert len(regions) >= 3
        starts = [start for start, __ in regions]
        ends = [end for __, end in regions]
        # Regions shift towards higher powers across the forward iterations.
        assert max(ends) > ends[0]
        assert table2_result.covered_all()

    def test_degree_bound_matches_ua741_size(self, table2_result):
        assert table2_result.degree_bound >= 30

    def test_formatting(self, table2_result):
        text = format_adaptive_iterations(table2_result.adaptive)
        assert "valid region" in text
        coefficients = format_coefficient_table(
            table2_result.adaptive.coefficients, max_rows=10)
        assert "s^i" in coefficients
        assert "more rows" in coefficients


class TestFig2:
    def test_interpolated_curve_overlays_simulation(self, fig2_result):
        comparison = fig2_result.comparison
        assert comparison.max_magnitude_error_db < 0.1
        assert comparison.max_phase_error_deg < 1.0
        assert comparison.matches()

    def test_curves_span_the_gain_rolloff(self, fig2_result):
        interpolated, simulated = fig2_result.magnitude_db()
        assert interpolated[0] > 80.0      # ~100 dB open-loop gain at 1 Hz
        assert interpolated[-1] < 0.0      # below unity at 100 MHz
        assert simulated.shape == interpolated.shape

    def test_formatting(self, fig2_result):
        text = format_bode_comparison(fig2_result)
        assert "Fig. 2" in text
        assert "interp" in text


class TestCpuReductionAndAblation:
    def test_reduction_saves_interpolation_points(self):
        result = run_cpu_reduction()
        with_points, without_points = result.total_points()
        assert with_points < without_points
        assert result.per_iteration_decreasing()
        assert 0.0 < result.reduction_ratio() < 1.0
        assert result.with_reduction_points[-1] < result.with_reduction_points[0]

    def test_scaling_ablation_shapes(self):
        result = run_scaling_ablation()
        # Simultaneous scaling keeps individual factors smaller than putting
        # the whole ratio into the frequency factor (Sec. 3.2).
        assert result.simultaneous_max_factor < result.single_factor_max_factor
        assert result.simultaneous.converged
        # The fixed-grid strategy needs more interpolations than the adaptive
        # run and/or fails to cover every coefficient (Sec. 3.1 motivation).
        adaptive_interpolations = result.simultaneous.iteration_count()
        assert (result.fixed_grid_interpolations > adaptive_interpolations
                or result.fixed_grid_covered < result.degree_bound + 1)


class TestSdgExperiment:
    def test_reference_enables_term_pruning(self):
        result = run_sdg_experiment(epsilon=0.05)
        kept, total = result.total_terms()
        assert kept < total
        assert result.compression() > 0.5
