"""Batched-vs-pointwise equivalence of the frequency-sweep engine."""

import math

import numpy as np
import pytest

from repro.analysis.ac import ACAnalysis
from repro.analysis.bode import bode_sweep
from repro.circuits.rc_ladder import build_rc_ladder
from repro.errors import SingularMatrixError
from repro.interpolation.polynomial import Polynomial
from repro.interpolation.rational import RationalFunction
from repro.linalg.dense import batched_dense_lu, dense_lu
from repro.linalg.lu import RefactorSchedule, sparse_lu
from repro.linalg.sparse import SparseMatrix
from repro.mna.builder import build_mna_system
from repro.mna.solve import ac_solve, ac_sweep
from repro.netlist.transform import to_admittance_form
from repro.nodal.sampler import NetworkFunctionSampler
from repro.xfloat import XFloat
from scalar_oracle import oracle_sample, oracle_solve


def _random_grid(rng, count=24):
    """Log-random complex frequency points over 12 decades."""
    magnitudes = 10.0 ** rng.uniform(-2.0, 10.0, count)
    return (2j * math.pi * magnitudes).tolist()


class TestBatchedDenseLU:
    def test_matches_scalar_factorization(self):
        rng = np.random.default_rng(11)
        stack = rng.normal(size=(9, 17, 17)) + 1j * rng.normal(size=(9, 17, 17))
        batched = batched_dense_lu(stack.copy())
        rhs = rng.normal(size=17) + 1j * rng.normal(size=17)
        for index in range(stack.shape[0]):
            scalar = dense_lu(stack[index])
            assert np.array_equal(scalar.lu, batched.lu[index])
            assert np.array_equal(scalar.permutation,
                                  batched.permutations[index])
            member = batched.member(index)
            assert (member.determinant_mantissa_exponent()
                    == scalar.determinant_mantissa_exponent())
            assert np.array_equal(member.solve(rhs), scalar.solve(rhs))

    def test_vectorized_solve(self):
        rng = np.random.default_rng(12)
        stack = rng.normal(size=(6, 13, 13)) + 1j * rng.normal(size=(6, 13, 13))
        batched = batched_dense_lu(stack.copy())
        rhs = rng.normal(size=(6, 13)) + 1j * rng.normal(size=(6, 13))
        solutions = batched.solve(rhs)
        for index in range(6):
            scalar = dense_lu(stack[index])
            expected = scalar.solve(rhs[index])
            assert np.max(np.abs(solutions[index] - expected)) <= (
                1e-12 * np.max(np.abs(expected))
            )

    def test_singular_member_flagged_not_fatal(self):
        rng = np.random.default_rng(13)
        stack = rng.normal(size=(4, 8, 8)) + 1j * rng.normal(size=(4, 8, 8))
        stack[2] = 0.0
        batched = batched_dense_lu(stack.copy())
        assert batched.singular.tolist() == [False, False, True, False]
        healthy = dense_lu(stack[0])
        assert (batched.member(0).determinant_mantissa_exponent()
                == healthy.determinant_mantissa_exponent())


class TestSparseRefactor:
    def _random_sparse(self, rng, n=20, density=0.25):
        dense = np.where(rng.random((n, n)) < density, 1.0, 0.0) * (
            rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        )
        dense += np.diag(rng.normal(size=n) + 4.0)
        return SparseMatrix.from_dense(dense)

    def _refactor(self, matrix, pattern):
        """``matrix`` refactored along ``pattern``'s pivot order, as a
        one-point batch of its compiled schedule."""
        keys = [(row, col) for row, col, __ in matrix.entries()]
        schedule = RefactorSchedule(matrix.n_rows, pattern.pivot_rows,
                                    pattern.pivot_cols, keys)
        values = [[value for __, ___, value in matrix.entries()]]
        return schedule.factor(values, schedule.slots_of(keys))

    def test_refactor_matches_fresh(self):
        rng = np.random.default_rng(21)
        matrix = self._random_sparse(rng)
        pattern = sparse_lu(matrix)
        shifted = matrix.copy()
        for row, col, value in list(matrix.entries()):
            shifted.set(row, col, value * (1.0 + 0.05j))
        refactored = self._refactor(shifted, pattern)
        assert refactored.failed_step.tolist() == [-1]
        fresh = sparse_lu(shifted)
        rhs = rng.normal(size=matrix.n_rows)
        assert np.max(np.abs(refactored.solve(rhs)[0]
                             - fresh.solve(rhs))) < 1e-9
        mantissas, exponents = refactored.determinants_mantissa_exponent()
        f_mantissa, f_exponent = fresh.determinant_mantissa_exponent()
        assert exponents[0] == f_exponent
        assert mantissas[0] == pytest.approx(f_mantissa, rel=1e-9)

    def test_zero_pivot_raises(self):
        rng = np.random.default_rng(22)
        matrix = self._random_sparse(rng, n=6, density=0.0)
        pattern = sparse_lu(matrix)
        degenerate = matrix.copy()
        degenerate.set(pattern.pivot_rows[0], pattern.pivot_cols[0], 0.0)
        # The compiled refactorization flags the zero reused pivot, and the
        # fresh pivot search a flagged point gets refuses the matrix.
        assert self._refactor(degenerate, pattern).failed_step.tolist() == [0]
        with pytest.raises(SingularMatrixError):
            sparse_lu(degenerate)


class TestSampleManyEquivalence:
    @pytest.mark.parametrize("scales", [(1.0, 1.0), (2.5, 1e9), (0.3, 3.7e6)])
    def test_property_random_grids_match_pointwise(self, scales, rc_ladder_3,
                                                   ota_circuit,
                                                   miller_circuit):
        """Batched samples equal the scalar oracle's on random grids and
        scales."""
        conductance_scale, frequency_scale = scales
        rng = np.random.default_rng(int(frequency_scale) % 7919)
        fixtures = [rc_ladder_3[:2], ota_circuit, miller_circuit]
        for circuit, spec in fixtures:
            sampler = NetworkFunctionSampler(to_admittance_form(circuit), spec)
            points = _random_grid(rng)
            pointwise = [oracle_sample(sampler.formulation, point,
                                       conductance_scale, frequency_scale)
                         for point in points]
            batched = sampler.sample_many(points, conductance_scale,
                                          frequency_scale)
            for expected, got in zip(pointwise, batched):
                assert got.numerator == expected.numerator
                assert got.denominator == expected.denominator

    def test_sample_many_preserves_ordering(self, rc_ladder_3):
        circuit, spec = rc_ladder_3[:2]
        sampler = NetworkFunctionSampler(to_admittance_form(circuit), spec)
        rng = np.random.default_rng(5)
        points = _random_grid(rng, count=17)
        rng.shuffle(points)
        samples = sampler.sample_many(points)
        assert [sample.s for sample in samples] == [complex(p) for p in points]

    def test_sample_many_xfloat_exponent_handling(self):
        """Huge scale factors: exponents match the scalar oracle and
        mantissas stay normalized into [1, 10), beyond double range when
        denormalized."""
        circuit, spec = build_rc_ladder(24)
        sampler = NetworkFunctionSampler(to_admittance_form(circuit), spec)
        points = _random_grid(np.random.default_rng(6), count=12)
        pointwise = [oracle_sample(sampler.formulation, point, 1.0, 1e9)
                     for point in points]
        batched = sampler.sample_many(points, 1.0, 1e9)
        for expected, got in zip(pointwise, batched):
            assert got.denominator == expected.denominator
            assert got.numerator == expected.numerator
            for mantissa, __ in (got.numerator, got.denominator):
                if mantissa != 0:
                    # Mantissas stay normalized (up to one rounding ulp at
                    # the decade boundary, matching the scalar oracle).
                    assert 0.999 <= abs(mantissa) < 10.001
        # The sweep reaches magnitudes a plain double cannot represent once
        # combined with the Eq. (11) denormalization — XFloat carries them.
        coefficient = XFloat(abs(batched[0].denominator[0]),
                             batched[0].denominator[1] - 1000)
        assert coefficient.log10() < -308

    def test_sparse_method_matches_pointwise(self, miller_circuit):
        circuit, spec = miller_circuit
        sampler = NetworkFunctionSampler(to_admittance_form(circuit), spec,
                                         method="sparse")
        points = _random_grid(np.random.default_rng(8), count=15)
        pointwise = [oracle_sample(sampler.formulation, point,
                                   method="sparse") for point in points]
        batched = sampler.sample_many(points)
        reference = np.array([sample.transfer() for sample in pointwise])
        values = np.array([sample.transfer() for sample in batched])
        assert np.max(np.abs(values - reference)
                      / np.abs(reference)) <= 1e-9
        assert sampler.engine.factorization_count == 1
        assert sampler.engine.refactorization_count == len(points) - 1

    def test_frequency_response_matches_transfer_value(self, rc_ladder_3):
        circuit, spec = rc_ladder_3[:2]
        sampler = NetworkFunctionSampler(to_admittance_form(circuit), spec)
        frequencies = np.logspace(2, 7, 30)
        response = sampler.frequency_response(frequencies)
        expected = np.array([
            oracle_sample(sampler.formulation, 2j * math.pi * f).transfer()
            for f in frequencies])
        assert np.array_equal(response, expected)
        # Single points are one-point sweeps, bitwise the oracle's too.
        single = np.array([sampler.transfer_value(2j * math.pi * f)
                           for f in frequencies])
        assert np.array_equal(single, expected)

    def test_single_sparse_point_reuses_the_engine_pattern(self,
                                                          miller_circuit):
        circuit, spec = miller_circuit
        sampler = NetworkFunctionSampler(to_admittance_form(circuit), spec,
                                         method="sparse")
        points = _random_grid(np.random.default_rng(14), count=4)
        sampler.sample_many(points[:3])
        sample = sampler.sample(points[3])
        assert (sampler.engine.factorization_count,
                sampler.engine.refactorization_count) == (1, 3)
        expected = oracle_sample(sampler.formulation, points[3],
                                 method="sparse").transfer()
        assert abs(sample.transfer() - expected) <= 1e-9 * abs(expected)


class TestMnaAndAnalysisSweep:
    def test_ac_sweep_matches_ac_solve(self, ua741_circuit):
        circuit, __ = ua741_circuit
        system = build_mna_system(circuit)
        points = _random_grid(np.random.default_rng(9), count=10)
        swept = ac_sweep(system, points)
        for index, point in enumerate(points):
            expected = oracle_solve(system, point)
            for solution in (swept[index], ac_solve(system, point)):
                assert np.max(np.abs(solution - expected)) <= (
                    1e-9 * np.max(np.abs(expected))
                )

    def test_ac_sweep_sparse_matches_dense(self, ua741_circuit):
        circuit, __ = ua741_circuit
        system = build_mna_system(circuit)
        points = _random_grid(np.random.default_rng(10), count=6)
        dense = ac_sweep(system, points, method="dense")
        sparse = ac_sweep(system, points, method="sparse")
        scale = np.max(np.abs(dense))
        assert np.max(np.abs(dense - sparse)) <= 1e-9 * scale

    def test_analysis_frequency_response_matches_value_at(self, ua741_circuit):
        circuit, spec = ua741_circuit
        analysis = ACAnalysis(circuit, spec)
        frequencies = np.logspace(0, 8, 25)
        swept = analysis.frequency_response(frequencies)
        pointwise = np.array([analysis.value_at(2j * math.pi * f)
                              for f in frequencies])
        system = analysis.system
        solutions = np.array([oracle_solve(system, 2j * math.pi * f)
                              for f in frequencies])
        positive, negative = spec.output_nodes()
        expected = system.node_voltages(solutions, positive)
        if negative is not None:
            expected = expected - system.node_voltages(solutions, negative)
        for values in (swept, pointwise):
            assert np.max(np.abs(values - expected)
                          / np.abs(expected)) <= 1e-9
        assert analysis.factorization_count == 50

    def test_bode_sweep_matches_bode(self, ua741_circuit):
        circuit, spec = ua741_circuit
        frequencies = np.logspace(0, 8, 17)
        data = bode_sweep(circuit, spec, frequencies)
        magnitude, phase = ACAnalysis(circuit, spec).bode(frequencies)
        assert np.allclose(data.magnitude_db, magnitude, rtol=1e-9)
        assert np.allclose(data.phase_deg, phase, rtol=1e-9)


class TestVectorizedEvaluation:
    def _polynomials(self):
        rng = np.random.default_rng(31)
        numerator = Polynomial([
            XFloat(rng.normal(), int(exponent))
            for exponent in rng.integers(-150, 150, 12)
        ])
        denominator = Polynomial([
            XFloat(rng.normal(), int(exponent))
            for exponent in rng.integers(-120, 180, 15)
        ])
        return numerator, denominator

    def test_polynomial_evaluate_many_matches_scalar(self):
        polynomial, __ = self._polynomials()
        rng = np.random.default_rng(32)
        s_values = np.asarray(_random_grid(rng, count=40))
        s_values[3] = 0.0
        mantissas, exponents = polynomial.evaluate_many(s_values)
        for index, s in enumerate(s_values):
            mantissa, exponent = polynomial.evaluate(s)
            value = mantissas[index] * 10.0 ** float(exponents[index]
                                                     - exponent)
            assert value == pytest.approx(mantissa, rel=1e-9, abs=1e-300)

    def test_rational_frequency_response_matches_scalar(self):
        numerator, denominator = self._polynomials()
        rational = RationalFunction(numerator, denominator)
        frequencies = np.logspace(-1, 9, 60)
        batched = rational.frequency_response(frequencies)
        pointwise = np.array([rational.evaluate(2j * math.pi * f)
                              for f in frequencies])
        assert np.max(np.abs(batched - pointwise)
                      / np.maximum(np.abs(pointwise), 1e-300)) <= 1e-9
