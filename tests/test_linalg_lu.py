"""Tests for the sparse and dense LU factorizations."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import LinAlgError, SingularMatrixError
from repro.interpolation.polynomial import Polynomial
from repro.linalg.dense import dense_lu
from repro.linalg.det import determinant, log10_determinant, solve_linear_system
from repro.linalg.lu import sparse_lu
from repro.linalg.sparse import SparseMatrix
from repro.xfloat import XFloat, decimal_complex


def random_complex_matrix(rng, n, density=1.0):
    real = rng.standard_normal((n, n))
    imag = rng.standard_normal((n, n))
    matrix = real + 1j * imag
    if density < 1.0:
        mask = rng.random((n, n)) < density
        np.fill_diagonal(mask, True)
        matrix = matrix * mask
    return matrix


class TestDenseLU:
    def test_solve_matches_numpy(self):
        rng = np.random.default_rng(42)
        for n in (1, 2, 5, 12):
            dense = random_complex_matrix(rng, n)
            rhs = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            factorization = dense_lu(dense)
            np.testing.assert_allclose(factorization.solve(rhs),
                                       np.linalg.solve(dense, rhs),
                                       rtol=1e-9, atol=1e-12)

    def test_determinant_matches_numpy(self):
        rng = np.random.default_rng(7)
        for n in (2, 4, 8):
            dense = random_complex_matrix(rng, n)
            mantissa, exponent = dense_lu(dense).determinant_mantissa_exponent()
            expected = np.linalg.det(dense)
            assert mantissa * 10.0**exponent == pytest.approx(expected, rel=1e-9)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_determinant_exponent_tracking_beyond_double_range(self):
        n = 40
        dense = np.diag(np.full(n, 1e12))
        factorization = dense_lu(dense)
        log_det = factorization.log10_determinant_magnitude()
        assert log_det == pytest.approx(12 * n)
        # Plain determinant would overflow:
        assert math.isinf(factorization.determinant().real)

    def test_singular_matrix(self):
        with pytest.raises(SingularMatrixError):
            dense_lu(np.zeros((3, 3)))

    def test_non_square(self):
        with pytest.raises(LinAlgError):
            dense_lu(np.ones((2, 3)))

    def test_solve_many(self):
        rng = np.random.default_rng(3)
        dense = random_complex_matrix(rng, 4)
        rhs = random_complex_matrix(rng, 4)[:, :2]
        solutions = dense_lu(dense).solve_many(rhs)
        np.testing.assert_allclose(dense @ solutions, rhs, rtol=1e-9, atol=1e-12)

    def test_rhs_size_check(self):
        with pytest.raises(LinAlgError):
            dense_lu(np.eye(3)).solve(np.ones(4))


class TestSparseLU:
    @pytest.mark.parametrize("pivoting", ["markowitz", "partial"])
    def test_solve_matches_numpy(self, pivoting):
        rng = np.random.default_rng(11)
        for n in (1, 3, 6, 15):
            dense = random_complex_matrix(rng, n, density=0.6)
            matrix = SparseMatrix.from_dense(dense)
            rhs = rng.standard_normal(n)
            factorization = sparse_lu(matrix, pivoting=pivoting)
            np.testing.assert_allclose(factorization.solve(rhs),
                                       np.linalg.solve(dense, rhs),
                                       rtol=1e-8, atol=1e-10)

    def test_determinant_matches_numpy(self):
        rng = np.random.default_rng(19)
        for n in (2, 5, 10):
            dense = random_complex_matrix(rng, n, density=0.7)
            matrix = SparseMatrix.from_dense(dense)
            mantissa, exponent = sparse_lu(matrix).determinant_mantissa_exponent()
            expected = np.linalg.det(dense)
            assert mantissa * 10.0**exponent == pytest.approx(expected, rel=1e-8)

    def test_determinant_sign_with_permutations(self):
        # An anti-diagonal matrix needs row/column permutations; the sign must
        # still come out right.
        dense = np.array([[0.0, 0.0, 1.0],
                          [0.0, 2.0, 0.0],
                          [3.0, 0.0, 0.0]])
        matrix = SparseMatrix.from_dense(dense)
        mantissa, exponent = sparse_lu(matrix).determinant_mantissa_exponent()
        assert mantissa * 10.0**exponent == pytest.approx(np.linalg.det(dense))

    def test_singular(self):
        matrix = SparseMatrix(3)
        matrix.set(0, 0, 1.0)
        matrix.set(1, 1, 1.0)
        with pytest.raises(SingularMatrixError):
            sparse_lu(matrix)

    def test_non_square(self):
        with pytest.raises(LinAlgError):
            sparse_lu(SparseMatrix(2, 3))

    def test_unknown_pivoting(self):
        with pytest.raises(LinAlgError):
            sparse_lu(SparseMatrix.identity(2), pivoting="nope")

    def test_empty_matrix(self):
        factorization = sparse_lu(SparseMatrix(0))
        mantissa, exponent = factorization.determinant_mantissa_exponent()
        assert mantissa == 1.0

    def test_fill_in_reported(self):
        rng = np.random.default_rng(5)
        dense = random_complex_matrix(rng, 10, density=0.4)
        factorization = sparse_lu(SparseMatrix.from_dense(dense))
        assert factorization.fill_in >= 0

    def test_solve_rhs_size_check(self):
        factorization = sparse_lu(SparseMatrix.identity(3))
        with pytest.raises(LinAlgError):
            factorization.solve(np.ones(2))

    def test_determinant_xfloat(self):
        matrix = SparseMatrix.from_dense(np.diag([1e-200, 1e-200]))
        magnitude, phase = sparse_lu(matrix).determinant_xfloat()
        assert magnitude.log10() == pytest.approx(-400)
        assert phase == pytest.approx(0.0)

    @given(st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=50, deadline=None)
    def test_property_solve_random(self, n, seed):
        rng = np.random.default_rng(seed)
        dense = random_complex_matrix(rng, n, density=0.8)
        if abs(np.linalg.det(dense)) < 1e-6:
            return
        rhs = rng.standard_normal(n)
        solution = sparse_lu(SparseMatrix.from_dense(dense)).solve(rhs)
        np.testing.assert_allclose(dense @ solution, rhs, rtol=1e-7, atol=1e-9)


class TestDetHelpers:
    def test_determinant_auto_selects(self):
        dense = np.diag([2.0, 3.0, 4.0])
        mantissa, exponent = determinant(dense)
        assert mantissa * 10.0**exponent == pytest.approx(24.0)
        mantissa, exponent = determinant(SparseMatrix.from_dense(dense),
                                         method="sparse")
        assert mantissa * 10.0**exponent == pytest.approx(24.0)

    def test_log10_determinant(self):
        assert log10_determinant(np.diag([10.0, 100.0])) == pytest.approx(3.0)

    def test_solve_linear_system(self):
        matrix = np.array([[2.0, 0.0], [0.0, 4.0]])
        np.testing.assert_allclose(solve_linear_system(matrix, [2.0, 8.0]),
                                   [1.0, 2.0])

    def test_unknown_method(self):
        with pytest.raises(LinAlgError):
            determinant(np.eye(2), method="quantum")


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestDeterminantRange:
    """``(mantissa, exponent) → complex`` is finite wherever a double is."""

    def _factorizations(self, diagonal):
        dense = np.diag(np.asarray(diagonal, dtype=complex))
        sparse = sparse_lu(SparseMatrix.from_dense(dense))
        schedule = sparse.refactor_schedule([(0, 0), (1, 1)])
        batched = schedule.factor(np.diag(dense)[None, :],
                                  schedule.slots_of([(0, 0), (1, 1)]))
        return dense_lu(dense), sparse, batched.member(0), batched

    @pytest.mark.parametrize("diagonal,expected", [
        ((5e152, 1e153), 5e305), ((3e-152, 1e-153), 3e-305)])
    def test_near_the_double_limits(self, diagonal, expected):
        *scalars, batched = self._factorizations(diagonal)
        values = [factorization.determinant() for factorization in scalars]
        values.append(complex(batched.determinants()[0]))
        for value in values:
            assert value == pytest.approx(expected, rel=1e-12)
            assert value.imag == 0.0
        mantissa, exponent = scalars[0].determinant_mantissa_exponent()
        assert Polynomial([XFloat(mantissa.real, exponent)]).evaluate_complex(
            0.0) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("diagonal,phase", [
        ((1e200, 1e200), 0.0), ((-1e200, 1e200), math.pi),
        ((1e200j, 1e200), math.pi / 2)])
    def test_overflow_keeps_the_phase(self, diagonal, phase):
        *scalars, batched = self._factorizations(diagonal)
        values = [factorization.determinant() for factorization in scalars]
        values.append(complex(batched.determinants()[0]))
        for value in values:
            assert math.isinf(abs(value)) and not math.isnan(value.real)
            assert not math.isnan(value.imag)
            assert np.angle(value) == pytest.approx(phase)

    def test_helper_on_arrays_and_underflow(self):
        values = decimal_complex(np.array([5.0, 3.0, 2.0, 0.0]),
                                 np.array([305, -305, -400, 900]))
        assert values[0] == pytest.approx(5e305, rel=1e-12)
        assert values[1] == pytest.approx(3e-305, rel=1e-12)
        assert values[2] == 0 and values[3] == 0
        assert decimal_complex(2.5 - 1j, 3) == pytest.approx(2500 - 1000j)
        assert decimal_complex(0j, 0) == 0
