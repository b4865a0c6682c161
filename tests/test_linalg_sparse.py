"""Tests for the sparse matrix container."""

import numpy as np
import pytest

from repro.errors import LinAlgError
from repro.linalg.sparse import SparseMatrix


class TestConstruction:
    def test_empty(self):
        matrix = SparseMatrix(3)
        assert matrix.shape == (3, 3)
        assert matrix.nnz == 0
        assert matrix.density() == 0.0

    def test_rectangular(self):
        matrix = SparseMatrix(2, 5)
        assert matrix.shape == (2, 5)

    def test_negative_dimensions(self):
        with pytest.raises(LinAlgError):
            SparseMatrix(-1)

    def test_from_dense_roundtrip(self):
        dense = np.array([[1.0, 0.0], [2.0 + 1j, 3.0]])
        matrix = SparseMatrix.from_dense(dense)
        assert matrix.nnz == 3
        np.testing.assert_allclose(matrix.to_dense(), dense)

    def test_from_dense_requires_2d(self):
        with pytest.raises(LinAlgError):
            SparseMatrix.from_dense(np.ones(3))

    def test_copy_is_independent(self):
        matrix = SparseMatrix(2)
        matrix.set(0, 0, 1.0)
        duplicate = matrix.copy()
        duplicate.set(0, 0, 5.0)
        assert matrix.get(0, 0) == 1.0


class TestAccess:
    def test_set_get_add(self):
        matrix = SparseMatrix(3)
        matrix.set(0, 1, 2.0)
        matrix.add(0, 1, 3.0)
        assert matrix.get(0, 1) == 5.0
        assert matrix[0, 1] == 5.0
        matrix[1, 2] = 7.0
        assert matrix.get(1, 2) == 7.0

    def test_add_cancellation_removes_entry(self):
        matrix = SparseMatrix(2)
        matrix.add(0, 0, 1.0)
        matrix.add(0, 0, -1.0)
        assert matrix.nnz == 0

    def test_set_zero_removes_entry(self):
        matrix = SparseMatrix(2)
        matrix.set(0, 0, 3.0)
        matrix.set(0, 0, 0.0)
        assert matrix.nnz == 0

    def test_out_of_bounds(self):
        matrix = SparseMatrix(2)
        with pytest.raises(LinAlgError):
            matrix.set(2, 0, 1.0)
        with pytest.raises(LinAlgError):
            matrix.add(0, 5, 1.0)

    def test_structural_zero_is_zero(self):
        assert SparseMatrix(3).get(1, 1) == 0.0

    def test_rows_view(self):
        matrix = SparseMatrix(2, 3)
        matrix.set(0, 2, 1.0)
        matrix.set(1, 0, 2.0)
        rows = matrix.rows()
        assert rows[0] == {2: 1.0}
        assert rows[1] == {0: 2.0}


class TestArithmetic:
    def test_matvec(self):
        dense = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=complex)
        matrix = SparseMatrix.from_dense(dense)
        vector = np.array([1.0, 1j])
        np.testing.assert_allclose(matrix.matvec(vector), dense @ vector)

    def test_matvec_shape_mismatch(self):
        with pytest.raises(LinAlgError):
            SparseMatrix(2, 3).matvec([1.0, 2.0])

    def test_scaled(self):
        a = SparseMatrix.from_dense(np.array([[1.0, 0.0], [0.0, 2.0]]))
        np.testing.assert_allclose(a.scaled(3.0).to_dense(),
                                   [[3.0, 0.0], [0.0, 6.0]])

    def test_repr(self):
        assert "nnz=0" in repr(SparseMatrix(2))
