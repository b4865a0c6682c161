"""Complex sparse matrices with dictionary-of-keys storage.

:class:`SparseMatrix` is intentionally simple: circuit matrices have at most a
few thousand non-zeros, so a dict-of-keys representation with row-wise views is
fast enough while keeping the LU code readable.  The class supports the
operations the rest of the library needs: stamping (``add``), row-wise
views, matrix-vector products, scaling, diagonal shifts and dense
conversion.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Tuple

import numpy as np

from ..errors import LinAlgError

__all__ = ["SparseMatrix", "merged_structure"]


def merged_structure(first, second):
    """Union sparsity structure of two same-shape matrices.

    The batched sweep primitive: collect the combined ``(row, col)`` key list
    once, plus each matrix's values over those keys, so per sweep point only
    a vectorized ``first_values + factor * second_values`` and a dict rebuild
    remain.

    Returns
    -------
    (keys, first_values, second_values)
        Sorted key list and two aligned complex value arrays.
    """
    if first.shape != second.shape:
        raise LinAlgError("matrix shape mismatch in merged_structure()")
    keys = sorted(
        {(row, col) for row, col, __ in first.entries()}
        | {(row, col) for row, col, __ in second.entries()}
    )
    first_values = np.array([first.get(row, col) for row, col in keys],
                            dtype=complex)
    second_values = np.array([second.get(row, col) for row, col in keys],
                             dtype=complex)
    return keys, first_values, second_values


class SparseMatrix:
    """A complex sparse matrix stored as ``{(row, col): value}``.

    Parameters
    ----------
    n_rows, n_cols:
        Matrix dimensions.  ``n_cols`` defaults to ``n_rows`` (square).
    """

    def __init__(self, n_rows, n_cols=None):
        if n_cols is None:
            n_cols = n_rows
        if n_rows < 0 or n_cols < 0:
            raise LinAlgError("matrix dimensions must be non-negative")
        self.n_rows = int(n_rows)
        self.n_cols = int(n_cols)
        self._data: Dict[Tuple[int, int], complex] = {}

    # -- construction -------------------------------------------------------

    @classmethod
    def from_dense(cls, array):
        """Build from a 2-D numpy array (zeros are dropped)."""
        array = np.asarray(array)
        if array.ndim != 2:
            raise LinAlgError("from_dense expects a 2-D array")
        matrix = cls(array.shape[0], array.shape[1])
        rows, cols = np.nonzero(array)
        for i, j in zip(rows.tolist(), cols.tolist()):
            matrix._data[(i, j)] = complex(array[i, j])
        return matrix

    @classmethod
    def from_entries(cls, n_rows, n_cols, entries):
        """Build from ``((row, col), value)`` pairs (zeros are dropped).

        Duplicate keys overwrite; indices are not bounds-checked (the caller
        is expected to supply a pre-validated structure, e.g. the cached key
        list of a batched sweep).
        """
        matrix = cls(n_rows, n_cols)
        matrix._data = {key: complex(value) for key, value in entries
                        if value != 0}
        return matrix

    def copy(self):
        """Deep copy."""
        duplicate = SparseMatrix(self.n_rows, self.n_cols)
        duplicate._data = dict(self._data)
        return duplicate

    def permuted(self, row_order, col_order=None):
        """Permuted copy ``B[i, j] = A[row_order[i], col_order[j]]``.

        ``row_order`` / ``col_order`` are image lists (``order[k]`` is the
        original index landing at position ``k``); ``col_order`` defaults to
        ``row_order`` (symmetric permutation).  Entry *insertion order*
        follows this matrix, so downstream dict iteration (notably the LU
        elimination) visits corresponding entries in corresponding positions.
        """
        if col_order is None:
            col_order = row_order
        if (sorted(row_order) != list(range(self.n_rows))
                or sorted(col_order) != list(range(self.n_cols))):
            raise LinAlgError(
                f"permutations must cover range({self.n_rows}) / "
                f"range({self.n_cols})")
        inverse_row = [0] * self.n_rows
        for position, original in enumerate(row_order):
            inverse_row[original] = position
        inverse_col = [0] * self.n_cols
        for position, original in enumerate(col_order):
            inverse_col[original] = position
        permuted = SparseMatrix(self.n_rows, self.n_cols)
        for (row, col), value in self._data.items():
            permuted._data[(inverse_row[row], inverse_col[col])] = value
        return permuted

    # -- element access ------------------------------------------------------

    def _check_index(self, row, col):
        if not (0 <= row < self.n_rows and 0 <= col < self.n_cols):
            raise LinAlgError(
                f"index ({row}, {col}) out of bounds for "
                f"{self.n_rows}x{self.n_cols} matrix"
            )

    def get(self, row, col):
        """Entry value (0 for structural zeros)."""
        return self._data.get((row, col), 0.0 + 0.0j)

    def set(self, row, col, value):
        """Set an entry (setting 0 removes it)."""
        self._check_index(row, col)
        value = complex(value)
        if value == 0:
            self._data.pop((row, col), None)
        else:
            self._data[(row, col)] = value

    def add(self, row, col, value):
        """Add ``value`` to an entry — the stamping primitive."""
        self._check_index(row, col)
        value = complex(value)
        if value == 0:
            return
        key = (row, col)
        new_value = self._data.get(key, 0.0 + 0.0j) + value
        if new_value == 0:
            self._data.pop(key, None)
        else:
            self._data[key] = new_value

    def __getitem__(self, index):
        row, col = index
        return self.get(row, col)

    def __setitem__(self, index, value):
        row, col = index
        self.set(row, col, value)

    # -- queries --------------------------------------------------------------

    @property
    def shape(self):
        """``(n_rows, n_cols)``."""
        return (self.n_rows, self.n_cols)

    @property
    def nnz(self):
        """Number of stored non-zero entries."""
        return len(self._data)

    def density(self):
        """Fraction of entries that are non-zero."""
        total = self.n_rows * self.n_cols
        if total == 0:
            return 0.0
        return self.nnz / total

    def entries(self) -> Iterator[Tuple[int, int, complex]]:
        """Iterate over ``(row, col, value)`` triples in unspecified order."""
        for (row, col), value in self._data.items():
            yield row, col, value

    def rows(self) -> List[Dict[int, complex]]:
        """Row-wise view: list of ``{col: value}`` dicts (copies)."""
        rows: List[Dict[int, complex]] = [dict() for __ in range(self.n_rows)]
        for (row, col), value in self._data.items():
            rows[row][col] = value
        return rows

    # -- arithmetic ------------------------------------------------------------

    def matvec(self, vector):
        """Matrix-vector product with a sequence or numpy vector."""
        vector = np.asarray(vector, dtype=complex)
        if vector.shape[0] != self.n_cols:
            raise LinAlgError(
                f"matvec dimension mismatch: matrix has {self.n_cols} columns, "
                f"vector has {vector.shape[0]} entries"
            )
        result = np.zeros(self.n_rows, dtype=complex)
        for (row, col), value in self._data.items():
            result[row] += value * vector[col]
        return result

    def scaled(self, factor):
        """Return ``factor * self`` as a new matrix."""
        result = SparseMatrix(self.n_rows, self.n_cols)
        factor = complex(factor)
        if factor != 0:
            for key, value in self._data.items():
                result._data[key] = value * factor
        return result

    def diagonally_shifted(self, shift):
        """Return ``self + shift·I`` as a new matrix (square matrices only).

        The diagonal-regularization primitive of the resilient solve layer
        (:mod:`repro.engine.resilience`): a last-resort solve factors
        ``A + εI`` instead of a numerically singular ``A``, then validates
        the solution against the *original* matrix.
        """
        if self.n_rows != self.n_cols:
            raise LinAlgError("diagonal shift requires a square matrix")
        result = self.copy()
        shift = complex(shift)
        if shift != 0:
            for index in range(self.n_rows):
                result.add(index, index, shift)
        return result

    def to_dense(self):
        """Convert to a dense complex numpy array."""
        dense = np.zeros((self.n_rows, self.n_cols), dtype=complex)
        for (row, col), value in self._data.items():
            dense[row, col] = value
        return dense

    def __repr__(self):
        return (
            f"SparseMatrix({self.n_rows}x{self.n_cols}, nnz={self.nnz}, "
            f"density={self.density():.3f})"
        )
