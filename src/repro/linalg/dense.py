"""Dense complex LU with partial pivoting, scalar and batched.

Used for cross-checking the sparse factorization and as the default for small
systems where sparse bookkeeping is not worth it.  Implemented directly on
numpy arrays (no ``scipy`` dependency) with the same result interface as the
sparse factorization: ``solve`` and exponent-tracked determinants.

:func:`batched_dense_lu` factors a whole stack of same-structure matrices —
one per frequency-sweep point — in a single pass whose elimination loop is
vectorized over the batch axis.  It applies exactly the same algorithm as
:func:`dense_lu` (partial pivoting by column magnitude, identical operation
order), so a batched sweep reproduces the per-point results to rounding.
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np

from ..errors import LinAlgError, SingularMatrixError
from ..xfloat import TrackedDeterminant

__all__ = ["dense_lu", "DenseLU", "batched_dense_lu", "BatchedDenseLU",
           "batched_solve", "sweep_chunk_size"]

#: Complex entries per assembled dense sweep chunk (~64 MB): sweeps longer
#: than this per-matrix budget are factored chunk by chunk so memory stays
#: bounded regardless of grid size.
_SWEEP_CHUNK_ELEMENTS = 4_000_000


def sweep_chunk_size(dimension) -> int:
    """Number of ``dimension``-sized matrices per batched sweep chunk."""
    dimension = max(1, int(dimension))
    return max(1, _SWEEP_CHUNK_ELEMENTS // (dimension * dimension))

#: Powers of ten built with Python's scalar pow, which numpy's vectorized
#: ``10.0**x`` does not always match to the last ulp.  The batched determinant
#: renormalization indexes this table so that batched and per-point sweeps
#: stay bit-for-bit identical.  Single-step shifts cannot leave ±308 (one
#: pivot times a normalized mantissa is a finite double).
_POW10_OFFSET = 330
_POW10 = np.array([10.0**e if e <= 308 else math.inf
                   for e in range(-_POW10_OFFSET, _POW10_OFFSET + 1)])


class DenseLU(TrackedDeterminant):
    """Result of :func:`dense_lu`: packed LU factors plus the row permutation."""

    def __init__(self, lu, permutation, n_swaps):
        self.lu = lu
        self.permutation = permutation
        self.n_swaps = n_swaps
        self.n = lu.shape[0]

    def determinant_mantissa_exponent(self) -> Tuple[complex, int]:
        """``det(A)`` as ``(complex mantissa, decimal exponent)``."""
        mantissa = complex(-1.0 if self.n_swaps % 2 else 1.0)
        exponent = 0
        for k in range(self.n):
            mantissa *= self.lu[k, k]
            if mantissa == 0:
                return 0.0 + 0.0j, 0
            magnitude = abs(mantissa)
            shift = int(math.floor(math.log10(magnitude)))
            if shift:
                mantissa /= 10.0**shift
                exponent += shift
        return mantissa, exponent

    def solve(self, rhs):
        """Solve ``A x = b``."""
        rhs = np.asarray(rhs, dtype=complex)
        if rhs.shape[0] != self.n:
            raise LinAlgError(f"rhs has {rhs.shape[0]} entries, expected {self.n}")
        work = rhs[self.permutation].astype(complex)
        n = self.n
        # Forward substitution (unit lower triangle).
        for i in range(n):
            work[i] -= np.dot(self.lu[i, :i], work[:i])
        # Back substitution.
        for i in range(n - 1, -1, -1):
            work[i] -= np.dot(self.lu[i, i + 1:], work[i + 1:])
            pivot = self.lu[i, i]
            if pivot == 0:
                raise SingularMatrixError("zero pivot in back substitution",
                                          pivot_index=i, dimension=self.n)
            work[i] /= pivot
        return work

    def solve_many(self, rhs_matrix):
        """Solve ``A X = B`` column by column."""
        rhs_matrix = np.asarray(rhs_matrix, dtype=complex)
        if rhs_matrix.ndim == 1:
            return self.solve(rhs_matrix)
        columns = [self.solve(rhs_matrix[:, j]) for j in range(rhs_matrix.shape[1])]
        return np.column_stack(columns)


def dense_lu(matrix):
    """Factor a dense (or sparse, converted) complex matrix with partial pivoting.

    Parameters
    ----------
    matrix:
        A square 2-D numpy array or an object with ``to_dense()``.

    Raises
    ------
    SingularMatrixError
        When a zero pivot column is encountered.
    """
    if hasattr(matrix, "to_dense"):
        array = matrix.to_dense()
    else:
        array = np.array(matrix, dtype=complex)
    if array.ndim != 2 or array.shape[0] != array.shape[1]:
        raise LinAlgError("dense_lu expects a square matrix")
    lu = array.astype(complex).copy()
    n = lu.shape[0]
    permutation = np.arange(n)
    n_swaps = 0
    for k in range(n):
        pivot_index = int(np.argmax(np.abs(lu[k:, k]))) + k
        if lu[pivot_index, k] == 0:
            raise SingularMatrixError(f"matrix is singular at column {k}",
                                      pivot_index=k, dimension=n)
        if pivot_index != k:
            lu[[k, pivot_index], :] = lu[[pivot_index, k], :]
            permutation[[k, pivot_index]] = permutation[[pivot_index, k]]
            n_swaps += 1
        multipliers = lu[k + 1:, k] / lu[k, k]
        lu[k + 1:, k] = multipliers
        lu[k + 1:, k + 1:] -= np.outer(multipliers, lu[k, k + 1:])
    return DenseLU(lu, permutation, n_swaps)


class BatchedDenseLU:
    """Result of :func:`batched_dense_lu`: stacked LU factors for ``B`` matrices.

    Attributes
    ----------
    lu:
        ``(B, n, n)`` packed LU factors (unit lower triangle + upper triangle).
    permutations:
        ``(B, n)`` row permutation per matrix.
    swap_parity:
        ``(B,)`` number of row swaps per matrix (only its parity matters).
    singular:
        ``(B,)`` boolean mask of matrices where a zero pivot column appeared;
        their factors, determinants and solutions are meaningless.  Unlike
        :func:`dense_lu` the batched routine does not raise — callers decide
        whether one singular sweep point should abort the whole sweep.
    """

    def __init__(self, lu, permutations, swap_parity, singular):
        self.lu = lu
        self.permutations = permutations
        self.swap_parity = swap_parity
        self.singular = singular
        self.batch = lu.shape[0]
        self.n = lu.shape[1]

    def member(self, index) -> "DenseLU":
        """The ``index``-th matrix's factors as a scalar :class:`DenseLU` view.

        The factors produced by the batched elimination are bit-for-bit the
        ones :func:`dense_lu` computes, so driving the scalar determinant /
        solve code through this view reproduces the per-point results exactly
        — numpy's vectorized ufuncs round complex multiplies differently from
        the scalar operations, which is why the batched
        :meth:`determinants_mantissa_exponent` / :meth:`solve` agree with the
        per-point path only to rounding, not to the bit.
        """
        return DenseLU(self.lu[index], self.permutations[index],
                       int(self.swap_parity[index]))

    def determinants_mantissa_exponent(self) -> Tuple[np.ndarray, np.ndarray]:
        """Per-matrix ``det(A)`` as ``(mantissas, exponents)`` arrays.

        Mantissas are complex with magnitude normalized into ``[1, 10)`` (or
        exactly 0 for singular matrices); exponents are decimal.  The pivots
        are multiplied in the same order, with the same per-step
        renormalization, as :meth:`DenseLU.determinant_mantissa_exponent`.
        """
        mantissa = np.where(self.swap_parity % 2 == 1, -1.0, 1.0).astype(complex)
        exponent = np.zeros(self.batch, dtype=np.int64)
        dead = self.singular.copy()
        for k in range(self.n):
            mantissa = mantissa * self.lu[:, k, k]
            dead |= mantissa == 0
            magnitude = np.abs(np.where(dead, 1.0, mantissa))
            shift = np.floor(np.log10(magnitude)).astype(np.int64)
            mantissa = np.where(shift != 0,
                                mantissa / _POW10[shift + _POW10_OFFSET],
                                mantissa)
            exponent += shift
        mantissa = np.where(dead, 0.0 + 0.0j, mantissa)
        exponent = np.where(dead, 0, exponent)
        return mantissa, exponent

    def solve(self, rhs):
        """Solve ``A_b x_b = b_b`` for every matrix of the stack.

        Parameters
        ----------
        rhs:
            Either one shared right-hand side of length ``n`` (broadcast over
            the batch) or a ``(B, n)`` stack of per-matrix right-hand sides.

        Returns
        -------
        numpy.ndarray
            ``(B, n)`` complex solutions.  Rows of singular matrices are zero.
        """
        rhs = np.asarray(rhs, dtype=complex)
        if rhs.ndim == 1:
            if rhs.shape[0] != self.n:
                raise LinAlgError(
                    f"rhs has {rhs.shape[0]} entries, expected {self.n}"
                )
            rhs = np.broadcast_to(rhs, (self.batch, self.n))
        elif rhs.shape != (self.batch, self.n):
            raise LinAlgError(
                f"rhs stack has shape {rhs.shape}, expected "
                f"({self.batch}, {self.n})"
            )
        work = np.take_along_axis(rhs, self.permutations, axis=1)
        # Forward substitution (unit lower triangle), vectorized over the batch.
        for i in range(1, self.n):
            work[:, i] -= np.einsum("bj,bj->b", self.lu[:, i, :i], work[:, :i])
        # Back substitution.
        for i in range(self.n - 1, -1, -1):
            if i < self.n - 1:
                work[:, i] -= np.einsum("bj,bj->b", self.lu[:, i, i + 1:],
                                        work[:, i + 1:])
            pivots = self.lu[:, i, i]
            work[:, i] /= np.where(pivots == 0, 1.0, pivots)
        if self.singular.any():
            work[self.singular] = 0.0
        return work

    def solve_matrix(self, rhs_matrix):
        """Solve ``A_b X_b = B`` for a whole right-hand-side *matrix* at once.

        This is the multi-column counterpart of :meth:`solve`, vectorized over
        both the batch and the columns — the screening engine uses it to push
        every element's incidence vector through the cached factors in one
        pass.

        Parameters
        ----------
        rhs_matrix:
            Either one shared ``(n, m)`` right-hand-side matrix (broadcast
            over the batch) or a ``(B, n, m)`` stack.

        Returns
        -------
        numpy.ndarray
            ``(B, n, m)`` complex solutions.  Slices of singular matrices are
            zero, mirroring :meth:`solve`.
        """
        rhs_matrix = np.asarray(rhs_matrix, dtype=complex)
        if rhs_matrix.ndim == 2:
            if rhs_matrix.shape[0] != self.n:
                raise LinAlgError(
                    f"rhs matrix has {rhs_matrix.shape[0]} rows, "
                    f"expected {self.n}"
                )
            rhs_matrix = np.broadcast_to(
                rhs_matrix, (self.batch,) + rhs_matrix.shape)
        elif (rhs_matrix.ndim != 3
              or rhs_matrix.shape[:2] != (self.batch, self.n)):
            raise LinAlgError(
                f"rhs stack has shape {rhs_matrix.shape}, expected "
                f"({self.batch}, {self.n}, m)"
            )
        work = np.take_along_axis(rhs_matrix, self.permutations[:, :, None],
                                  axis=1)
        # Forward substitution (unit lower triangle), vectorized over batch
        # and columns.
        for i in range(1, self.n):
            work[:, i, :] -= np.einsum("bj,bjm->bm", self.lu[:, i, :i],
                                       work[:, :i, :])
        # Back substitution.
        for i in range(self.n - 1, -1, -1):
            if i < self.n - 1:
                work[:, i, :] -= np.einsum("bj,bjm->bm", self.lu[:, i, i + 1:],
                                           work[:, i + 1:, :])
            pivots = self.lu[:, i, i]
            work[:, i, :] /= np.where(pivots == 0, 1.0, pivots)[:, None]
        if self.singular.any():
            work[self.singular] = 0.0
        return work


def batched_solve(stack, rhs) -> np.ndarray:
    """Solve ``A_b x_b = b_b`` for a ``(B, n, n)`` stack via LAPACK (``zgesv``).

    This is the high-throughput solver of the Monte Carlo ensemble engine:
    several times faster than :func:`batched_dense_lu` + ``solve`` at typical
    circuit sizes, at the price of not exposing factors, determinants or
    member views.  LAPACK factors every matrix of the stack independently,
    so the result for a given matrix is **bit-for-bit independent of the
    batch it is solved in** — solving one matrix alone, or inside a stack of
    thousands, returns identical bits (asserted by the ensemble test suite).
    Use it when only solutions are needed; sweeps that extract determinants
    (the interpolation sampler) or bit-parity member views stay on
    :func:`batched_dense_lu`.

    Parameters
    ----------
    stack:
        ``(B, n, n)`` complex matrices.
    rhs:
        One shared right-hand side of length ``n`` (broadcast over the
        batch) or a ``(B, n)`` stack.

    Returns
    -------
    numpy.ndarray
        ``(B, n)`` complex solutions.

    Raises
    ------
    SingularMatrixError
        When any matrix of the stack is exactly singular.  The exception's
        ``batch_index`` attribute carries the index of the first offender
        (``None`` when LAPACK flagged the stack but no exactly-zero pivot
        was found), so callers can name the failing member without
        re-factoring the stack.
    """
    stack = np.asarray(stack, dtype=complex)
    if stack.ndim != 3 or stack.shape[1] != stack.shape[2]:
        raise LinAlgError("batched_solve expects a (B, n, n) stack")
    batch, n = stack.shape[0], stack.shape[1]
    rhs = np.asarray(rhs, dtype=complex)
    if rhs.ndim == 1:
        if rhs.shape[0] != n:
            raise LinAlgError(f"rhs has {rhs.shape[0]} entries, expected {n}")
        columns = np.broadcast_to(rhs[None, :, None], (batch, n, 1))
    elif rhs.shape == (batch, n):
        columns = rhs[:, :, None]
    else:
        raise LinAlgError(
            f"rhs stack has shape {rhs.shape}, expected ({batch}, {n})")
    try:
        return np.linalg.solve(stack, columns)[:, :, 0]
    except np.linalg.LinAlgError as error:
        # Locate the offending matrix for a precise diagnostic (the gufunc
        # reports only that *some* member is singular).
        factorization = batched_dense_lu(stack)
        if factorization.singular.any():
            index = int(np.argmax(factorization.singular))
            raise SingularMatrixError(
                f"matrix {index} of the batch is singular",
                batch_index=index, dimension=n) from error
        raise SingularMatrixError(
            "a matrix of the batch is numerically singular",
            dimension=n) from error


def batched_dense_lu(stack, overwrite=False) -> BatchedDenseLU:
    """Factor a ``(B, n, n)`` stack of complex matrices in one vectorized pass.

    Each matrix is factored with partial pivoting exactly as :func:`dense_lu`
    does — the pivot choice (largest magnitude in the pivot column, ties to
    the first row) and the elimination arithmetic are identical — but the
    elimination loop runs once over ``n`` steps with every operation applied
    to all ``B`` matrices at once, instead of ``B`` separate Python loops.

    Singular matrices are flagged in :attr:`BatchedDenseLU.singular` rather
    than raising, so one degenerate sweep point cannot abort a whole batch.

    ``overwrite=True`` factors in place, destroying ``stack`` — the sweep
    paths pass freshly assembled throwaway stacks, sparing a full-chunk copy.
    """
    if overwrite:
        stack = np.asarray(stack, dtype=complex)
    else:
        stack = np.array(stack, dtype=complex)
    if stack.ndim != 3 or stack.shape[1] != stack.shape[2]:
        raise LinAlgError("batched_dense_lu expects a (B, n, n) stack")
    batch, n = stack.shape[0], stack.shape[1]
    lu = stack
    permutations = np.tile(np.arange(n), (batch, 1))
    swap_parity = np.zeros(batch, dtype=np.int64)
    singular = np.zeros(batch, dtype=bool)
    batch_index = np.arange(batch)
    for k in range(n):
        pivot_index = np.argmax(np.abs(lu[:, k:, k]), axis=1) + k
        singular |= lu[batch_index, pivot_index, k] == 0
        needs_swap = pivot_index != k
        if needs_swap.any():
            swap_batch = batch_index[needs_swap]
            swap_pivot = pivot_index[needs_swap]
            rows_k = lu[swap_batch, k, :].copy()
            lu[swap_batch, k, :] = lu[swap_batch, swap_pivot, :]
            lu[swap_batch, swap_pivot, :] = rows_k
            perm_k = permutations[swap_batch, k].copy()
            permutations[swap_batch, k] = permutations[swap_batch, swap_pivot]
            permutations[swap_batch, swap_pivot] = perm_k
            swap_parity += needs_swap
        pivots = lu[:, k, k]
        safe_pivots = np.where(pivots == 0, 1.0, pivots)
        multipliers = lu[:, k + 1:, k] / safe_pivots[:, None]
        lu[:, k + 1:, k] = multipliers
        lu[:, k + 1:, k + 1:] -= multipliers[:, :, None] * lu[:, k, None, k + 1:]
    return BatchedDenseLU(lu, permutations, swap_parity, singular)
