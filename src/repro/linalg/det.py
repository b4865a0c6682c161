"""Convenience wrappers: determinant and solve with automatic method choice."""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np

from ..errors import LinAlgError
from .config import use_dense
from .dense import dense_lu
from .lu import sparse_lu
from .sparse import SparseMatrix

__all__ = ["determinant", "log10_determinant", "solve_linear_system"]


def _factor(matrix, method="auto"):
    if method not in ("auto", "sparse", "dense"):
        raise LinAlgError(f"unknown method {method!r}")
    if isinstance(matrix, SparseMatrix):
        if use_dense(matrix.n_rows, method):
            return dense_lu(matrix)
        return sparse_lu(matrix)
    array = np.asarray(matrix, dtype=complex)
    if method == "sparse":
        return sparse_lu(SparseMatrix.from_dense(array))
    return dense_lu(array)


def determinant(matrix, method="auto") -> Tuple[complex, int]:
    """Determinant of ``matrix`` as ``(complex mantissa, decimal exponent)``.

    ``method`` is ``"auto"`` (dense at or below
    :func:`repro.linalg.config.dense_cutoff` unknowns, sparse above),
    ``"sparse"`` or ``"dense"``.
    """
    return _factor(matrix, method).determinant_mantissa_exponent()


def log10_determinant(matrix, method="auto") -> float:
    """``log10 |det(matrix)|`` (``-inf`` when singular)."""
    mantissa, exponent = determinant(matrix, method)
    if mantissa == 0:
        return -math.inf
    return math.log10(abs(mantissa)) + exponent


def solve_linear_system(matrix, rhs, method="auto"):
    """Solve ``matrix @ x = rhs``; returns a complex numpy vector."""
    return _factor(matrix, method).solve(rhs)
