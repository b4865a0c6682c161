"""Sparse complex linear algebra substrate.

The interpolation engine needs, for every interpolation point ``s_k``, the
determinant of the nodal admittance matrix and the solution of one linear
system (Eqs. 7–10 of the paper).  The paper notes the algorithm "has been
implemented using sparse matrix techniques"; this package provides that
substrate from scratch:

* :class:`~repro.linalg.sparse.SparseMatrix` — a complex sparse matrix with
  dictionary-of-keys storage and row-wise access,
* :func:`~repro.linalg.lu.sparse_lu` — sparse LU factorization with Markowitz
  (threshold) pivoting, producing determinants with decimal-exponent tracking
  so very large / very small determinants never overflow,
* :class:`~repro.linalg.lu.RefactorSchedule` — a pivot order compiled once
  and replayed on a whole chunk of sweep points at a time, the one numeric
  refactorization (the factor-once / refactor-many primitive of the batched
  frequency-sweep engine),
* :func:`~repro.linalg.ordering.fill_reducing_order` — the approximate
  minimum-degree (AMD) elimination order every sparse sweep factors along,
* :func:`~repro.linalg.dense.dense_lu` — a dense LU with partial pivoting,
  the scalar reference the batched kernel and the tests compare against,
* :func:`~repro.linalg.dense.batched_dense_lu` — the same dense algorithm
  vectorized over a whole stack of sweep matrices at once.
"""

from .config import DEFAULT_DENSE_CUTOFF, dense_cutoff
from .sparse import SparseMatrix
from .lu import sparse_lu, LUFactorization
from .ordering import (fill_reducing_order, inverse_permutation,
                       permute_symmetric)
from .dense import dense_lu, DenseLU, batched_dense_lu, BatchedDenseLU

__all__ = [
    "DEFAULT_DENSE_CUTOFF",
    "dense_cutoff",
    "SparseMatrix",
    "sparse_lu",
    "LUFactorization",
    "fill_reducing_order",
    "inverse_permutation",
    "permute_symmetric",
    "dense_lu",
    "DenseLU",
    "batched_dense_lu",
    "BatchedDenseLU",
]
