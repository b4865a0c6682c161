"""Sparse LU factorization with Markowitz threshold pivoting.

The factorization computes ``P A Q = L U`` where ``P`` and ``Q`` are row and
column permutations chosen at each elimination step by the Markowitz
criterion: among numerically acceptable pivots (magnitude at least
``threshold`` times the largest magnitude in the candidate's column), pick the
entry minimizing ``(r_i - 1)(c_j - 1)`` — the classical fill-in heuristic used
by sparse circuit simulators.

Two results matter downstream:

* :meth:`LUFactorization.solve` — solve ``A x = b`` (Eq. 7 of the paper) to
  obtain the network function value at one interpolation point,
* :meth:`LUFactorization.determinant` — ``det(A)`` as the product of pivots
  (Eq. 9), tracked as a complex mantissa plus a decimal exponent so that very
  large or very small determinants (routine for scaled admittance matrices)
  never overflow IEEE doubles.

:func:`sparse_lu` is the pivot search.  Every other matrix of a sweep shares
its structure, so :class:`RefactorSchedule` compiles the pivot order it found
— fill included — into static per-step index arrays once, and
:meth:`RefactorSchedule.factor` replays it on a ``(points, slots)`` value
array, vectorized over every sweep point at once (the factor-once /
refactor-many split of KLU; Davis & Palamadai Natarajan, ACM TOMS 36(3),
2010).  :func:`sparse_lu_refactor` is a batch of one through the same kernel.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..errors import LinAlgError, SingularMatrixError
from ..xfloat import TrackedDeterminant, decimal_complex

__all__ = ["sparse_lu", "sparse_lu_refactor", "sparse_lu_reusing",
           "LUFactorization", "RefactorSchedule", "BatchedSparseLU",
           "SparseLUMember"]

#: Pivots whose normalized mantissas (magnitude in ``[1, 10)``) are
#: multiplied before renormalizing: their product stays below ``1e256``.
_DETERMINANT_BLOCK = 256


def _permutation_sign(perm: Sequence[int]) -> int:
    """Sign of a permutation given as the image list ``perm[k] = original index``."""
    seen = [False] * len(perm)
    sign = 1
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        node = start
        while not seen[node]:
            seen[node] = True
            node = perm[node]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


class LUFactorization(TrackedDeterminant):
    """Result of :func:`sparse_lu`.

    The factorization stores, per elimination step ``k``:

    * ``pivot_rows[k]`` / ``pivot_cols[k]`` — the original row / column chosen,
    * ``pivots[k]`` — the pivot value,
    * ``eliminations[k]`` — list of ``(row, multiplier)`` pairs applied to the
      remaining rows,
    * ``upper_rows[k]`` — the pivot row after elimination (``{col: value}``).
    """

    def __init__(self, n, pivot_rows, pivot_cols, pivots, eliminations,
                 upper_rows, fill_in):
        self.n = n
        self.pivot_rows = pivot_rows
        self.pivot_cols = pivot_cols
        self.pivots = pivots
        self.eliminations = eliminations
        self.upper_rows = upper_rows
        self.fill_in = fill_in
        self._schedule = None

    def refactor_schedule(self, keys) -> "RefactorSchedule":
        """This pivot order compiled over a structure covering ``keys``.

        Compiled on first use and kept: later calls whose keys the kept
        schedule already covers reuse it, others recompile it over the union
        of both structures.
        """
        if self._schedule is None:
            self._schedule = RefactorSchedule(self.n, self.pivot_rows,
                                              self.pivot_cols, keys)
        else:
            self._schedule = self._schedule.covering(keys)
        return self._schedule

    @property
    def nbytes(self) -> int:
        """Estimated memory of the stored factors (value plus dict slot)."""
        entries = (sum(len(row) for row in self.upper_rows)
                   + sum(len(step) for step in self.eliminations))
        return 24 * entries

    # -- determinant ---------------------------------------------------------

    def determinant_mantissa_exponent(self) -> Tuple[complex, int]:
        """Return ``det(A)`` as ``(mantissa, exponent)`` with ``mantissa * 10**exponent``.

        The mantissa is complex with magnitude normalized into ``[1, 10)``;
        a zero determinant returns ``(0j, 0)``.
        """
        mantissa = complex(1.0)
        exponent = 0
        for pivot in self.pivots:
            mantissa *= pivot
            if mantissa == 0:
                return 0.0 + 0.0j, 0
            magnitude = abs(mantissa)
            shift = int(math.floor(math.log10(magnitude)))
            if shift:
                mantissa /= 10.0**shift
                exponent += shift
        sign = (_permutation_sign(self.pivot_rows)
                * _permutation_sign(self.pivot_cols))
        mantissa *= sign
        return mantissa, exponent

    # -- solve -----------------------------------------------------------------

    def solve(self, rhs):
        """Solve ``A x = b`` for a single right-hand side.

        Parameters
        ----------
        rhs:
            Sequence of length ``n`` (complex or real).

        Returns
        -------
        numpy.ndarray
            Complex solution vector of length ``n``.
        """
        rhs = np.asarray(rhs, dtype=complex)
        if rhs.shape[0] != self.n:
            raise LinAlgError(
                f"rhs has {rhs.shape[0]} entries, expected {self.n}"
            )
        work = rhs.copy()
        # Forward elimination replay: the same row operations applied to A are
        # applied to b, in elimination order.
        for step in range(self.n):
            pivot_value = work[self.pivot_rows[step]]
            if pivot_value != 0:
                for row, multiplier in self.eliminations[step]:
                    work[row] -= multiplier * pivot_value
        # Back substitution over the stored upper rows.
        solution = np.zeros(self.n, dtype=complex)
        for step in range(self.n - 1, -1, -1):
            row_index = self.pivot_rows[step]
            col_index = self.pivot_cols[step]
            accumulator = work[row_index]
            for col, value in self.upper_rows[step].items():
                if col != col_index:
                    accumulator -= value * solution[col]
            solution[col_index] = accumulator / self.pivots[step]
        return solution

    def solve_many(self, rhs_matrix):
        """Solve ``A X = B`` column by column; ``rhs_matrix`` is ``n x m``."""
        rhs_matrix = np.asarray(rhs_matrix, dtype=complex)
        if rhs_matrix.ndim == 1:
            return self.solve(rhs_matrix)
        columns = [self.solve(rhs_matrix[:, j])
                   for j in range(rhs_matrix.shape[1])]
        return np.column_stack(columns)


def sparse_lu(matrix, threshold=0.1, pivoting="markowitz", column_order=None):
    """Factor a square :class:`~repro.linalg.sparse.SparseMatrix`.

    Parameters
    ----------
    matrix:
        Square sparse matrix (it is not modified).
    threshold:
        Relative threshold ``u`` for numerically acceptable pivots: a candidate
        ``a_ij`` is acceptable when ``|a_ij| >= u * max_i |a_ij|`` over its
        column.  Smaller values favour sparsity over numerical safety.
    pivoting:
        ``"markowitz"`` (default) or ``"partial"`` (plain column-order with
        row pivoting, mostly useful for tests).
    column_order:
        Optional fill-reducing elimination order (a permutation of
        ``range(n)``, e.g. from
        :func:`~repro.linalg.ordering.fill_reducing_order`): step ``k``
        eliminates column ``column_order[k]``, preferring the structurally
        symmetric pivot row ``column_order[k]`` when its magnitude passes the
        ``threshold`` test against the column maximum, else falling back to
        the largest-magnitude row (threshold partial pivoting).  This replaces
        the O(active²) per-step Markowitz search with an O(column) choice —
        the production configuration for pre-ordered post-layout-scale
        matrices.  Overrides ``pivoting``.

    Returns
    -------
    LUFactorization

    Raises
    ------
    SingularMatrixError
        If no acceptable non-zero pivot can be found at some step (for
        ``column_order``, also when an ordered column is structurally empty —
        a structurally deficient matrix).
    """
    if matrix.n_rows != matrix.n_cols:
        raise LinAlgError("LU factorization requires a square matrix")
    if pivoting not in ("markowitz", "partial"):
        raise LinAlgError(f"unknown pivoting strategy {pivoting!r}")
    n = matrix.n_rows
    if column_order is not None:
        column_order = [int(col) for col in column_order]
        if sorted(column_order) != list(range(n)):
            raise LinAlgError(
                f"column_order must be a permutation of range({n})")
    if n == 0:
        return LUFactorization(0, [], [], [], [], [], 0)

    # Working row-wise copy plus a column index for pivot searching.
    rows: List[Dict[int, complex]] = matrix.rows()
    col_index: List[set] = [set() for __ in range(n)]
    for i, row in enumerate(rows):
        for j in row:
            col_index[j].add(i)

    active_rows = set(range(n))
    active_cols = set(range(n))
    pivot_rows: List[int] = []
    pivot_cols: List[int] = []
    pivots: List[complex] = []
    eliminations: List[List[Tuple[int, complex]]] = []
    upper_rows: List[Dict[int, complex]] = []
    initial_nnz = matrix.nnz
    fill_in = 0

    for step in range(n):
        if column_order is not None:
            pivot_row, pivot_col = _select_ordered_pivot(
                rows, col_index, active_rows, threshold, column_order[step]
            )
        else:
            pivot_row, pivot_col = _select_pivot(
                rows, col_index, active_rows, active_cols, threshold, pivoting
            )
        if pivot_row is None:
            raise SingularMatrixError(
                f"matrix is singular (no acceptable pivot at step "
                f"{len(pivots)} of {n})",
                pivot_index=len(pivots), dimension=n,
            )
        pivot_value = rows[pivot_row][pivot_col]
        pivot_rows.append(pivot_row)
        pivot_cols.append(pivot_col)
        pivots.append(pivot_value)
        upper_rows.append(dict(rows[pivot_row]))

        active_rows.discard(pivot_row)
        active_cols.discard(pivot_col)

        # Eliminate pivot_col from every remaining active row that has it.
        target_rows = [i for i in col_index[pivot_col] if i in active_rows]
        step_eliminations, step_fill = _eliminate_pivot_column(
            rows, col_index, active_cols, pivot_row, pivot_col, pivot_value,
            target_rows,
        )
        fill_in += step_fill
        eliminations.append(step_eliminations)

    return LUFactorization(
        n, pivot_rows, pivot_cols, pivots, eliminations, upper_rows, fill_in
    )


def _eliminate_pivot_column(rows, col_index, active_cols, pivot_row,
                            pivot_col, pivot_value, target_rows):
    """One elimination step of :func:`sparse_lu`: remove ``pivot_col`` from
    ``target_rows`` and update their remaining entries.  Returns
    ``(eliminations, fill_in)``.
    """
    step_eliminations: List[Tuple[int, complex]] = []
    fill_in = 0
    pivot_row_items = [(j, v) for j, v in rows[pivot_row].items()
                       if j in active_cols]
    for i in target_rows:
        multiplier = rows[i][pivot_col] / pivot_value
        step_eliminations.append((i, multiplier))
        row_i = rows[i]
        # Remove the eliminated entry.
        del row_i[pivot_col]
        col_index[pivot_col].discard(i)
        # Update the rest of the row.
        for j, pivot_entry in pivot_row_items:
            existing = row_i.get(j)
            if existing is None:
                new_value = -multiplier * pivot_entry
                if new_value != 0:
                    row_i[j] = new_value
                    col_index[j].add(i)
                    fill_in += 1
            else:
                new_value = existing - multiplier * pivot_entry
                if new_value == 0:
                    del row_i[j]
                    col_index[j].discard(i)
                else:
                    row_i[j] = new_value
    return step_eliminations, fill_in


class RefactorSchedule:
    """A pivot order compiled into static, vectorizable elimination steps.

    Built from the pivot sequence of a :class:`LUFactorization` and a sparsity
    structure — the ``(row, col)`` keys of every matrix it will refactor.  A
    symbolic elimination along the pivot order finds every L and U entry,
    fill included, and numbers them: a matrix then lives in a row of
    ``slots`` complex values, and each elimination step is a handful of
    gathers and scatters over fixed index arrays.  :meth:`factor` replays the
    steps on a ``(points, slots)`` array, so one pass factors every sweep
    point at once.

    The schedule depends only on the structure, never on values, so a
    reused pivot may turn out zero or weak at some point: :meth:`factor`
    checks each one exactly as the scalar refactorization did and flags the
    member, whose caller refactors it freshly.  Every operation is
    elementwise along the points axis, so a member's results are bitwise
    the same whatever batch it is factored in.

    Attributes
    ----------
    n:
        Matrix dimension.
    keys:
        The structure compiled over, without fill.
    slots:
        Stored L + U entries per matrix, fill included.
    fill_in:
        Slots the elimination adds to the structure.
    member_bytes:
        Modelled working memory of one batch member (see
        :meth:`chunk_members`).
    """

    def __init__(self, n, pivot_rows, pivot_cols, keys):
        self.n = n
        self.pivot_rows = list(pivot_rows)
        self.pivot_cols = list(pivot_cols)
        slot: Dict[Tuple[int, int], int] = {}
        row_cols: List[set] = [set() for __ in range(n)]
        col_rows: List[set] = [set() for __ in range(n)]

        def add(row, col):
            slot[(row, col)] = len(slot)
            row_cols[row].add(col)
            col_rows[col].add(row)

        for row, col in keys:
            if not (0 <= row < n and 0 <= col < n):
                raise LinAlgError(
                    f"structure entry ({row}, {col}) is out of bounds for "
                    f"{n}x{n}")
            if (row, col) not in slot:
                add(row, col)
        self.keys = tuple(slot)
        # A structurally absent pivot gets a slot that stays zero, so every
        # member fails the zero-pivot check instead of the compile failing.
        for row, col in zip(self.pivot_rows, self.pivot_cols):
            if (row, col) not in slot:
                add(row, col)

        row_done = [False] * n
        col_done = [False] * n
        step_of_col = {}
        self._factor_steps = []
        self._forward = []
        uppers = []
        peak_update = 0
        for step, (pivot_row, pivot_col) in enumerate(
                zip(self.pivot_rows, self.pivot_cols)):
            row_done[pivot_row] = True
            col_done[pivot_col] = True
            step_of_col[pivot_col] = step
            rows = sorted(row for row in col_rows[pivot_col]
                          if not row_done[row])
            cols = sorted(col for col in row_cols[pivot_row]
                          if not col_done[col])
            for row in rows:
                for col in cols:
                    if (row, col) not in slot:
                        add(row, col)
            uppers.append((pivot_row, cols))
            if not rows:
                continue
            lower = np.array([slot[(row, pivot_col)] for row in rows],
                             dtype=np.intp)
            upper = np.array([slot[(pivot_row, col)] for col in cols],
                             dtype=np.intp)
            targets = np.array([slot[(row, col)] for row in rows
                                for col in cols], dtype=np.intp)
            self._factor_steps.append((step, slot[(pivot_row, pivot_col)],
                                       lower, upper, targets))
            self._forward.append((pivot_row, lower,
                                  np.array(rows, dtype=np.intp)))
            peak_update = max(peak_update, len(rows) * len(cols))

        # Column-oriented back substitution: once x[pivot_col(k)] is known,
        # every earlier pivot row with a U entry in that column is updated.
        back_rows: List[List[int]] = [[] for __ in range(n)]
        back_slots: List[List[int]] = [[] for __ in range(n)]
        for pivot_row, cols in uppers:
            for col in cols:
                back_rows[step_of_col[col]].append(pivot_row)
                back_slots[step_of_col[col]].append(slot[(pivot_row, col)])
        self._backward = [
            (self.pivot_rows[step], self.pivot_cols[step],
             slot[(self.pivot_rows[step], self.pivot_cols[step])],
             np.array(back_slots[step], dtype=np.intp),
             np.array(back_rows[step], dtype=np.intp))
            for step in range(n - 1, -1, -1)]

        self._slot = slot
        self.slots = len(slot)
        self.fill_in = self.slots - len(self.keys)
        self.pivot_slots = np.array(
            [slot[pivot] for pivot in zip(self.pivot_rows, self.pivot_cols)],
            dtype=np.intp)
        self.sign = (_permutation_sign(self.pivot_rows)
                     * _permutation_sign(self.pivot_cols))
        # Per member: the factor values and the loaded matrix values, the
        # largest step's update product and its gathered targets, and the
        # pivots plus the solve's work, solution and right-hand side
        # (complex), and the column maxima (real).
        self.member_bytes = (16 * (self.slots + len(self.keys)
                                   + 2 * peak_update + 4 * n) + 8 * n)

    def covers(self, keys) -> bool:
        """True when every ``(row, col)`` of ``keys`` has a slot."""
        return all(key in self._slot for key in keys)

    def covering(self, keys) -> "RefactorSchedule":
        """This schedule, or one compiled over its structure plus ``keys``."""
        if self.covers(keys):
            return self
        return RefactorSchedule(self.n, self.pivot_rows, self.pivot_cols,
                                self.keys + tuple(keys))

    def slots_of(self, keys) -> np.ndarray:
        """Slot index of every ``(row, col)`` of ``keys``.

        Raises
        ------
        LinAlgError
            For an entry outside the compiled structure.
        """
        try:
            return np.array([self._slot[key] for key in keys], dtype=np.intp)
        except KeyError as error:
            raise LinAlgError(
                f"entry {error.args[0]} is outside the compiled structure"
            ) from None

    def chunk_members(self, budget_bytes) -> int:
        """Members per batch whose modelled working memory fits the budget."""
        return max(1, int(budget_bytes) // self.member_bytes)

    def factor(self, values, slots, stability=1e-8) -> "BatchedSparseLU":
        """Factor ``(points, entries)`` matrix values along the pivot order.

        ``values[b, e]`` is entry ``e`` of matrix ``b``, stored at slot
        ``slots[e]`` (see :meth:`slots_of`); entries not given are zero.  A
        member whose reused pivot is zero, or smaller than ``stability``
        times the largest remaining magnitude in its column, is flagged in
        :attr:`BatchedSparseLU.failed_step` rather than raising.
        """
        values = np.asarray(values, dtype=complex)
        if values.ndim != 2 or values.shape[1] != len(slots):
            raise LinAlgError(
                f"values must be (points, {len(slots)}), got {values.shape}")
        batch = values.shape[0]
        lu = np.zeros((batch, self.slots), dtype=complex)
        lu[:, slots] = values
        column_max = np.zeros((batch, self.n))
        with np.errstate(all="ignore"):
            for step, pivot, lower, upper, targets in self._factor_steps:
                column = lu[:, lower]
                column_max[:, step] = np.abs(column).max(axis=1)
                multipliers = column / lu[:, pivot, None]
                lu[:, lower] = multipliers
                if upper.size:
                    lu[:, targets] -= (multipliers[:, :, None]
                                       * lu[:, None, upper]).reshape(batch, -1)
        pivots = lu[:, self.pivot_slots]
        failed = pivots == 0
        if stability:
            failed |= np.abs(pivots) < stability * column_max
        failed_step = np.where(failed.any(axis=1), failed.argmax(axis=1), -1)
        return BatchedSparseLU(self, lu, pivots, failed_step, stability)


class BatchedSparseLU:
    """``B`` numeric factorizations sharing one :class:`RefactorSchedule`.

    The result of :meth:`RefactorSchedule.factor`, with the interface of
    :class:`~repro.linalg.dense.BatchedDenseLU`: vectorized determinants,
    solves over the batch and scalar :meth:`member` views.

    Attributes
    ----------
    lu:
        ``(B, slots)`` factor values (L multipliers and U entries).
    pivots:
        ``(B, n)`` pivot values in elimination order.
    failed_step:
        ``(B,)`` first elimination step whose reused pivot was zero or
        numerically degraded, ``-1`` for a healthy member.  Results of
        degraded members are meaningless (solves return zero rows).
    """

    def __init__(self, schedule, lu, pivots, failed_step, stability):
        self.schedule = schedule
        self.lu = lu
        self.pivots = pivots
        self.failed_step = failed_step
        self.stability = stability
        self.batch = lu.shape[0]
        self.n = schedule.n

    @property
    def degraded(self) -> np.ndarray:
        """``(B,)`` mask of members that need a fresh factorization."""
        return self.failed_step >= 0

    @property
    def nbytes(self) -> int:
        """Memory held by the factor values and pivots."""
        return self.lu.nbytes + self.pivots.nbytes

    def healthy_prefix(self) -> int:
        """Number of leading members that factored without degradation."""
        degraded = self.degraded
        return int(np.argmax(degraded)) if degraded.any() else self.batch

    def _take(self, members) -> "BatchedSparseLU":
        return BatchedSparseLU(self.schedule, self.lu[members],
                               self.pivots[members],
                               self.failed_step[members], self.stability)

    def head(self, count) -> "BatchedSparseLU":
        """The first ``count`` members (views, no copy)."""
        return self._take(slice(0, count))

    def member(self, index) -> "SparseLUMember":
        """The ``index``-th factorization as a scalar view."""
        return SparseLUMember(self._take(slice(index, index + 1)))

    def check(self, index):
        """Raise :class:`SingularMatrixError` if member ``index`` degraded.

        The messages are the scalar refactorization's: callers fall back to
        a fresh :func:`sparse_lu` (new pivot order).
        """
        step = int(self.failed_step[index])
        if step < 0:
            return
        row = self.schedule.pivot_rows[step]
        col = self.schedule.pivot_cols[step]
        if self.pivots[index, step] == 0:
            message = f"reused pivot ({row}, {col}) is zero at step {step}"
        else:
            message = (f"reused pivot ({row}, {col}) lost "
                       f"{1.0 / self.stability:.0e} of its column magnitude "
                       f"at step {step}")
        raise SingularMatrixError(f"{message}; refactor with fresh pivoting",
                                  pivot_index=step, dimension=self.n)

    def determinants_mantissa_exponent(self) -> Tuple[np.ndarray, np.ndarray]:
        """Per-member ``det(A)`` as ``(mantissas, exponents)`` arrays.

        Each pivot is normalized to a mantissa in ``[1, 10)`` and a decimal
        exponent; the mantissas are multiplied in step order, renormalizing
        every :data:`_DETERMINANT_BLOCK` steps, before the product could
        leave the double range.  (Elementwise products only: numpy's
        reductions may group a lone row differently, which would break batch
        invariance.)  Degraded members report ``(0, 0)``.
        """
        with np.errstate(all="ignore"):
            shifts = np.floor(np.log10(np.abs(self.pivots)))
            shifts = np.clip(np.nan_to_num(shifts), -300.0, 300.0)
            normalized = self.pivots / 10.0 ** shifts
            mantissa = np.full(self.batch, float(self.schedule.sign),
                               dtype=complex)
            exponent = shifts.sum(axis=1)
            for step in range(self.n):
                mantissa = mantissa * normalized[:, step]
                if (step + 1) % _DETERMINANT_BLOCK == 0 or step == self.n - 1:
                    shift = np.floor(np.log10(np.abs(mantissa)))
                    shift = np.nan_to_num(shift, posinf=0.0, neginf=0.0)
                    mantissa = mantissa / 10.0 ** shift
                    exponent = exponent + shift
        healthy = ~self.degraded & np.isfinite(mantissa) & (mantissa != 0)
        return (np.where(healthy, mantissa, 0.0 + 0.0j),
                np.where(healthy, exponent, 0.0).astype(np.int64))

    def determinants(self) -> np.ndarray:
        """Per-member ``det(A)`` as plain complex values (see
        :func:`~repro.xfloat.decimal_complex`)."""
        return decimal_complex(*self.determinants_mantissa_exponent())

    def solve(self, rhs) -> np.ndarray:
        """Solve ``A_b x_b = b_b`` for every member.

        ``rhs`` is one shared right-hand side of length ``n`` or a
        ``(B, n)`` stack; returns ``(B, n)`` complex solutions.
        """
        rhs = np.asarray(rhs, dtype=complex)
        if rhs.shape == (self.n,):
            work = np.repeat(rhs[None, :, None], self.batch, axis=0)
        elif rhs.shape == (self.batch, self.n):
            work = rhs[:, :, None].copy()
        else:
            raise LinAlgError(
                f"rhs has shape {rhs.shape}, expected ({self.n},) or "
                f"({self.batch}, {self.n})")
        return self._substitute(work)[:, :, 0]

    def solve_matrix(self, rhs_matrix) -> np.ndarray:
        """Solve ``A_b X_b = B`` for a shared ``(n, m)`` right-hand-side
        matrix or a ``(B, n, m)`` stack; returns ``(B, n, m)``."""
        rhs_matrix = np.asarray(rhs_matrix, dtype=complex)
        if rhs_matrix.ndim == 2 and rhs_matrix.shape[0] == self.n:
            work = np.repeat(rhs_matrix[None], self.batch, axis=0)
        elif (rhs_matrix.ndim == 3
              and rhs_matrix.shape[:2] == (self.batch, self.n)):
            work = rhs_matrix.copy()
        else:
            raise LinAlgError(
                f"rhs matrix has shape {rhs_matrix.shape}, expected "
                f"({self.n}, m) or ({self.batch}, {self.n}, m)")
        return self._substitute(work)

    def _substitute(self, work):
        """Forward and back substitution on a ``(B, n, m)`` work array."""
        lu = self.lu
        solution = np.empty_like(work)
        with np.errstate(all="ignore"):
            for pivot_row, lower, rows in self.schedule._forward:
                work[:, rows] -= lu[:, lower, None] * work[:, pivot_row, None]
            for pivot_row, pivot_col, pivot, upper, rows in (
                    self.schedule._backward):
                value = work[:, pivot_row] / lu[:, pivot, None]
                solution[:, pivot_col] = value
                if rows.size:
                    work[:, rows] -= lu[:, upper, None] * value[:, None]
        degraded = self.degraded
        if degraded.any():
            solution[degraded] = 0.0
        return solution


class SparseLUMember(TrackedDeterminant):
    """One member of a :class:`BatchedSparseLU` as a scalar factorization.

    Has the query interface of :class:`LUFactorization` (``solve``,
    ``solve_many``, the determinant family, ``pivots``) and computes through
    the batched kernel on a batch of one, so its results are bitwise those
    of the batch it came from.
    """

    def __init__(self, single):
        self._single = single
        self.n = single.n
        self.pivot_rows = single.schedule.pivot_rows
        self.pivot_cols = single.schedule.pivot_cols
        self.fill_in = single.schedule.fill_in

    @property
    def pivots(self) -> List[complex]:
        """Pivot values in elimination order."""
        return self._single.pivots[0].tolist()

    def determinant_mantissa_exponent(self) -> Tuple[complex, int]:
        """``det(A)`` as ``(mantissa, exponent)``."""
        mantissas, exponents = self._single.determinants_mantissa_exponent()
        return complex(mantissas[0]), int(exponents[0])

    def solve(self, rhs):
        """Solve ``A x = b`` for a single right-hand side of length ``n``."""
        rhs = np.asarray(rhs, dtype=complex)
        if rhs.shape != (self.n,):
            raise LinAlgError(
                f"rhs has shape {rhs.shape}, expected ({self.n},)")
        return self._single.solve(rhs)[0]

    def solve_many(self, rhs_matrix):
        """Solve ``A X = B``; ``rhs_matrix`` is ``n x m`` (or a vector)."""
        rhs_matrix = np.asarray(rhs_matrix, dtype=complex)
        if rhs_matrix.ndim == 1:
            return self.solve(rhs_matrix)
        return self._single.solve_matrix(rhs_matrix)[0]


def sparse_lu_refactor(matrix, pattern, stability=1e-8) -> SparseLUMember:
    """Refactor ``matrix`` numerically, reusing the pivot order of ``pattern``.

    During a frequency sweep every matrix ``g·G + s_k·f·C`` shares one
    sparsity structure, so the (expensive) pivot search only needs to run
    once: subsequent points replay the same elimination order with fresh
    numbers.  This is a batch of one through ``pattern``'s compiled
    :class:`RefactorSchedule` (compiled on first use, recompiled over the
    union when ``matrix`` brings entries outside it), so it agrees bit for
    bit with the batched sweep paths.

    Parameters
    ----------
    matrix:
        Square :class:`~repro.linalg.sparse.SparseMatrix` of ``pattern``'s
        dimension.
    pattern:
        An :class:`LUFactorization` whose ``pivot_rows`` / ``pivot_cols``
        sequence is reused.
    stability:
        A pivot is rejected when its magnitude falls below ``stability`` times
        the largest magnitude in its column over the remaining rows.  Callers
        should fall back to a fresh :func:`sparse_lu` (new pivot order) on
        :class:`~repro.errors.SingularMatrixError`.

    Raises
    ------
    SingularMatrixError
        When a reused pivot is zero or numerically unacceptable at the new
        frequency point.
    """
    if matrix.n_rows != matrix.n_cols:
        raise LinAlgError("LU refactorization requires a square matrix")
    n = matrix.n_rows
    if pattern.n != n:
        raise LinAlgError(
            f"pattern is for a {pattern.n}x{pattern.n} matrix, "
            f"got {n}x{n}"
        )
    keys = []
    values = []
    for row, col, value in matrix.entries():
        keys.append((row, col))
        values.append(value)
    schedule = pattern.refactor_schedule(keys)
    factors = schedule.factor(np.array(values, dtype=complex)[None, :],
                              schedule.slots_of(keys), stability=stability)
    factors.check(0)
    return factors.member(0)


def sparse_lu_reusing(matrix, pattern, stability=1e-8, column_order=None):
    """Factor ``matrix``, reusing ``pattern``'s pivot order when possible.

    The factor-once / refactor-many policy shared by every sparse sweep path:
    with no ``pattern`` (first point) run the full pivot search — along the
    fill-reducing ``column_order`` when one is given, else the Markowitz
    scan — otherwise refactor along the known pivot order, falling back to a
    fresh factorization when a reused pivot is zero or numerically degraded.

    Returns
    -------
    (LUFactorization, LUFactorization, bool)
        The factorization, the pattern to reuse for the next point (a fresh
        factorization replaces a degraded pattern), and whether the cheap
        refactorization path was taken.
    """
    if pattern is not None:
        try:
            return (sparse_lu_refactor(matrix, pattern, stability=stability),
                    pattern, True)
        except SingularMatrixError:
            pass
    factorization = sparse_lu(matrix, column_order=column_order)
    return factorization, factorization, False


def _select_ordered_pivot(rows, col_index, active_rows, threshold, col):
    """Pivot for one pre-ordered elimination step: column ``col``, preferring
    the structurally symmetric row ``col`` under threshold partial pivoting.
    Returns ``(row, col)`` or ``(None, None)`` when the column has no usable
    entry (structurally or numerically deficient).
    """
    candidates = [i for i in col_index[col] if i in active_rows]
    if not candidates:
        return None, None
    best_row = max(candidates, key=lambda i: abs(rows[i][col]))
    column_max = abs(rows[best_row][col])
    if column_max == 0.0:
        return None, None
    if col in active_rows:
        diagonal = rows[col].get(col)
        if diagonal is not None and abs(diagonal) >= threshold * column_max:
            return col, col
    return best_row, col


def _select_pivot(rows, col_index, active_rows, active_cols, threshold,
                  pivoting):
    """Pick the next pivot; returns ``(row, col)`` or ``(None, None)``."""
    if not active_rows:
        return None, None

    if pivoting == "partial":
        # Eliminate the lowest-numbered active column, choosing the largest
        # magnitude entry in that column.
        for col in sorted(active_cols):
            candidates = [i for i in col_index[col] if i in active_rows]
            if not candidates:
                continue
            best_row = max(candidates, key=lambda i: abs(rows[i][col]))
            if abs(rows[best_row][col]) > 0.0:
                return best_row, col
        return None, None

    # Markowitz with threshold pivoting.
    # Per-column maximum magnitude over active rows (numerical acceptance).
    best = None
    best_cost = None
    best_magnitude = 0.0
    row_counts = {i: sum(1 for j in rows[i] if j in active_cols)
                  for i in active_rows}
    for col in active_cols:
        col_rows = [i for i in col_index[col] if i in active_rows]
        if not col_rows:
            continue
        col_max = max(abs(rows[i][col]) for i in col_rows)
        if col_max == 0.0:
            continue
        col_count = len(col_rows)
        for i in col_rows:
            magnitude = abs(rows[i][col])
            if magnitude < threshold * col_max or magnitude == 0.0:
                continue
            cost = (row_counts[i] - 1) * (col_count - 1)
            if (best_cost is None or cost < best_cost
                    or (cost == best_cost and magnitude > best_magnitude)):
                best = (i, col)
                best_cost = cost
                best_magnitude = magnitude
    if best is None:
        return None, None
    return best
