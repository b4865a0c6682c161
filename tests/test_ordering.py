"""Fill-reducing elimination orderings: correctness, parity and error paths.

Three pillars of the ordered sparse engine:

* **Permutation round-trip** — factoring ``A`` under ``column_order`` is
  bit-for-bit the same computation as factoring the symmetrically permuted
  ``P·A·Pᵀ`` in natural order: identical pivots, and identical solutions
  after back-permutation.  This is what lets the engine keep its factors in
  original index space (no back-permutation anywhere downstream).
* **Fill-in monotonicity** — the AMD order is never beaten by the natural
  order on the generator topologies (and is exact — zero fill — on trees).
* **Error paths** — structurally deficient and numerically singular systems
  fail loudly through :func:`~repro.linalg.lu.sparse_lu`, with and without
  an ordering, and a compiled :class:`~repro.linalg.lu.RefactorSchedule`
  flags a reused pivot that collapses.

The sweep engine eliminates along that AMD order of its merged structure.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.circuits import build_clock_tree, build_rc_mesh
from repro.circuits.generators import build_generator
from repro.engine.sweep import SweepEngine
from repro.errors import LinAlgError, SingularMatrixError
from repro.linalg.lu import (REFACTOR_STABILITY, RefactorSchedule, sparse_lu,
                             sparse_lu_reusing)
from repro.linalg.ordering import (fill_reducing_order, inverse_permutation,
                                   permute_symmetric)
from repro.linalg.sparse import SparseMatrix
from repro.mna.builder import build_mna_system
from repro.netlist.transform import to_admittance_form
from repro.nodal.admittance import build_nodal_formulation

from strategies import random_circuit


def _mesh_matrix(rows, cols=None, s=2j * np.pi * 1e5, seed=0):
    """Assembled MNA matrix plus merged keys of one RC mesh."""
    circuit, _spec = build_rc_mesh(rows, cols, seed=seed)
    system = build_mna_system(circuit)
    keys, __, ___ = system.merged_sparse_structure()
    return system.assemble(s), keys, system


class TestPermutationRoundTrip:
    """column_order factoring ≡ factoring the permuted matrix, to the bit."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_mesh_round_trip(self, seed):
        matrix, keys, system = _mesh_matrix(7, seed=seed)
        n = matrix.n_rows
        order = fill_reducing_order(n, keys)
        assert sorted(order) == list(range(n))

        direct = sparse_lu(matrix, column_order=order)
        permuted = permute_symmetric(matrix, order)
        natural = sparse_lu(permuted, column_order=list(range(n)))

        # Same elimination arithmetic → identical pivot values, bit for bit.
        assert direct.pivots == natural.pivots, seed
        assert direct.fill_in == natural.fill_in, seed

        rhs = np.asarray(system.rhs, dtype=complex)
        x_direct = np.asarray(direct.solve(rhs))
        y = np.asarray(natural.solve(rhs[order]))
        x_back = np.empty_like(y)
        x_back[order] = y     # x[order[i]] = y[i]: undo the row permutation
        assert np.array_equal(x_direct, x_back), seed

        # And both must actually solve the original system.
        residual = np.max(np.abs(matrix.to_dense() @ x_direct - rhs))
        assert residual <= 1e-9 * np.abs(matrix.to_dense()).max(), seed

    @pytest.mark.parametrize("seed", [11, 12, 13])
    def test_random_circuit_round_trip(self, seed):
        circuit, _spec = random_circuit(seed)
        system = build_mna_system(circuit)
        keys, __, ___ = system.merged_sparse_structure()
        matrix = system.assemble(2j * np.pi * 997.0)
        n = matrix.n_rows
        order = fill_reducing_order(n, keys)
        direct = sparse_lu(matrix, column_order=order)
        natural = sparse_lu(permute_symmetric(matrix, order),
                            column_order=list(range(n)))
        assert direct.pivots == natural.pivots, seed

    def test_permute_symmetric_round_trip(self):
        matrix, keys, __ = _mesh_matrix(4)
        order = fill_reducing_order(matrix.n_rows, keys)
        inverse = inverse_permutation(order)
        assert [order[i] for i in inverse] == list(range(matrix.n_rows))
        back = permute_symmetric(permute_symmetric(matrix, order), inverse)
        assert np.array_equal(back.to_dense(), matrix.to_dense())


class TestFillMonotonicity:
    """The AMD order never loses to the natural order on generators."""

    @pytest.mark.parametrize("rows", [6, 10, 14])
    def test_mesh_fill(self, rows):
        matrix, keys, __ = _mesh_matrix(rows)
        n = matrix.n_rows
        natural = sparse_lu(matrix, column_order=list(range(n))).fill_in
        order = fill_reducing_order(n, keys)
        ordered = sparse_lu(matrix, column_order=order).fill_in
        assert ordered <= natural, (rows, ordered, natural)

    @pytest.mark.parametrize("levels", [4, 6])
    def test_tree_fill_is_zero(self, levels):
        circuit, __ = build_clock_tree(levels)
        system = build_mna_system(circuit)
        keys, _c, _d = system.merged_sparse_structure()
        matrix = system.assemble(2j * np.pi * 1e5)
        order = fill_reducing_order(matrix.n_rows, keys)
        # Eliminating leaves first, a tree factors with no fill at all.
        assert sparse_lu(matrix, column_order=order).fill_in == 0


class TestErrorPaths:
    """Deficient systems fail loudly, ordered or not."""

    def test_column_order_must_be_permutation(self):
        matrix = SparseMatrix.from_dense(np.eye(3))
        with pytest.raises(LinAlgError, match="permutation"):
            sparse_lu(matrix, column_order=[0, 1, 1])
        with pytest.raises(LinAlgError, match="permutation"):
            sparse_lu(matrix, column_order=[0, 1])

    def test_structurally_empty_column(self):
        # Column 1 has no entries at all: no pivot exists in any order.
        matrix = SparseMatrix.from_entries(
            3, 3, [((0, 0), 1.0), ((1, 0), 2.0), ((2, 2), 3.0)])
        with pytest.raises(SingularMatrixError):
            sparse_lu(matrix)
        with pytest.raises(SingularMatrixError):
            sparse_lu(matrix, column_order=[1, 0, 2])

    def test_numerically_singular(self):
        # Rank 1: the second elimination step finds only cancelled entries.
        matrix = SparseMatrix.from_entries(
            2, 2, [((0, 0), 1.0), ((0, 1), 2.0),
                   ((1, 0), 2.0), ((1, 1), 4.0)])
        with pytest.raises(SingularMatrixError):
            sparse_lu(matrix, column_order=[0, 1])

    def test_refactor_rejects_zeroed_pivot_at_scale(self):
        # A mid-size mesh (n > 50): factor once with ordering, then refactor
        # a matrix whose first reused pivot has been cancelled to zero.
        matrix, keys, system = _mesh_matrix(8)
        n = matrix.n_rows
        order = fill_reducing_order(n, keys)
        factorization, pattern, refactored = sparse_lu_reusing(matrix, order)
        assert not refactored and pattern is factorization
        assert pattern.pivot_cols == order

        broken = matrix.copy()
        row, col = pattern.pivot_rows[0], pattern.pivot_cols[0]
        broken.add(row, col, -broken.get(row, col))
        schedule = RefactorSchedule(n, pattern.pivot_rows, pattern.pivot_cols,
                                    keys)
        factors = schedule.factor([[broken.get(*key) for key in keys]],
                                  schedule.slots_of(keys))
        assert factors.failed_step.tolist() == [0]
        assert factors.pivots[0, 0] == 0

    def test_refactor_rejects_degraded_pivot(self):
        # The reused (0, 0) pivot collapses to 1e-12 of its column: the
        # stability guard must demand fresh pivoting instead of dividing.
        keys = [(0, 0), (0, 1), (1, 0), (1, 1)]
        matrix = SparseMatrix.from_entries(2, 2, zip(keys, [4.0, 1.0, 1.0,
                                                            4.0]))
        __, pattern, ___ = sparse_lu_reusing(matrix, [0, 1])
        schedule = RefactorSchedule(2, pattern.pivot_rows, pattern.pivot_cols,
                                    keys)
        factors = schedule.factor([[4e-12, 1.0, 1.0, 4.0]],
                                  schedule.slots_of(keys))
        assert factors.failed_step.tolist() == [0]
        assert 0 < abs(factors.pivots[0, 0]) < REFACTOR_STABILITY

    def test_refactor_shape_mismatch(self):
        matrix, keys, __ = _mesh_matrix(4)
        __, pattern, ___ = sparse_lu_reusing(matrix)
        n = pattern.n
        with pytest.raises(LinAlgError, match="out of bounds"):
            RefactorSchedule(n, pattern.pivot_rows, pattern.pivot_cols,
                             [(n, n)])
        schedule = RefactorSchedule(n, pattern.pivot_rows, pattern.pivot_cols,
                                    keys)
        with pytest.raises(LinAlgError, match="values must be"):
            schedule.factor(np.ones((1, len(keys) + 1)),
                            schedule.slots_of(keys))

    def test_singular_system_through_engine(self):
        # A floating node reaches the engine as a structurally deficient
        # sparse system and must surface as SingularMatrixError.
        from repro.netlist.circuit import Circuit

        circuit = Circuit("floating")
        circuit.add_voltage_source("Vin", "in", "0", 1.0)
        circuit.add_resistor("R1", "in", "a", 1e3)
        circuit.add_capacitor("C1", "b", "0", 1e-12)   # b floats at DC
        system = build_mna_system(circuit)
        engine = SweepEngine(system, method="sparse")
        with pytest.raises(SingularMatrixError):
            engine.solve_sweep(np.array([0.0 + 0.0j]), system.rhs)


class TestEngineOrdering:
    """The sweep engine eliminates along the AMD order of its structure."""

    @pytest.mark.parametrize("kind", ["mna", "nodal"])
    def test_engine_uses_fill_reducing_order(self, kind):
        circuit, spec = build_generator("mesh", 60, seed=2)
        if kind == "mna":
            formulation = build_mna_system(circuit)
        else:
            formulation = build_nodal_formulation(
                to_admittance_form(circuit), spec)
        keys, __, ___ = formulation.merged_sparse_structure()
        n = formulation.dimension
        order = SweepEngine(formulation, method="sparse").column_order()
        assert order == fill_reducing_order(n, keys)
        assert sorted(order) == list(range(n))

    def test_engine_order_solves(self):
        circuit, spec = build_rc_mesh(6)
        system = build_mna_system(circuit)
        s = 2j * np.pi * np.logspace(2, 8, 4)
        reference = SweepEngine(system, method="dense").solve_sweep(
            s, system.rhs)
        solution = SweepEngine(system, method="sparse").solve_sweep(
            s, system.rhs)
        norms = np.linalg.norm(reference, axis=1, keepdims=True)
        deviation = float(np.max(np.abs(solution - reference) / norms))
        assert deviation <= 1e-10, deviation
