"""Rank-1 update sensitivity engine: kernels, stamps, and equivalence.

The contract under test: screening an element with the Sherman–Morrison
engine (``method="rank1"``) must agree with the brute-force oracle
(``method="rebuild"``) — same influence rankings, same singular-on-removal
elements, removal / perturbation responses within 1e-9 of each other — on the
µA741 macro and the Miller OTA, including VCCS elements and an element whose
removal makes the circuit singular.
"""

import numpy as np
import pytest

from repro.circuits.miller_ota import build_miller_ota
from repro.circuits.ua741 import build_ua741
from repro.errors import (FormulationError, SingularMatrixError,
                          UnknownElementError)
from repro.linalg.dense import batched_dense_lu, dense_lu
from repro.linalg.lu import sparse_lu, sparse_lu_refactor
from repro.linalg.rank1 import rank1_update_solve
from repro.linalg.sparse import SparseMatrix
from repro.mna.builder import build_mna_system
from repro.mna.solve import ac_factor_sweep, ac_sweep
from repro.analysis.sensitivity import element_sensitivities, screen_elements
from repro.netlist.circuit import Circuit
from repro.nodal.admittance import build_nodal_formulation
from repro.nodal.reduce import TransferSpec


@pytest.fixture(scope="module")
def ua741():
    return build_ua741()


@pytest.fixture(scope="module")
def miller():
    return build_miller_ota()


def _random_system(rng, n):
    matrix = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    matrix += n * np.eye(n)  # keep comfortably nonsingular
    rhs = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    u = rng.standard_normal(n)
    v = rng.standard_normal(n)
    return matrix, rhs, u, v


class TestRank1UpdateSolve:
    def test_dense_matches_direct_factorization(self):
        rng = np.random.default_rng(1)
        matrix, rhs, u, v = _random_system(rng, 9)
        delta = 0.7 - 0.3j
        updated = matrix + delta * np.outer(u, v)
        expected = dense_lu(updated).solve(rhs)
        actual = rank1_update_solve(dense_lu(matrix), u, v, delta, rhs)
        np.testing.assert_allclose(actual, expected, rtol=1e-10)

    def test_dense_reuses_precomputed_solutions(self):
        rng = np.random.default_rng(2)
        matrix, rhs, u, v = _random_system(rng, 7)
        factorization = dense_lu(matrix)
        baseline = factorization.solve(rhs)
        update = factorization.solve(u)
        delta = -1.5
        direct = rank1_update_solve(factorization, u, v, delta, rhs)
        reused = rank1_update_solve(factorization, u, v, delta, rhs,
                                    baseline_solution=baseline,
                                    update_solution=update)
        np.testing.assert_array_equal(direct, reused)

    def test_batched_with_per_member_delta(self):
        rng = np.random.default_rng(3)
        n, batch = 6, 5
        stack = (rng.standard_normal((batch, n, n))
                 + 1j * rng.standard_normal((batch, n, n))
                 + n * np.eye(n))
        rhs = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        u = rng.standard_normal(n)
        v = rng.standard_normal(n)
        deltas = rng.standard_normal(batch) + 1j * rng.standard_normal(batch)
        solutions = rank1_update_solve(batched_dense_lu(stack.copy()),
                                       u, v, deltas, rhs)
        for k in range(batch):
            updated = stack[k] + deltas[k] * np.outer(u, v)
            np.testing.assert_allclose(solutions[k],
                                       dense_lu(updated).solve(rhs),
                                       rtol=1e-9)

    def test_sparse_factorization_and_refactorization(self):
        rng = np.random.default_rng(4)
        matrix, rhs, u, v = _random_system(rng, 8)
        sparse = SparseMatrix.from_dense(matrix)
        factorization = sparse_lu(sparse)
        delta = 0.25 + 0.1j
        expected = dense_lu(matrix + delta * np.outer(u, v)).solve(rhs)
        np.testing.assert_allclose(
            rank1_update_solve(factorization, u, v, delta, rhs),
            expected, rtol=1e-9)
        # Factors produced by the refactor-many path work unchanged.
        refactored = sparse_lu_refactor(
            SparseMatrix.from_dense(matrix * (1.0 + 0.5j)), factorization)
        expected = dense_lu(matrix * (1.0 + 0.5j)
                            + delta * np.outer(u, v)).solve(rhs)
        np.testing.assert_allclose(
            rank1_update_solve(refactored, u, v, delta, rhs),
            expected, rtol=1e-9)

    def test_singular_update_raises(self):
        # A' = A - A e1 e1^T-ish: choose delta so that 1 + delta*v.(A^-1 u)=0.
        matrix = np.diag([2.0, 3.0, 4.0]).astype(complex)
        u = np.array([1.0, 0.0, 0.0])
        v = np.array([1.0, 0.0, 0.0])
        factorization = dense_lu(matrix)
        with pytest.raises(SingularMatrixError):
            rank1_update_solve(factorization, u, v, -2.0,
                               np.ones(3, dtype=complex))
        stack = np.broadcast_to(matrix, (4, 3, 3)).copy()
        with pytest.raises(SingularMatrixError):
            rank1_update_solve(batched_dense_lu(stack), u, v, -2.0,
                               np.ones(3, dtype=complex))


class TestBatchedSolveMatrix:
    def test_matches_per_column_solves(self):
        rng = np.random.default_rng(5)
        n, batch, columns = 7, 4, 3
        stack = (rng.standard_normal((batch, n, n))
                 + 1j * rng.standard_normal((batch, n, n))
                 + n * np.eye(n))
        rhs_matrix = (rng.standard_normal((n, columns))
                      + 1j * rng.standard_normal((n, columns)))
        factorization = batched_dense_lu(stack.copy())
        solutions = factorization.solve_matrix(rhs_matrix)
        assert solutions.shape == (batch, n, columns)
        for j in range(columns):
            np.testing.assert_allclose(
                solutions[:, :, j],
                factorization.solve(rhs_matrix[:, j]), rtol=1e-12)

    def test_rejects_bad_shapes(self):
        stack = np.eye(3)[None, :, :].astype(complex)
        factorization = batched_dense_lu(stack)
        with pytest.raises(Exception):
            factorization.solve_matrix(np.zeros((4, 2)))


class TestElementStamps:
    def test_mna_stamp_reconstructs_assembly(self, ua741):
        circuit, __ = ua741
        system = build_mna_system(circuit)
        s = 2j * np.pi * 1e5
        full = system.assemble(s).to_dense()
        # One of each stamped kind: resistor, expanded-device conductor,
        # capacitor and VCCS.
        for name in ("RL", "Q17.gpi", "Cc", "Q17.gm"):
            stamp = system.element_stamp(name)
            removed = build_mna_system(circuit.with_element_removed(name))
            assert removed.node_names == system.node_names
            reconstructed = (removed.assemble(s).to_dense()
                             + stamp.admittance(s) * np.outer(stamp.u, stamp.v))
            np.testing.assert_allclose(reconstructed, full, rtol=1e-12,
                                       atol=1e-30)

    def test_mna_stamp_rejects_branch_elements(self, ua741):
        circuit, __ = ua741
        system = build_mna_system(circuit)
        with pytest.raises(FormulationError):
            system.element_stamp("Vip")

    def test_nodal_stamp_with_forced_nodes(self, miller):
        circuit, spec = miller
        formulation = build_nodal_formulation(circuit, spec)
        s = 2j * np.pi * 1e6
        factor = 1.37
        # M1.cgs touches the forced input node "inp", M1.gm is controlled by
        # it: both matrix and right-hand side must shift per the stamp.
        for name in ("M1.cgs", "M1.gm", "Cc"):
            stamp = formulation.element_stamp(name)
            scaled = build_nodal_formulation(
                circuit.with_value_scaled(name, factor), spec)
            delta = (factor - 1.0) * stamp.admittance(s)
            np.testing.assert_allclose(
                formulation.assemble(s).to_dense()
                + delta * np.outer(stamp.u, stamp.v),
                scaled.assemble(s).to_dense(), rtol=1e-12, atol=1e-30)
            np.testing.assert_allclose(
                formulation.rhs(s) - delta * stamp.rhs_projection * stamp.u,
                scaled.rhs(s), rtol=1e-12, atol=1e-30)

    def test_nodal_stamp_solves_scaled_circuit(self, miller):
        # End to end: rank1_update_solve on the baseline factors reproduces
        # the scaled circuit's solution, forced-node coupling included.
        circuit, spec = miller
        formulation = build_nodal_formulation(circuit, spec)
        s = 2j * np.pi * 1e6
        name, factor = "M1.gm", 1.25
        stamp = formulation.element_stamp(name)
        delta = (factor - 1.0) * stamp.admittance(s)
        factorization = dense_lu(formulation.assemble(s).to_dense())
        solution = rank1_update_solve(
            factorization, stamp.u, stamp.v, delta,
            formulation.rhs(s) - delta * stamp.rhs_projection * stamp.u)
        scaled = build_nodal_formulation(
            circuit.with_value_scaled(name, factor), spec)
        expected = dense_lu(scaled.assemble(s).to_dense()).solve(scaled.rhs(s))
        np.testing.assert_allclose(solution, expected, rtol=1e-9)


class TestAcFactorSweep:
    def test_solve_matches_ac_sweep(self, ua741):
        circuit, __ = ua741
        system = build_mna_system(circuit)
        s = 2j * np.pi * np.logspace(0, 8, 17)
        sweep = ac_factor_sweep(system, s)
        np.testing.assert_array_equal(sweep.solve(system.rhs),
                                      ac_sweep(system, s))

    def test_sparse_path_matches_dense(self, miller):
        circuit, __ = miller
        system = build_mna_system(circuit)
        s = 2j * np.pi * np.logspace(3, 7, 5)
        dense = ac_factor_sweep(system, s, method="dense")
        sparse = ac_factor_sweep(system, s, method="sparse")
        np.testing.assert_allclose(sparse.solve(system.rhs),
                                   dense.solve(system.rhs), rtol=1e-9)
        columns = np.eye(system.dimension)[:, :3]
        np.testing.assert_allclose(sparse.solve_columns(columns),
                                   dense.solve_columns(columns), rtol=1e-9)


def _assert_equivalent(circuit, output, frequencies, elements=None):
    """rank1 and rebuild screenings must agree on every contract point."""
    rank1 = screen_elements(circuit, output, frequencies, elements=elements,
                            method="rank1")
    rebuild = screen_elements(circuit, output, frequencies, elements=elements,
                              method="rebuild")
    np.testing.assert_array_equal(rank1.baseline, rebuild.baseline)
    tiny = np.finfo(float).tiny
    for ours, oracle in zip(rank1.screenings, rebuild.screenings):
        assert ours.name == oracle.name
        for candidate, reference in (
            (ours.removal_response, oracle.removal_response),
            (ours.perturbed_response, oracle.perturbed_response),
        ):
            assert (candidate is None) == (reference is None), ours.name
            if candidate is None:
                continue
            scale = np.maximum(
                np.maximum(np.abs(reference), np.abs(rebuild.baseline)), tiny)
            assert float(np.max(np.abs(candidate - reference) / scale)) \
                <= 1e-9, ours.name
    assert ([i.name for i in rank1.influences()]
            == [i.name for i in rebuild.influences()])
    return rank1, rebuild


class TestScreeningEquivalence:
    def test_ua741_full_element_set(self, ua741):
        circuit, spec = ua741
        _assert_equivalent(circuit, spec, np.logspace(0, 8, 7))

    def test_miller_ota_full_element_set(self, miller):
        circuit, spec = miller
        rank1, __ = _assert_equivalent(circuit, spec, np.logspace(2, 8, 9))
        # The Miller OTA's screened set includes VCCS transconductances.
        assert any(name.endswith(".gm")
                   for name in (s.name for s in rank1.screenings))

    def test_vccs_specifically(self, miller):
        circuit, spec = miller
        _assert_equivalent(circuit, spec, np.logspace(2, 8, 9),
                           elements=["M1.gm", "M6.gm"])

    def test_singular_removal_element(self):
        # Node "b" hangs off the circuit through Rb alone: removing Rb leaves
        # a floating node — a structurally singular matrix — so both engines
        # must report infinite removal influence.
        circuit = Circuit("dangling")
        circuit.add_voltage_source("vin", "in", "0", 1.0)
        circuit.add_resistor("R1", "in", "out", 1e3)
        circuit.add_resistor("RL", "out", "0", 2e3)
        circuit.add_resistor("Rb", "out", "b", 1e4)
        frequencies = np.logspace(1, 6, 5)
        rank1, rebuild = _assert_equivalent(circuit, "out", frequencies)
        for result in (rank1, rebuild):
            influences = {i.name: i for i in result.influences()}
            assert influences["Rb"].removal_error == np.inf
            assert np.isfinite(influences["R1"].removal_error)
        # And the ranking puts the essential element last.
        assert [i.name for i in rank1.influences()][-1] == "Rb"

    def test_output_pair_and_transfer_spec(self, miller):
        circuit, __ = miller
        frequencies = np.logspace(3, 7, 5)
        spec_based = element_sensitivities(
            circuit, TransferSpec(inputs=["vip", "vim"], output="vout"),
            frequencies, elements=["Cc", "CL"])
        pair_based = element_sensitivities(
            circuit, ("vout", "0"), frequencies, elements=["Cc", "CL"])
        assert ([i.name for i in spec_based]
                == [i.name for i in pair_based])

    def test_unknown_element_raises_instead_of_inf(self, miller):
        # The old screening swallowed every exception into an infinite
        # influence figure; real bugs must surface now.
        circuit, spec = miller
        for method in ("rank1", "rebuild"):
            with pytest.raises(UnknownElementError):
                element_sensitivities(circuit, spec, np.logspace(3, 6, 3),
                                      elements=["nope"], method=method)

    def test_rank1_is_the_default(self, miller):
        circuit, spec = miller
        frequencies = np.logspace(3, 7, 5)
        default = screen_elements(circuit, spec, frequencies,
                                  elements=["Cc"])
        assert default.method == "rank1"
