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
from repro.errors import FormulationError, UnknownElementError
from repro.linalg.dense import batched_dense_lu
from repro.mna.builder import build_mna_system
from repro.mna.solve import ac_factor_sweep, ac_sweep
from repro.analysis.sensitivity import element_sensitivities, screen_elements
from repro.netlist.circuit import Circuit
from repro.nodal.reduce import TransferSpec


@pytest.fixture(scope="module")
def ua741():
    return build_ua741()


@pytest.fixture(scope="module")
def miller():
    return build_miller_ota()


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
            admittance = stamp.conductance + s * stamp.capacitance
            reconstructed = (removed.assemble(s).to_dense()
                             + admittance * np.outer(stamp.u, stamp.v))
            np.testing.assert_allclose(reconstructed, full, rtol=1e-12,
                                       atol=1e-30)

    def test_mna_stamp_rejects_branch_elements(self, ua741):
        circuit, __ = ua741
        system = build_mna_system(circuit)
        with pytest.raises(FormulationError):
            system.element_stamp("Vip")


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
