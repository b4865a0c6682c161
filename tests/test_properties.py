"""Randomized property tests over generated circuits (fixed seeds, CI-stable).

Fifty-plus circuits from :mod:`tests.strategies` cross-check the library's
independent computation paths against each other:

* MNA vs nodal transfer functions (two formulations, one answer),
* symbolic vs numeric determinants (the symbolic kernel against
  ``repro.linalg``),
* rank-1 vs rebuild sensitivity screening (Sherman–Morrison against the
  brute-force oracle),
* vectorized Monte Carlo ensembles vs per-sample rebuilds (bit-exact),
* dense vs ordered-sparse sweep dispatch on post-layout-scale generator
  topologies (transfer parity, identical screening rankings, bit-identical
  Monte Carlo above the dense cutoff).

Every seed is pinned, so a failure reproduces locally with the seed in the
test id.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.analysis.ac import ACAnalysis
from repro.analysis.sensitivity import screen_elements
from repro.linalg.dense import dense_lu
from repro.montecarlo import ParameterSpace, ensemble_sweep, rebuild_sweep
from repro.netlist.elements import Capacitor, Resistor, VCCS
from repro.netlist.transform import to_admittance_form
from repro.nodal.admittance import build_nodal_formulation
from repro.nodal.sampler import NetworkFunctionSampler
from repro.symbolic.determinant import symbolic_determinant
from repro.symbolic.matrix import build_symbolic_nodal

from strategies import random_circuit, random_sparse_topology

#: 20 + 12 + 12 + 8 = 52 small generated circuits per run, plus
#: 20 + 3 + 3 = 26 post-layout-scale generator topologies.
MNA_VS_NODAL_SEEDS = list(range(100, 120))
DETERMINANT_SEEDS = list(range(200, 212))
SCREENING_SEEDS = list(range(300, 312))
MONTECARLO_SEEDS = list(range(400, 408))
SPARSE_DISPATCH_SEEDS = list(range(500, 520))
SPARSE_SCREENING_SEEDS = list(range(600, 603))
SPARSE_MONTECARLO_SEEDS = list(range(700, 703))
COMPILED_MODEL_SEEDS = list(range(800, 812))

_PROBE_FREQUENCIES = np.array([13.0, 997.0, 1.1e4, 2.3e5, 5.7e6])


def _relative(reference, candidate):
    scale = np.maximum(np.maximum(np.abs(reference), np.abs(candidate)),
                       np.finfo(float).tiny)
    return float(np.max(np.abs(candidate - reference) / scale))


class TestMnaVsNodal:
    """The MNA sweep and the nodal sampler agree on every generated circuit."""

    @pytest.mark.parametrize("seed", MNA_VS_NODAL_SEEDS)
    def test_transfer_equivalence(self, seed):
        circuit, spec = random_circuit(seed)
        mna_response = ACAnalysis(circuit, spec).frequency_response(
            _PROBE_FREQUENCIES)

        admittance = to_admittance_form(circuit)
        sampler = NetworkFunctionSampler(admittance, spec)
        points = (2j * math.pi * _PROBE_FREQUENCIES).tolist()
        nodal_response = np.array([sample.transfer()
                                   for sample in sampler.sample_many(points)])
        # The OTA engine test compares differential cancellation noise
        # absolutely; these single-ended outputs are well-conditioned, so a
        # tight symmetric relative bound holds.
        assert _relative(mna_response, nodal_response) <= 1e-8, seed


class TestSymbolicVsNumericDeterminant:
    """The symbolic determinant evaluates to the numeric one at random s."""

    @pytest.mark.parametrize("seed", DETERMINANT_SEEDS)
    def test_determinant_matches_linalg(self, seed):
        # Small circuits only: exact expansion is exponential in size.
        circuit, spec = random_circuit(seed, min_nodes=3, max_nodes=4)
        admittance = to_admittance_form(circuit)
        nodal = build_symbolic_nodal(admittance, spec)
        formulation = build_nodal_formulation(admittance, spec)
        symbolic = symbolic_determinant(nodal.entries, nodal.dimension,
                                        max_terms=2_000_000)
        rng = np.random.default_rng(seed)
        for __ in range(3):
            magnitude = 10.0 ** rng.uniform(3.0, 7.0)
            angle = rng.uniform(0.2, math.pi - 0.2)
            s = magnitude * complex(math.cos(angle), math.sin(angle))
            mantissa, exponent = dense_lu(
                formulation.assemble(s)).determinant_mantissa_exponent()
            expected = complex(mantissa) * 10.0 ** exponent
            value = symbolic.evaluate(nodal.table, s)
            assert value == pytest.approx(expected, rel=1e-6), (seed, s)


class TestRank1VsRebuildScreening:
    """Sherman–Morrison screening equals the rebuild oracle on random circuits."""

    @pytest.mark.parametrize("seed", SCREENING_SEEDS)
    def test_screening_equivalence(self, seed):
        circuit, spec = random_circuit(seed)
        frequencies = _PROBE_FREQUENCIES
        rank1 = screen_elements(circuit, spec, frequencies, method="rank1")
        rebuild = screen_elements(circuit, spec, frequencies,
                                  method="rebuild")
        assert len(rank1.screenings) == len(rebuild.screenings)
        for ours, oracle in zip(rank1.screenings, rebuild.screenings):
            assert ours.name == oracle.name
            for candidate, reference in (
                (ours.removal_response, oracle.removal_response),
                (ours.perturbed_response, oracle.perturbed_response),
            ):
                assert (candidate is None) == (reference is None), (
                    seed, ours.name)
                if candidate is None:
                    continue
                scale = np.maximum(
                    np.maximum(np.abs(reference), np.abs(rebuild.baseline)),
                    np.finfo(float).tiny)
                deviation = float(np.max(np.abs(candidate - reference)
                                         / scale))
                # Random circuits draw values across eight decades, so the
                # Sherman–Morrison correction runs at harsher conditioning
                # than the library circuits (whose 1e-9 bound lives in
                # benchmarks/bench_sensitivity.py); observed worst cases sit
                # around 1e-6 of the per-frequency response scale.
                assert deviation <= 1e-5, (seed, ours.name, deviation)


class TestMonteCarloVsRebuild:
    """The vectorized ensemble engine is bit-exact on random circuits too."""

    @pytest.mark.parametrize("seed", MONTECARLO_SEEDS)
    def test_ensemble_bit_parity(self, seed):
        circuit, spec = random_circuit(seed)
        names = [element.name for element in circuit
                 if isinstance(element, (Resistor, Capacitor, VCCS))][:6]
        space = ParameterSpace(circuit, {name: 0.1 for name in names})
        frequencies = _PROBE_FREQUENCIES
        vectorized = ensemble_sweep(circuit, spec, frequencies, space,
                                    samples=7, seed=seed)
        one_at_a_time = rebuild_sweep(circuit, spec, frequencies, space,
                                      values=vectorized.values,
                                      solver="lapack")
        assert np.array_equal(vectorized.responses,
                              one_at_a_time.responses), seed

        reference = rebuild_sweep(circuit, spec, frequencies, space,
                                  values=vectorized.values, solver="lu")
        assert _relative(reference.responses,
                         vectorized.responses) <= 1e-9, seed


#: Sweep grid for the post-layout-scale generator topologies (their poles
#: live higher than the small random circuits').
_SPARSE_PROBE_FREQUENCIES = np.logspace(2.0, 8.0, 5)


class TestSparseVsDenseDispatch:
    """Dense and ordered-sparse sweeps agree on every generator topology.

    Twenty seeded mesh / tree / bus circuits at 100–300 unknowns — all above
    the default dense cutoff — run through both dispatch paths of the same
    :class:`~repro.engine.sweep.SweepEngine`.  The transfer function is
    compared on the response scale and the full solution stack on the
    per-frequency solution norm (component-wise relative error is
    ill-defined at the crosstalk outputs' cancellation floors).
    """

    @pytest.mark.parametrize("seed", SPARSE_DISPATCH_SEEDS)
    def test_transfer_parity(self, seed):
        from repro.engine.sweep import SweepEngine
        from repro.mna.builder import build_mna_system

        circuit, spec = random_sparse_topology(seed, min_dimension=151)
        system = build_mna_system(circuit)
        assert system.dimension > 150, (seed, system.dimension)
        s = 2j * np.pi * _SPARSE_PROBE_FREQUENCIES

        dense_engine = SweepEngine(system, method="dense")
        sparse_engine = SweepEngine(system, method="sparse")
        assert dense_engine.is_dense and not sparse_engine.is_dense, seed
        dense = dense_engine.solve_sweep(s, system.rhs)
        sparse = sparse_engine.solve_sweep(s, system.rhs)

        norms = np.linalg.norm(dense, axis=1, keepdims=True)
        assert float(np.max(np.abs(dense - sparse) / norms)) <= 1e-8, seed

        reference = np.array([system.node_voltage(row, spec.output)
                              for row in dense])
        candidate = np.array([system.node_voltage(row, spec.output)
                              for row in sparse])
        scale = max(float(np.max(np.abs(reference))), np.finfo(float).tiny)
        assert float(np.max(np.abs(candidate - reference))) / scale <= 1e-8, (
            seed)


class TestSparseScreeningRanking:
    """Rank-1 screening ranks identically on dense and sparse factors."""

    @pytest.mark.parametrize("seed", SPARSE_SCREENING_SEEDS)
    def test_ranking_identical(self, seed, monkeypatch):
        circuit, spec = random_sparse_topology(seed, min_dimension=150,
                                               max_dimension=200)
        # A deterministic element subset keeps the Sherman–Morrison pass
        # affordable at this scale.
        names = [element.name for element in circuit
                 if isinstance(element, (Resistor, Capacitor))][::17][:12]
        frequencies = _SPARSE_PROBE_FREQUENCIES

        monkeypatch.setenv("REPRO_DENSE_CUTOFF", "100000")
        dense = screen_elements(circuit, spec, frequencies, elements=names)
        monkeypatch.setenv("REPRO_DENSE_CUTOFF", "1")
        sparse = screen_elements(circuit, spec, frequencies, elements=names)

        dense_ranking = [item.name for item in dense.influences()]
        sparse_ranking = [item.name for item in sparse.influences()]
        assert dense_ranking == sparse_ranking, seed
        for ours, oracle in zip(sparse.screenings, dense.screenings):
            assert ours.name == oracle.name
            for candidate, reference in (
                (ours.removal_response, oracle.removal_response),
                (ours.perturbed_response, oracle.perturbed_response),
            ):
                assert (candidate is None) == (reference is None), (
                    seed, ours.name)
                if candidate is not None:
                    scale = np.maximum(np.abs(dense.baseline),
                                       np.finfo(float).tiny)
                    assert float(np.max(np.abs(candidate - reference)
                                        / scale)) <= 1e-8, (seed, ours.name)


class TestSparseMonteCarloParity:
    """Above the dense cutoff ensembles equal the ``solver="lu"`` rebuild."""

    @pytest.mark.parametrize("seed", SPARSE_MONTECARLO_SEEDS)
    def test_ensemble_bit_parity(self, seed):
        circuit, spec = random_sparse_topology(seed, min_dimension=160,
                                               max_dimension=220)
        names = [element.name for element in circuit
                 if isinstance(element, (Resistor, Capacitor))][::11][:8]
        space = ParameterSpace(circuit, {name: 0.05 for name in names})
        frequencies = _SPARSE_PROBE_FREQUENCIES
        vectorized = ensemble_sweep(circuit, spec, frequencies, space,
                                    samples=4, seed=seed)
        reference = rebuild_sweep(circuit, spec, frequencies, space,
                                  values=vectorized.values, solver="lu")
        assert np.array_equal(vectorized.responses, reference.responses), seed


class TestCompiledModelVsMatrixSolve:
    """The compiled coefficient-tensor model equals the MNA matrix solve.

    Twelve seeded small circuits (the symbolic expansion is exponential, so
    the generator stays at 3–4 nodes; the seed range cycles rc / rlc / vccs
    kinds, so inductor gyrator-C slots and negative transconductances are
    covered).  Each circuit's compiled model is evaluated at randomly
    perturbed element values and random frequencies, against per-sample MNA
    rebuild + :func:`repro.linalg.dense.batched_solve`.
    """

    @pytest.mark.parametrize("seed", COMPILED_MODEL_SEEDS)
    def test_perturbed_values_match_matrix_solve(self, seed):
        import dataclasses

        from repro.linalg.dense import batched_solve
        from repro.mna.builder import build_mna_system
        from repro.montecarlo import compiled_ensemble_sweep

        circuit, spec = random_circuit(seed, min_nodes=3, max_nodes=4)
        rng = np.random.default_rng(seed + 10_000)
        axes = {element.name: 0.2 for element in circuit
                if type(element).__name__ in ("Resistor", "Conductor",
                                              "Capacitor", "Inductor",
                                              "VCCS")}
        space = ParameterSpace(circuit, axes)
        values = space.sample_values(4, seed=seed)
        frequencies = 10.0 ** rng.uniform(1.0, 7.0, size=3)

        compiled = compiled_ensemble_sweep(circuit, spec, frequencies,
                                           space, values=values)

        s = 2j * np.pi * frequencies
        reference = np.empty_like(compiled.responses)
        for row, sample in enumerate(values):
            perturbed = circuit.copy()
            for axis, value in zip(space.axes, sample):
                element = perturbed[axis.name]
                field = "gm" if hasattr(element, "gm") else "value"
                perturbed.replace(
                    dataclasses.replace(element, **{field: float(value)}))
            system = build_mna_system(perturbed)
            solutions = batched_solve(system.assemble_batch(s), system.rhs)
            reference[row] = [system.node_voltage(solution, spec.output)
                              for solution in solutions]
        assert _relative(reference, compiled.responses) <= 1e-8, seed


class TestCompiledOverflowRegime:
    """Extreme element values stay finite on the log-domain fold.

    A six-stage ladder at conductances and capacitances of ``1e12`` has
    denominator coefficients near ``1e72``; at ``|s| = 1e40`` the leading
    monomial is ``~1e312`` — past double-precision overflow, so a plain
    linear-domain Horner pass would return ``inf``.  The compiled model's
    peak-extracted fold and grid evaluation must stay finite and match the
    extended-range XFloat oracle (symbolic coefficient values combined with
    the exponent-cancelling :class:`RationalFunction`).
    """

    @staticmethod
    def _ladder(resistance, capacitance):
        from repro.netlist.circuit import Circuit
        from repro.nodal.reduce import TransferSpec

        circuit = Circuit("overflow-ladder")
        circuit.add_voltage_source("Vin", "in", "0", 1.0)
        previous = "in"
        for index in range(1, 7):
            node = f"n{index}"
            circuit.add_resistor(f"R{index}", previous, node, resistance)
            circuit.add_capacitor(f"C{index}", node, "0", capacitance)
            previous = node
        return circuit, TransferSpec(inputs=["Vin"], output="n6")

    @staticmethod
    def _xfloat_rational(transfer):
        """Extended-range oracle from the symbolic coefficient values."""
        from repro.interpolation.polynomial import Polynomial
        from repro.interpolation.rational import RationalFunction

        def side(kind):
            maximum = transfer._expression(kind).max_s_power()
            return Polynomial([transfer.coefficient_value(kind, power)
                               for power in range(maximum + 1)])

        return RationalFunction(side("numerator"), side("denominator"))

    def test_extreme_values_finite_and_match_oracle(self):
        from repro.symbolic import symbolic_network_function

        circuit, spec = self._ladder(1e3, 1e-9)
        model = symbolic_network_function(circuit, spec).compile()
        # Every slot at 1e12: conductance slots via R = 1e-12 Ω, cap slots
        # directly — the regime where flat products leave double range.
        values = np.full(model.num_free, 1e12)
        s = np.array([1j * 1e-4, 1j * 1e3, 1j * 1e40])

        clogs, csigns = model.coefficient_tensors(values, "denominator")
        naive_peak = max(float(clogs[power]) + power * 40.0
                         for power in range(clogs.shape[0])
                         if csigns[power] != 0.0)
        assert naive_peak > 308.0   # linear-domain Horner would overflow

        response = model.evaluate(values, s)
        assert np.isfinite(response).all()

        extreme, __ = self._ladder(1e-12, 1e12)
        oracle = self._xfloat_rational(
            symbolic_network_function(extreme, spec))
        expected = np.array([oracle.evaluate(point) for point in s])
        assert _relative(expected, response) <= 1e-8

    def test_underflow_side_flushes_like_the_oracle(self):
        """Values at 1e-12 drive the opposite tail; both paths agree."""
        from repro.symbolic import symbolic_network_function

        circuit, spec = self._ladder(1e3, 1e-9)
        model = symbolic_network_function(circuit, spec).compile()
        values = np.full(model.num_free, 1e-12)
        s = np.array([1j * 1e-6, 1j * 1.3e2, 1j * 1e30])
        response = model.evaluate(values, s)
        assert np.isfinite(response).all()
        extreme, __ = self._ladder(1e12, 1e-12)
        oracle = self._xfloat_rational(
            symbolic_network_function(extreme, spec))
        expected = np.array([oracle.evaluate(point) for point in s])
        assert _relative(expected, response) <= 1e-8
