"""The unified engine: formulation protocol, sweep core, analysis session."""

import math

import numpy as np
import pytest

from repro.analysis.ac import ACAnalysis
from repro.analysis.sensitivity import screen_elements
from repro.circuits.cascode import build_cascode_amplifier
from repro.circuits.filters import (build_sallen_key_lowpass,
                                    build_tow_thomas_biquad)
from repro.circuits.miller_ota import build_miller_ota
from repro.circuits.ota import build_positive_feedback_ota
from repro.circuits.rc_ladder import build_rc_ladder
from repro.circuits.ua741 import build_ua741
from repro.engine import AnalysisSession, Formulation, SweepEngine
from repro.errors import FormulationError
from repro.linalg.config import (DEFAULT_DENSE_CUTOFF, DENSE_CUTOFF_ENV,
                                 dense_cutoff, use_dense)
from repro.mna.builder import build_mna_system, system_dimension
from repro.netlist.transform import to_admittance_form
from repro.nodal.admittance import build_nodal_formulation
from repro.nodal.sampler import NetworkFunctionSampler
from scalar_oracle import oracle_solve

#: Every circuit of the library, by name.  Cross-formulation equivalence must
#: hold on all of them.
LIBRARY_CIRCUITS = [
    ("rc_ladder", lambda: build_rc_ladder(4)),
    ("sallen_key", build_sallen_key_lowpass),
    ("tow_thomas", build_tow_thomas_biquad),
    ("ota", build_positive_feedback_ota),
    ("miller_ota", build_miller_ota),
    ("cascode", build_cascode_amplifier),
    ("ua741", build_ua741),
]


# --------------------------------------------------------------------------- #
# cross-formulation equivalence
# --------------------------------------------------------------------------- #


class TestCrossFormulationEquivalence:
    @pytest.mark.parametrize("name,builder", LIBRARY_CIRCUITS,
                             ids=[name for name, __ in LIBRARY_CIRCUITS])
    def test_mna_and_nodal_transfer_agree(self, name, builder):
        """MNA and nodal formulations compute the same transfer function.

        Both stacks see the identical admittance-form circuit, so any
        disagreement beyond rounding would mean the two assembly paths have
        diverged — the regression this engine refactor is meant to prevent.
        """
        circuit, spec = builder()
        admittance = to_admittance_form(circuit)
        frequencies = np.logspace(1, 7, 13)
        via_mna = ACAnalysis(admittance, spec).frequency_response(frequencies)
        via_nodal = NetworkFunctionSampler(admittance,
                                           spec).frequency_response(
                                               frequencies)
        # Drives are O(1), so responses below 1e-9 are cancellation noise
        # (the positive-feedback OTA's differential output lives entirely
        # down there): compare those absolutely, everything else relatively.
        deviation = np.abs(via_nodal - via_mna)
        significant = np.abs(via_mna) > 1e-9
        assert np.all(deviation[~significant] <= 1e-9)
        if significant.any():
            relative = deviation[significant] / np.abs(via_mna[significant])
            assert np.max(relative) <= 1e-8

    @pytest.mark.parametrize("name,builder", LIBRARY_CIRCUITS[:5],
                             ids=[name for name, __ in LIBRARY_CIRCUITS[:5]])
    def test_both_formulations_satisfy_protocol(self, name, builder):
        circuit, spec = builder()
        admittance = to_admittance_form(circuit)
        mna = build_mna_system(admittance)
        nodal = build_nodal_formulation(admittance, spec)
        for formulation in (mna, nodal):
            assert isinstance(formulation, Formulation)
            constant, dynamic = formulation.sparse_parts()
            assert constant.n_rows == formulation.dimension
            assert dynamic.n_rows == formulation.dimension

    def test_shared_assembly_matches_per_point(self, ua741_circuit):
        """Batched stack assembly equals the per-point sparse assembly."""
        circuit, spec = ua741_circuit
        system = build_mna_system(circuit)
        s = 2j * math.pi * np.logspace(0, 8, 7)
        stack = system.assemble_batch(s)
        for k, point in enumerate(s):
            np.testing.assert_array_equal(stack[k],
                                          system.assemble(point).to_dense())

    def test_nodal_scaled_assembly_matches_per_point(self, ota_circuit):
        circuit, spec = ota_circuit
        formulation = build_nodal_formulation(to_admittance_form(circuit),
                                              spec)
        s = 2j * math.pi * np.logspace(2, 6, 5)
        stack = formulation.assemble_batch(s, 2.5, 1e9)
        for k, point in enumerate(s):
            np.testing.assert_array_equal(
                stack[k], formulation.assemble(point, 2.5, 1e9).to_dense())


# --------------------------------------------------------------------------- #
# the sweep engine proper
# --------------------------------------------------------------------------- #


class TestSweepEngine:
    def test_dense_and_sparse_paths_agree(self, miller_circuit):
        circuit, __ = miller_circuit
        system = build_mna_system(circuit)
        s = 2j * math.pi * np.logspace(1, 7, 9)
        dense = SweepEngine(system, method="dense").solve_sweep(s, system.rhs)
        sparse = SweepEngine(system, method="sparse").solve_sweep(s,
                                                                  system.rhs)
        scale = np.max(np.abs(dense))
        assert np.max(np.abs(dense - sparse)) <= 1e-9 * scale

    def test_factor_sweep_members_match_batched_solve(self, miller_circuit):
        circuit, __ = miller_circuit
        system = build_mna_system(circuit)
        s = 2j * math.pi * np.logspace(1, 7, 6)
        factors = SweepEngine(system).factor_sweep(s)
        batched = factors.solve(system.rhs)
        assert len(batched) == factors.num_points
        for k, point in enumerate(s):
            solution = oracle_solve(system, point)
            assert np.max(np.abs(solution - batched[k])) <= (
                1e-12 * np.max(np.abs(solution)))

    def test_unknown_method_rejected(self, miller_circuit):
        circuit, __ = miller_circuit
        system = build_mna_system(circuit)
        with pytest.raises(FormulationError):
            SweepEngine(system, method="magic")

    def test_sparse_engine_reuses_pattern_across_calls(self, miller_circuit):
        circuit, __ = miller_circuit
        system = build_mna_system(circuit)
        engine = SweepEngine(system, method="sparse")
        s = 2j * math.pi * np.logspace(1, 5, 4)
        engine.solve_sweep(s, system.rhs)
        assert engine.factorization_count == 1
        assert engine.refactorization_count == 3
        engine.solve_sweep(s, system.rhs)
        # The second sweep refactors every point against the kept pattern.
        assert engine.factorization_count == 1
        assert engine.refactorization_count == 7


# --------------------------------------------------------------------------- #
# the dense/sparse cutoff configuration
# --------------------------------------------------------------------------- #


class TestDenseCutoffConfig:
    def test_default(self, monkeypatch):
        monkeypatch.delenv(DENSE_CUTOFF_ENV, raising=False)
        assert dense_cutoff() == DEFAULT_DENSE_CUTOFF

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv(DENSE_CUTOFF_ENV, "7")
        assert dense_cutoff() == 7
        assert use_dense(7, "auto", dense_cutoff())
        assert not use_dense(8, "auto", dense_cutoff())

    def test_invalid_override_falls_back(self, monkeypatch):
        monkeypatch.setenv(DENSE_CUTOFF_ENV, "many")
        assert dense_cutoff() == DEFAULT_DENSE_CUTOFF
        monkeypatch.setenv(DENSE_CUTOFF_ENV, "-3")
        assert dense_cutoff() == DEFAULT_DENSE_CUTOFF

    def test_engine_dispatch_follows_cutoff(self, miller_circuit,
                                            monkeypatch):
        circuit, __ = miller_circuit
        system = build_mna_system(circuit)
        monkeypatch.setenv(DENSE_CUTOFF_ENV, "1")
        assert not SweepEngine(system).is_dense
        monkeypatch.setenv(DENSE_CUTOFF_ENV, str(system.dimension))
        assert SweepEngine(system).is_dense
        assert use_dense(system.dimension, "sparse", dense_cutoff()) is False

    def test_forced_methods_ignore_cutoff(self):
        assert use_dense(10_000, "dense", 1) is True
        assert use_dense(1, "sparse", 10_000) is False


# --------------------------------------------------------------------------- #
# the analysis session
# --------------------------------------------------------------------------- #


class TestAnalysisSession:
    def test_content_keyed_cache_hits(self, simple_rc):
        circuit, spec = simple_rc
        session = AnalysisSession()
        first = session.mna_system(circuit)
        again = session.mna_system(circuit)
        assert again is first
        # A copy with identical content shares the fingerprint and the cache.
        assert session.mna_system(circuit.copy("renamed")) is first
        assert session.hits == 2
        assert session.misses == 1

    def test_mutation_changes_fingerprint(self, simple_rc):
        circuit, spec = simple_rc
        session = AnalysisSession()
        original = session.mna_system(circuit)
        scaled = circuit.with_value_scaled("R1", 1.01)
        assert AnalysisSession.fingerprint(scaled) != (
            AnalysisSession.fingerprint(circuit))
        assert session.mna_system(scaled) is not original
        assert session.misses == 2

    def test_factored_sweep_cached_per_grid(self, simple_rc):
        circuit, spec = simple_rc
        session = AnalysisSession()
        s = 2j * math.pi * np.logspace(0, 6, 5)
        sweep = session.factored_sweep(circuit, s)
        assert session.factored_sweep(circuit, s) is sweep
        other = session.factored_sweep(circuit, 2.0 * s)
        assert other is not sweep

    def test_frequency_response_matches_ac_analysis(self, ua741_circuit):
        circuit, spec = ua741_circuit
        session = AnalysisSession()
        frequencies = np.logspace(0, 8, 21)
        expected = ACAnalysis(circuit, spec).frequency_response(frequencies)
        via_session = session.frequency_response(circuit, spec, frequencies)
        np.testing.assert_array_equal(via_session, expected)
        # ACAnalysis wired to the session reuses the same factors and stays
        # bit-identical.
        wired = ACAnalysis(circuit, spec,
                           session=session).frequency_response(frequencies)
        np.testing.assert_array_equal(wired, expected)

    def test_screening_result_cached_and_identical(self, miller_circuit):
        circuit, spec = miller_circuit
        session = AnalysisSession()
        frequencies = np.logspace(1, 7, 9)
        cold = screen_elements(circuit, spec, frequencies)
        cached = session.screening(circuit, spec, frequencies)
        assert session.screening(circuit, spec, frequencies) is cached
        assert ([i.name for i in cached.influences()]
                == [i.name for i in cold.influences()])
        np.testing.assert_array_equal(cached.baseline, cold.baseline)

    def test_reference_cached_by_content(self, rc_ladder_3):
        circuit, spec = rc_ladder_3[:2]
        session = AnalysisSession()
        reference = session.reference(circuit, spec)
        assert session.reference(circuit, spec) is reference
        assert session.reference(circuit.copy("again"), spec) is reference

    def test_invalidate_single_circuit(self, simple_rc, miller_circuit):
        circuit, spec = simple_rc
        other, __ = miller_circuit
        session = AnalysisSession()
        session.mna_system(circuit)
        session.mna_system(other)
        s = 2j * math.pi * np.logspace(0, 4, 3)
        session.factored_sweep(circuit, s)
        removed = session.invalidate(circuit)
        assert removed == 2
        assert session.entry_count == 1
        # The surviving entry belongs to the other circuit.
        hits_before = session.hits
        session.mna_system(other)
        assert session.hits == hits_before + 1

    def test_dangling_node_changes_fingerprint(self):
        """Same element list, different node registry → different hash.

        ``with_element_removed`` leaves the removed element's nodes declared,
        and declared nodes change the MNA dimension — so they must be part
        of the content hash or the session would serve a wrong-size system.
        """
        from repro.netlist.circuit import Circuit

        def base():
            circuit = Circuit("rc")
            circuit.add_voltage_source("vin", "in", "0", 1.0)
            circuit.add_resistor("R1", "in", "out", 1e3)
            circuit.add_capacitor("C1", "out", "0", 1e-9)
            return circuit

        dangling = base()
        dangling.add_resistor("RX", "out", "extra", 1e6)
        dangling = dangling.with_element_removed("RX")
        clean = base()
        assert [repr(e) for e in dangling] == [repr(e) for e in clean]
        assert (build_mna_system(dangling).dimension
                != build_mna_system(clean).dimension)
        assert (AnalysisSession.fingerprint(dangling)
                != AnalysisSession.fingerprint(clean))
        session = AnalysisSession()
        assert session.mna_system(dangling) is not session.mna_system(clean)

    def test_screen_elements_memoizes_through_session(self, miller_circuit):
        """The public entry point delegates to the session's result cache."""
        circuit, spec = miller_circuit
        session = AnalysisSession()
        frequencies = np.logspace(1, 6, 7)
        first = screen_elements(circuit, spec, frequencies, session=session)
        assert screen_elements(circuit, spec, frequencies,
                               session=session) is first

    def test_analysis_snapshot_survives_inplace_mutation(self,
                                                         miller_circuit):
        """Session-backed ACAnalysis answers for its construction snapshot."""
        import dataclasses

        from repro.netlist.elements import Capacitor, Resistor

        circuit, spec = miller_circuit
        frequencies = np.logspace(1, 6, 9)
        session = AnalysisSession()
        cold = ACAnalysis(circuit.copy("snap"), spec)
        warm = ACAnalysis(circuit.copy("snap"), spec, session=session)
        target = next(e for e in warm.circuit
                      if isinstance(e, (Resistor, Capacitor)))
        warm.circuit.replace(dataclasses.replace(target,
                                                 value=target.value * 10))
        np.testing.assert_array_equal(warm.frequency_response(frequencies),
                                      cold.frequency_response(frequencies))

    def test_factorization_count_honest_on_cache_hit(self, miller_circuit):
        circuit, spec = miller_circuit
        frequencies = np.logspace(1, 6, 9)
        session = AnalysisSession()
        first = ACAnalysis(circuit, spec, session=session)
        first.frequency_response(frequencies)
        assert first.factorization_count == len(frequencies)
        second = ACAnalysis(circuit, spec, session=session)
        second.frequency_response(frequencies)
        assert second.factorization_count == 0

    def test_sweep_cache_is_bounded(self, simple_rc):
        from repro.engine.session import _MAX_SWEEP_ENTRIES

        circuit, spec = simple_rc
        session = AnalysisSession()
        s = 2j * math.pi * np.logspace(0, 5, 4)
        for index in range(_MAX_SWEEP_ENTRIES + 5):
            session.factored_sweep(circuit, s * (1.0 + index))
        assert len(session._sweeps) == _MAX_SWEEP_ENTRIES
        # The most recent grid is still a hit.
        misses = session.misses
        session.factored_sweep(circuit, s * float(_MAX_SWEEP_ENTRIES + 4))
        assert session.misses == misses

    def test_invalidate_everything(self, simple_rc):
        circuit, spec = simple_rc
        session = AnalysisSession()
        session.mna_system(circuit)
        session.factored_sweep(circuit, [1.0 + 0.0j])
        assert session.invalidate() == 2
        assert session.entry_count == 0
        assert session.stats()["entries"] == 0


# --------------------------------------------------------------------------- #
# the compiled-transfer cache
# --------------------------------------------------------------------------- #


class TestCompiledTransferCache:
    def test_stats_report_compiles_and_hits(self, simple_rc):
        circuit, spec = simple_rc
        session = AnalysisSession()
        assert session.stats()["compiled"] == {"compiles": 0, "hits": 0,
                                               "evictions": 0}
        model = session.compiled_transfer(circuit, spec)
        for __ in range(3):
            assert session.compiled_transfer(circuit, spec) is model
        stats = session.stats()["compiled"]
        assert stats == {"compiles": 1, "hits": 3, "evictions": 0}
        # A content-identical copy shares the fingerprint and the model.
        assert session.compiled_transfer(circuit.copy("again"), spec) is model
        assert session.stats()["compiled"]["hits"] == 4

    def test_distinct_free_sets_compile_separately(self, simple_rc):
        circuit, spec = simple_rc
        session = AnalysisSession()
        wide = session.compiled_transfer(circuit, spec)
        narrow = session.compiled_transfer(circuit, spec,
                                           free_symbols=["R1"])
        assert narrow is not wide
        assert narrow.free_names == ("R1",)
        assert session.stats()["compiled"]["compiles"] == 2

    def test_compile_once_across_chained_workloads(self, miller_circuit):
        """Bode pass, symbolic re-obtain and compiled MC share one compile."""
        from repro.montecarlo import ParameterSpace, compiled_ensemble_sweep

        circuit, spec = miller_circuit
        circuit = circuit.copy("chained")
        for name in ("Cc", "CL"):
            circuit.replace(circuit[name].with_tolerance(0.05))
        session = AnalysisSession()
        frequencies = np.logspace(1, 7, 9)

        # Bode-style verification pass on the compiled model.
        space = ParameterSpace(circuit)
        first = compiled_ensemble_sweep(circuit, spec, frequencies, space,
                                        samples=4, seed=1, session=session)
        # Symbolic stage re-obtains the transfer (hits the transfer cache,
        # not a recompile), then Monte Carlo serves again.
        session.symbolic_transfer(circuit, spec)
        again = compiled_ensemble_sweep(circuit, spec, frequencies, space,
                                        samples=4, seed=2, session=session)
        assert again.responses.shape == first.responses.shape
        stats = session.stats()["compiled"]
        assert stats["compiles"] == 1
        assert stats["hits"] >= 1

    def test_lru_bound_evicts_oldest_free_set(self, simple_rc):
        from repro.engine.session import _MAX_COMPILED_ENTRIES

        circuit, spec = simple_rc
        session = AnalysisSession()
        session.compiled_transfer(circuit, spec)
        first_key = next(iter(session._compiled))
        # Distinct max_terms budgets key distinct entries deterministically.
        for index in range(_MAX_COMPILED_ENTRIES):
            session.compiled_transfer(
                circuit, spec, max_terms=10_000 + index)
        assert len(session._compiled) == _MAX_COMPILED_ENTRIES
        stats = session.stats()["compiled"]
        assert stats["evictions"] == 1
        assert first_key not in session._compiled
        # The most recent entry is still a hit.
        session.compiled_transfer(
            circuit, spec, max_terms=10_000 + _MAX_COMPILED_ENTRIES - 1)
        assert session.stats()["compiled"]["hits"] == 1

    def test_recency_refresh_protects_hot_models(self, simple_rc):
        from repro.engine.session import _MAX_COMPILED_ENTRIES

        circuit, spec = simple_rc
        session = AnalysisSession()
        hot = session.compiled_transfer(circuit, spec)
        for index in range(_MAX_COMPILED_ENTRIES - 1):
            session.compiled_transfer(circuit, spec,
                                      max_terms=10_000 + index)
            # Touching the hot model after every compile keeps it newest.
            assert session.compiled_transfer(circuit, spec) is hot
        # One more distinct compile evicts the oldest *cold* entry instead.
        session.compiled_transfer(circuit, spec, max_terms=99_999)
        assert session.stats()["compiled"]["evictions"] == 1
        assert session.compiled_transfer(circuit, spec) is hot

    def test_invalidate_drops_models_without_counting_evictions(
            self, simple_rc, miller_circuit):
        circuit, spec = simple_rc
        other, other_spec = miller_circuit
        session = AnalysisSession()
        session.compiled_transfer(circuit, spec)
        survivor = session.compiled_transfer(other, other_spec)
        removed = session.invalidate(circuit)
        assert removed >= 1
        stats_before = session.stats()["compiled"]
        assert stats_before["evictions"] == 0
        # The invalidated circuit recompiles; the other circuit still hits.
        session.compiled_transfer(circuit, spec)
        assert session.stats()["compiled"]["compiles"] == 3
        assert session.compiled_transfer(other, other_spec) is survivor

    def test_mutation_changes_key(self, simple_rc):
        circuit, spec = simple_rc
        session = AnalysisSession()
        original = session.compiled_transfer(circuit, spec)
        scaled = circuit.with_value_scaled("R1", 1.25)
        recompiled = session.compiled_transfer(scaled, spec)
        assert recompiled is not original
        assert session.stats()["compiled"]["compiles"] == 2


# --------------------------------------------------------------------------- #
# satellite: the cheap dimension probe
# --------------------------------------------------------------------------- #


class TestSystemDimension:
    @pytest.mark.parametrize("name,builder", LIBRARY_CIRCUITS,
                             ids=[name for name, __ in LIBRARY_CIRCUITS])
    def test_matches_full_build(self, name, builder):
        circuit, __ = builder()
        assert system_dimension(circuit) == build_mna_system(
            circuit).dimension
