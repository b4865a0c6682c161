"""Tests for the interned symbolic kernel.

Covers the four kernel pillars:

* packed-monomial interning and the Term merge fast path,
* the minor-memoized determinant engine (parity with the flat expansion of
  :mod:`symbolic_oracle`, numerical correctness against ``repro.linalg`` on
  every library circuit, cache-hit and numerator/denominator-sharing
  accounting, distinct-work budgets),
* vectorized term valuation (bit-parity with ``Term.value``, deterministic
  tie ordering, parity with the oracle's scalar selection),
* the AnalysisSession symbolic caches.
"""

import math
import zlib

import numpy as np
import pytest

from symbolic_oracle import flat_determinant, flat_network_function, scalar_select

from repro.circuits import (
    build_cascode_amplifier,
    build_miller_ota,
    build_positive_feedback_ota,
    build_rc_ladder,
    build_sallen_key_lowpass,
    build_tow_thomas_biquad,
    build_ua741_macro,
)
from repro.engine.session import AnalysisSession
from repro.errors import SymbolicError
from repro.linalg.dense import dense_lu
from repro.netlist.transform import to_admittance_form
from repro.nodal.admittance import build_nodal_formulation
from repro.symbolic.determinant import symbolic_determinant
from repro.symbolic.generation import (
    select_significant_terms,
    symbolic_network_function,
)
from repro.symbolic.kernel import (
    SymbolInterner,
    TermValuation,
    sum_term_values,
)
from repro.symbolic.matrix import build_symbolic_nodal
from repro.symbolic.symbols import CircuitSymbol
from repro.symbolic.terms import SymbolicExpression, Term
from repro.xfloat import XFloat

#: Every circuit in the library at symbolic-analysis scale.  (The
#: transistor-level µA741 is represented by its behavioral macromodel — the
#: full macro's flat determinant is precisely what the paper says cannot be
#: expanded.)
LIBRARY_CIRCUITS = [
    ("rc-ladder-3", lambda: build_rc_ladder(
        3, [1e3, 2.2e3, 4.7e3], [1e-9, 470e-12, 220e-12])),
    ("positive-feedback-ota", build_positive_feedback_ota),
    ("miller-ota", build_miller_ota),
    ("cascode", build_cascode_amplifier),
    ("sallen-key", build_sallen_key_lowpass),
    ("tow-thomas", build_tow_thomas_biquad),
    ("ua741-macro", build_ua741_macro),
]


def _multiset(expression):
    return sorted((term.symbols, term.s_power, term.coefficient)
                  for term in expression.terms)


def _structure(expression):
    return sorted((term.symbols, term.s_power) for term in expression.terms)


class TestInterner:
    def test_ids_follow_sorted_names(self):
        interner = SymbolInterner(["gb", "ga", "gc"])
        assert interner.names == ("ga", "gb", "gc")
        assert interner.id_of("gb") == 1

    def test_encode_decode_roundtrip_with_repetition(self):
        interner = SymbolInterner(["a", "b", "c"])
        mono = interner.encode_names(("c", "a", "c"))
        assert interner.decode(mono) == ("a", "c", "c")
        # Decoded tuples are cached and shared.
        assert interner.decode(mono) is interner.decode(mono)

    def test_monomial_product_is_integer_addition(self):
        interner = SymbolInterner(["a", "b"])
        ab = interner.encode_names(("a", "b"))
        b = interner.encode_names(("b",))
        assert interner.decode(ab + b) == ("a", "b", "b")

    def test_late_interning_falls_back_to_sorting(self):
        interner = SymbolInterner(["b", "d"])
        mono = interner.encode_names(("d", "a"))  # "a" interned late
        assert interner.decode(mono) == ("a", "d")

    def test_chunked_decode_beyond_one_chunk(self):
        names = [f"g{index:03d}" for index in range(40)]
        interner = SymbolInterner(names)
        mono = interner.encode_names(("g000", "g017", "g039"))
        assert interner.decode(mono) == ("g000", "g017", "g039")


class TestTermFastPaths:
    def test_multiply_merges_without_resort(self):
        a = Term(("ga", "gc"), 1, 2.0)
        b = Term(("gb", "gd"), 0, -1.5)
        product = a.multiply(b)
        assert product.symbols == ("ga", "gb", "gc", "gd")
        assert product.s_power == 1
        assert product.coefficient == -3.0

    def test_post_init_sorts_only_when_needed(self):
        assert Term(("b", "a"), 0).symbols == ("a", "b")
        assert Term(["c", "a"], 0).symbols == ("a", "c")
        assert Term(("a", "a", "b"), 0).symbols == ("a", "a", "b")

    def test_from_sorted_skips_scan(self):
        term = Term.from_sorted(("a", "b"), 1, 3.0)
        assert term == Term(("a", "b"), 1, 3.0)


class TestDeterminantParity:
    """The interned kernel and the flat oracle produce the same expressions."""

    def test_random_matrices_match_legacy(self):
        rng = np.random.default_rng(42)
        for __ in range(4):
            size = 5
            entries = {}
            for row in range(size):
                for col in range(size):
                    if rng.random() < 0.8:
                        terms = [
                            Term((f"m{row}{col}x{k}",),
                                 int(rng.random() < 0.4),
                                 float(rng.integers(-3, 4)) or 1.0)
                            for k in range(rng.integers(1, 3))
                        ]
                        entries[(row, col)] = SymbolicExpression(terms)
            flat = flat_determinant(entries, size)
            interned = symbolic_determinant(entries, size)
            assert _multiset(flat) == _multiset(interned)

    @pytest.mark.parametrize("name,builder", LIBRARY_CIRCUITS)
    def test_network_functions_match_legacy(self, name, builder):
        circuit, spec = builder()
        if name == "ua741-macro":
            pytest.skip("the flat expansion is seconds-long")
        if name == "positive-feedback-ota":
            pytest.skip("full expansion infeasible on either path; "
                        "covered by the principal-minor cross-check")
        flat = flat_network_function(circuit, spec, max_terms=2_000_000)
        interned = symbolic_network_function(circuit, spec,
                                             max_terms=2_000_000)
        assert _structure(flat.numerator) == _structure(interned.numerator)
        assert _structure(flat.denominator) == _structure(interned.denominator)
        for kind in ("numerator", "denominator"):
            expression = getattr(interned, kind)
            for power in range(expression.max_s_power() + 1):
                a = flat.coefficient_value(kind, power)
                b = interned.coefficient_value(kind, power)
                if a.is_zero() and b.is_zero():
                    continue
                assert not (a.is_zero() or b.is_zero())
                assert float(abs(a - b) / abs(a)) <= 1e-9


class TestNumericCrossCheck:
    """Property test: the symbolic determinant evaluated at random ``s``
    equals the numeric determinant of the stamped nodal matrix."""

    @pytest.mark.parametrize("name,builder", LIBRARY_CIRCUITS)
    def test_determinant_matches_linalg(self, name, builder):
        circuit, spec = builder()
        admittance = to_admittance_form(circuit)
        nodal = build_symbolic_nodal(admittance, spec)
        formulation = build_nodal_formulation(admittance, spec)
        if name in ("ua741-macro", "positive-feedback-ota"):
            # Exact expansion of the full matrix is seconds-long (macro) or
            # infeasible (OTA); cross-check a leading principal minor
            # instead (same stamps, same engine).
            size = 6
            entries = {key: value for key, value in nodal.entries.items()
                       if key[0] < size and key[1] < size}
            symbolic = symbolic_determinant(entries, size,
                                            max_terms=2_000_000)

            def numeric_det(s):
                dense = formulation.assemble(s).to_dense()[:size, :size]
                return dense_lu(dense).determinant_mantissa_exponent()
        else:
            symbolic = symbolic_determinant(nodal.entries, nodal.dimension,
                                            max_terms=2_000_000)

            def numeric_det(s):
                return dense_lu(formulation.assemble(
                    s)).determinant_mantissa_exponent()

        rng = np.random.default_rng(zlib.crc32(name.encode()))
        for __ in range(3):
            log_magnitude = rng.uniform(4.0, 8.0)
            angle = rng.uniform(0.2, math.pi - 0.2)
            s = 10.0**log_magnitude * complex(math.cos(angle),
                                              math.sin(angle))
            mantissa, exponent = numeric_det(s)
            expected = complex(mantissa) * 10.0**exponent
            value = symbolic.evaluate(nodal.table, s)
            assert value == pytest.approx(expected, rel=1e-6), (name, s)


class TestEngineAccounting:
    def test_minor_memo_hits_and_numerator_sharing(self):
        circuit, spec = build_miller_ota()
        transfer = symbolic_network_function(circuit, spec)
        stats = transfer.kernel_stats
        assert stats is not None
        assert stats.minor_hits > 0
        assert 0.0 < stats.hit_rate < 1.0
        assert stats.distinct_terms > 0
        # The Cramer numerator differs from the denominator in one column:
        # its expansion must hit the denominator's memoized minors.
        assert "denominator" in stats.phases
        numerator_phases = [phase for phase in stats.phases
                            if phase.startswith("numerator:")]
        assert numerator_phases
        hits = sum(stats.phases[phase][0] for phase in numerator_phases)
        assert hits > 0
        # The memoized engine forms far fewer products than the flat
        # expansion materializes terms.
        flat = flat_network_function(circuit, spec)
        assert _structure(flat.denominator) == _structure(transfer.denominator)

    def test_engine_shared_between_determinant_calls(self):
        circuit, spec = build_miller_ota()
        admittance = to_admittance_form(circuit)
        nodal = build_symbolic_nodal(admittance, spec)
        engine, excitation = nodal.determinant_engine()
        indices = tuple(range(nodal.dimension))
        engine.determinant_terms(indices, indices)
        misses_after_denominator = engine.stats.minor_misses
        # Same determinant again: answered entirely by the memo.
        engine.determinant_terms(indices, indices)
        assert engine.stats.minor_misses == misses_after_denominator

    def test_budget_counts_distinct_work_not_expansions(self):
        # Reusing a memoized minor charges nothing: an engine whose budget
        # exactly equals one expansion's distinct work can expand the same
        # determinant (and the heavily-shared Cramer numerator) again.
        circuit, spec = build_miller_ota()
        admittance = to_admittance_form(circuit)
        nodal = build_symbolic_nodal(admittance, spec)
        probe, __ = nodal.determinant_engine()
        indices = tuple(range(nodal.dimension))
        probe.determinant_terms(indices, indices)
        distinct = probe.stats.distinct_terms

        # 1.5x headroom: the in-flight check also counts to-be-cancelled
        # groups, but a re-charged second expansion would need a full 2x.
        engine, __ = nodal.determinant_engine(max_terms=distinct
                                              + distinct // 2)
        engine.determinant_terms(indices, indices)
        engine.determinant_terms(indices, indices)  # free: pure memo hit
        assert engine.stats.distinct_terms == distinct

    def test_budget_error_reports_both_counts(self):
        size = 7
        entries = {}
        for row in range(size):
            for col in range(size):
                entries[(row, col)] = SymbolicExpression(
                    [Term((f"x{row}{col}",), 0)])
        with pytest.raises(SymbolicError) as excinfo:
            symbolic_determinant(entries, size, max_terms=50)
        message = str(excinfo.value)
        assert "distinct terms" in message
        assert "expanded term products" in message

    def test_combine_false_uses_flat_expansion(self):
        entries = {
            (0, 0): SymbolicExpression([Term(("a",), 0)]),
            (0, 1): SymbolicExpression([Term(("a",), 0)]),
            (1, 0): SymbolicExpression([Term(("a",), 0)]),
            (1, 1): SymbolicExpression([Term(("a",), 0)]),
        }
        flat = flat_determinant(entries, 2, combine=False)
        assert len(flat) == 2  # a·a - a·a, uncombined
        combined = symbolic_determinant(entries, 2)
        assert combined.is_zero()


class TestVectorizedValuation:
    def test_bit_parity_with_term_value(self):
        circuit, spec = build_miller_ota()
        transfer = symbolic_network_function(circuit, spec)
        terms = transfer.denominator.terms[:500]
        valuation = TermValuation(terms, transfer.table)
        for index, term in enumerate(terms):
            scalar = term.value(transfer.table)
            bulk = valuation.value(index)
            assert scalar.mantissa == bulk.mantissa
            assert scalar.exponent == bulk.exponent

    def test_zero_coefficient_and_zero_symbol(self):
        table = {"g": CircuitSymbol("g", "conductance", 0.0),
                 "h": CircuitSymbol("h", "conductance", 2.0)}
        terms = [Term(("g",), 0), Term(("h",), 0, 0.0), Term(("h",), 0, -3.0)]
        valuation = TermValuation(terms, table)
        assert valuation.value(0).is_zero()
        assert valuation.value(1).is_zero()
        assert float(valuation.value(2)) == pytest.approx(-6.0)
        assert float(valuation.total()) == pytest.approx(-6.0)

    def test_missing_symbol_raises(self):
        with pytest.raises(SymbolicError):
            TermValuation([Term(("nope",), 0)], {})

    def test_sum_matches_sequential_xfloat_chain(self):
        table = {f"g{i}": CircuitSymbol(f"g{i}", "conductance",
                                        (-1.0)**i * 10.0**(-3 * i))
                 for i in range(8)}
        terms = [Term((f"g{i}",), 0) for i in range(8)]
        sequential = XFloat.zero()
        for term in terms:
            sequential = sequential + term.value(table)
        bulk = sum_term_values(terms, table)
        assert bulk.mantissa == sequential.mantissa
        assert bulk.exponent == sequential.exponent

    def test_order_breaks_ties_deterministically(self):
        table = {"ga": CircuitSymbol("ga", "conductance", 1e-3),
                 "gb": CircuitSymbol("gb", "conductance", 1e-3),
                 "gc": CircuitSymbol("gc", "conductance", 1e-2)}
        forward = [Term(("ga",), 0), Term(("gb",), 0), Term(("gc",), 0)]
        backward = list(reversed(forward))
        order_a = TermValuation(forward, table).order()
        order_b = TermValuation(backward, table).order()
        names_a = [forward[i].symbols for i in order_a]
        names_b = [backward[i].symbols for i in order_b]
        assert names_a == names_b == [("gc",), ("ga",), ("gb",)]

    def test_select_reuses_valuation_and_matches_scalar(self):
        table = {f"g{i}": CircuitSymbol(f"g{i}", "conductance", 10.0**-i)
                 for i in range(6)}
        terms = [Term((f"g{i}",), 0) for i in range(6)]
        reference = XFloat(sum(10.0**-i for i in range(6)), 0)
        valuation = TermValuation(terms, table)
        kept, total = select_significant_terms(terms, table, reference, 0.05,
                                               valuation=valuation)
        scalar_kept, scalar_total = scalar_select(terms, table, reference,
                                                  0.05)
        assert total == scalar_total == 6
        assert [t.symbols for t in kept] == [t.symbols for t in scalar_kept]


class TestSessionSymbolicCaches:
    def test_transfer_cached_by_content(self):
        session = AnalysisSession()
        circuit, spec = build_miller_ota()
        first = session.symbolic_transfer(circuit, spec)
        hits_before = session.hits
        again = session.symbolic_transfer(circuit.copy("copy"), spec)
        assert again is first
        assert session.hits > hits_before

    def test_network_function_delegates_to_session(self):
        session = AnalysisSession()
        circuit, spec = build_miller_ota()
        first = symbolic_network_function(circuit, spec, session=session)
        again = symbolic_network_function(circuit, spec, session=session)
        assert again is first

    def test_determinant_shares_engine_with_transfer(self):
        session = AnalysisSession()
        circuit, spec = build_miller_ota()
        denominator = session.symbolic_determinant(circuit, spec)
        engine, __ = session.symbolic_engine(circuit, spec)
        misses = engine.stats.minor_misses
        transfer = session.symbolic_transfer(circuit, spec)
        # The transfer's denominator re-used every memoized minor.
        assert engine.stats.minor_misses > misses  # numerator minors only
        assert _multiset(transfer.denominator) == _multiset(denominator)
        phase_hits, phase_misses = engine.stats.phases["denominator"]
        assert phase_misses == 0 and phase_hits >= 1

    def test_mutation_misses_the_cache(self):
        session = AnalysisSession()
        circuit, spec = build_miller_ota()
        first = session.symbolic_transfer(circuit, spec)
        mutated = circuit.copy("mutated")
        mutated.replace(type(mutated["CL"])("CL", "vout", "0", 9e-12))
        second = session.symbolic_transfer(mutated, spec)
        assert second is not first

    def test_invalidate_drops_symbolic_entries(self):
        session = AnalysisSession()
        circuit, spec = build_miller_ota()
        session.symbolic_transfer(circuit, spec)
        assert session.invalidate(circuit) > 0
