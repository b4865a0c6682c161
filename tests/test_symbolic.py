"""Tests for the symbolic engine and the SAG / SDG / SBG consumers."""

import math

import numpy as np
import pytest

from repro.circuits.rc_ladder import rc_ladder_denominator_coefficients
from repro.errors import SimplificationError, SymbolicError
from repro.interpolation.reference import generate_reference
from repro.netlist.circuit import Circuit
from repro.netlist.transform import to_admittance_form
from repro.nodal.sampler import NetworkFunctionSampler
from repro.symbolic.determinant import symbolic_determinant
from repro.symbolic.generation import (
    select_significant_terms,
    simplify_after_generation,
    symbolic_network_function,
)
from repro.symbolic.matrix import build_symbolic_nodal
from repro.symbolic.sbg import simplification_before_generation
from repro.symbolic.sdg import simplification_during_generation
from repro.symbolic.symbols import CircuitSymbol, build_symbol_table
from repro.symbolic.terms import SymbolicExpression, Term
from repro.xfloat import XFloat


class TestSymbolsAndTerms:
    def test_symbol_table(self, simple_rc):
        circuit, __ = simple_rc
        table = build_symbol_table(circuit)
        assert table["R1"].kind == "conductance"
        assert table["R1"].value == pytest.approx(1e-3)
        assert table["C1"].is_capacitance
        assert "vin" not in table

    def test_symbol_table_rejects_non_admittance(self):
        circuit = Circuit("bad")
        circuit.add_vcvs("E1", "a", "0", "b", "0", 2.0)
        circuit.add_resistor("R1", "a", "b", 1.0)
        with pytest.raises(SymbolicError):
            build_symbol_table(circuit)

    def test_invalid_symbol_kind(self):
        with pytest.raises(SymbolicError):
            CircuitSymbol("x", "weird", 1.0)

    def test_term_value_and_sign(self):
        table = {"g1": CircuitSymbol("g1", "conductance", 1e-3),
                 "gm": CircuitSymbol("gm", "conductance", -2e-3),
                 "c1": CircuitSymbol("c1", "capacitance", 1e-12)}
        term = Term(symbols=("g1", "c1"), s_power=1, coefficient=-1.0)
        value = term.value(table)
        assert value.sign() == -1.0
        assert value.log10() == pytest.approx(math.log10(1e-3 * 1e-12))
        negative_gm = Term(symbols=("gm",), s_power=0)
        assert negative_gm.value(table).sign() == -1.0

    def test_term_multiply_and_negate(self):
        a = Term(("x",), 1, 2.0)
        b = Term(("y",), 0, -1.0)
        product = a.multiply(b)
        assert product.symbols == ("x", "y")
        assert product.s_power == 1
        assert product.coefficient == -2.0
        assert a.negated().coefficient == -2.0

    def test_expression_combines_like_terms(self):
        expression = SymbolicExpression([
            Term(("a", "b"), 1, 1.0),
            Term(("b", "a"), 1, 1.0),
            Term(("a",), 0, 1.0),
            Term(("a",), 0, -1.0),
        ])
        combined = expression.combined()
        assert len(combined) == 1
        assert combined.terms[0].coefficient == 2.0

    def test_expression_queries(self):
        table = {"a": CircuitSymbol("a", "conductance", 2.0),
                 "c": CircuitSymbol("c", "capacitance", 3.0)}
        expression = SymbolicExpression([Term(("a",), 0), Term(("c",), 1),
                                         Term(("a", "c"), 1, -1.0)])
        assert expression.max_s_power() == 1
        assert len(expression.coefficient_terms(1)) == 2
        assert float(expression.coefficient_value(0, table)) == pytest.approx(2.0)
        assert float(expression.coefficient_value(1, table)) == pytest.approx(-3.0)
        assert expression.evaluate(table, 2.0) == pytest.approx(2.0 - 6.0)
        assert expression.term_count_by_power() == {0: 1, 1: 2}
        assert not expression.is_zero()
        assert SymbolicExpression().is_zero()
        assert "a" in str(expression)


class TestDeterminant:
    def test_two_by_two(self):
        entries = {
            (0, 0): SymbolicExpression([Term(("a",), 0)]),
            (0, 1): SymbolicExpression([Term(("b",), 0)]),
            (1, 0): SymbolicExpression([Term(("c",), 0)]),
            (1, 1): SymbolicExpression([Term(("d",), 0)]),
        }
        determinant = symbolic_determinant(entries, 2)
        table = {name: CircuitSymbol(name, "conductance", value)
                 for name, value in (("a", 2.0), ("b", 3.0), ("c", 5.0),
                                     ("d", 7.0))}
        assert float(determinant.coefficient_value(0, table)) == pytest.approx(
            2 * 7 - 3 * 5)

    def test_structurally_singular_gives_zero(self):
        entries = {(0, 0): SymbolicExpression([Term(("a",), 0)])}
        determinant = symbolic_determinant(entries, 2)
        assert determinant.is_zero()

    def test_term_budget_enforced(self):
        size = 6
        entries = {}
        for row in range(size):
            for col in range(size):
                entries[(row, col)] = SymbolicExpression(
                    [Term((f"x{row}{col}",), 0)])
        with pytest.raises(SymbolicError):
            symbolic_determinant(entries, size, max_terms=10)

    def test_numeric_cross_check_against_dense_determinant(self):
        rng = np.random.default_rng(1)
        size = 4
        values = rng.uniform(0.5, 2.0, size=(size, size))
        entries = {}
        table = {}
        for row in range(size):
            for col in range(size):
                name = f"m{row}{col}"
                table[name] = CircuitSymbol(name, "conductance",
                                            float(values[row, col]))
                entries[(row, col)] = SymbolicExpression([Term((name,), 0)])
        determinant = symbolic_determinant(entries, size)
        assert float(determinant.coefficient_value(0, table)) == pytest.approx(
            np.linalg.det(values), rel=1e-9)


class TestSymbolicNetworkFunction:
    def test_rc_ladder_coefficients_match_recursion(self, rc_ladder_3):
        circuit, spec, resistances, capacitances = rc_ladder_3
        transfer = symbolic_network_function(circuit, spec)
        table = transfer.table
        expected = rc_ladder_denominator_coefficients(resistances, capacitances)
        d0 = float(transfer.coefficient_value("denominator", 0))
        for power, value in enumerate(expected):
            coefficient = float(transfer.coefficient_value("denominator", power))
            assert coefficient / d0 == pytest.approx(value, rel=1e-9)
        n0 = float(transfer.coefficient_value("numerator", 0))
        assert n0 / d0 == pytest.approx(1.0, rel=1e-9)

    def test_symbolic_matches_numeric_sampler(self, miller_circuit):
        circuit, spec = miller_circuit
        admittance = to_admittance_form(circuit)
        transfer = symbolic_network_function(admittance, spec,
                                             admittance_transform=False)
        sampler = NetworkFunctionSampler(admittance, spec)
        for frequency in (1e2, 1e5, 1e8):
            s = 2j * math.pi * frequency
            assert transfer.evaluate(s) == pytest.approx(
                sampler.transfer_value(s), rel=1e-6)

    def test_symbolic_nodal_structure(self, simple_rc):
        circuit, spec = simple_rc
        nodal = build_symbolic_nodal(circuit, spec)
        assert nodal.dimension == 1
        assert nodal.nnz() == 1
        diagonal = nodal.entry(0, 0)
        names = {term.symbols[0] for term in diagonal.terms}
        assert names == {"R1", "C1"}
        # The excitation carries the forced-node coupling through R1.
        assert 0 in nodal.rhs
        assert nodal.entry(5, 5).is_zero()

    def test_summary_and_term_count(self, rc_ladder_3):
        circuit, spec, __, __c = rc_ladder_3
        transfer = symbolic_network_function(circuit, spec)
        n_terms, d_terms = transfer.term_count()
        assert n_terms >= 1 and d_terms >= 4
        assert "terms" in transfer.summary()


class TestSelectionAndSAG:
    def test_select_significant_terms_stops_at_epsilon(self):
        table = {f"g{i}": CircuitSymbol(f"g{i}", "conductance", 10.0**-i)
                 for i in range(6)}
        terms = [Term((f"g{i}",), 0) for i in range(6)]
        reference = XFloat(sum(10.0**-i for i in range(6)), 0)
        kept, total = select_significant_terms(terms, table, reference,
                                               epsilon=0.05)
        assert total == 6
        # Keeping g0 and g1 leaves ~1% error; epsilon=5% needs just those two.
        assert len(kept) == 2
        all_kept, __ = select_significant_terms(terms, table, reference,
                                                epsilon=0.0)
        assert len(all_kept) == 6

    def test_select_with_zero_reference(self):
        table = {"g": CircuitSymbol("g", "conductance", 1.0)}
        kept, __ = select_significant_terms([Term(("g",), 0)], table,
                                            XFloat.zero(), epsilon=0.01)
        assert kept == []

    def test_negative_epsilon_rejected(self):
        with pytest.raises(SymbolicError):
            select_significant_terms([], {}, XFloat(1.0, 0), epsilon=-1.0)

    def test_sag_prunes_but_preserves_response(self, miller_circuit):
        circuit, spec = miller_circuit
        reference = generate_reference(circuit, spec)
        full = symbolic_network_function(circuit, spec)
        simplified = simplify_after_generation(full, reference, epsilon=0.05)
        kept_n, kept_d = simplified.term_count()
        full_n, full_d = full.term_count()
        assert kept_d < full_d
        assert kept_n <= full_n
        for frequency in (1e3, 1e6):
            s = 2j * math.pi * frequency
            assert abs(simplified.evaluate(s)) == pytest.approx(
                abs(full.evaluate(s)), rel=0.2)


class TestSDG:
    def test_error_control_satisfied(self, miller_circuit):
        circuit, spec = miller_circuit
        reference = generate_reference(circuit, spec)
        result = simplification_during_generation(circuit, spec, reference,
                                                  epsilon=0.02)
        assert result.compression() > 0.3
        for report in result.reports:
            if math.isfinite(report.achieved_error):
                assert report.achieved_error <= 0.02 * 1.5 + 1e-12
        kept, total = result.total_terms()
        assert 0 < kept < total
        assert "SDG" in result.summary()

    def test_smaller_epsilon_keeps_more_terms(self, miller_circuit):
        circuit, spec = miller_circuit
        reference = generate_reference(circuit, spec)
        transfer = symbolic_network_function(circuit, spec)
        loose = simplification_during_generation(circuit, spec, reference,
                                                 epsilon=0.2,
                                                 transfer_function=transfer)
        tight = simplification_during_generation(circuit, spec, reference,
                                                 epsilon=0.001,
                                                 transfer_function=transfer)
        assert tight.total_terms()[0] >= loose.total_terms()[0]

    def test_negative_epsilon_rejected(self, miller_circuit):
        circuit, spec = miller_circuit
        reference = generate_reference(circuit, spec)
        with pytest.raises(SimplificationError):
            simplification_during_generation(circuit, spec, reference,
                                             epsilon=-0.1)


class TestSBG:
    def test_reduction_respects_error_budget(self, miller_circuit):
        circuit, spec = miller_circuit
        reference = generate_reference(circuit, spec)
        result = simplification_before_generation(circuit, spec, reference,
                                                  epsilon=0.05)
        assert len(result.removals) > 0
        assert result.final_error <= 0.05
        assert len(result.reduced) == len(circuit) - len(result.removals)
        assert set(result.removed_names).isdisjoint(
            {element.name for element in result.reduced})
        assert "SBG" in result.summary()

    def test_tighter_epsilon_removes_fewer_elements(self, miller_circuit):
        circuit, spec = miller_circuit
        reference = generate_reference(circuit, spec)
        loose = simplification_before_generation(circuit, spec, reference,
                                                 epsilon=0.2)
        tight = simplification_before_generation(circuit, spec, reference,
                                                 epsilon=0.001)
        assert len(tight.removals) <= len(loose.removals)

    def test_invalid_epsilon(self, miller_circuit):
        circuit, spec = miller_circuit
        reference = generate_reference(circuit, spec)
        with pytest.raises(SimplificationError):
            simplification_before_generation(circuit, spec, reference,
                                             epsilon=0.0)
