"""Reference implementations for the symbolic kernel's parity tests.

The library expands determinants on the minor-memoized
:class:`~repro.symbolic.kernel.DeterminantEngine` and selects terms on the
vectorized :class:`~repro.symbolic.kernel.TermValuation`.  This module keeps
the straightforward versions of both as the oracle those paths are checked
against:

* :func:`flat_determinant` — the flat cofactor expansion along the
  structurally sparsest column, re-expanding every subtree and charging
  ``max_terms`` on expanded terms;
* :func:`flat_network_function` — Cramer's rule on that expansion, one
  column-replaced determinant per output node;
* :func:`scalar_select` — Eq. (3) term selection with one ``Term.value`` call
  per term and an XFloat sort.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.errors import SymbolicError
from repro.netlist.transform import to_admittance_form
from repro.symbolic.generation import SymbolicTransferFunction
from repro.symbolic.kernel import DEFAULT_MAX_TERMS
from repro.symbolic.matrix import SymbolicNodal, build_symbolic_nodal
from repro.symbolic.terms import SymbolicExpression, Term
from repro.xfloat import XFloat

__all__ = ["flat_determinant", "flat_network_function", "scalar_select"]


def _expand(entries, size, max_terms) -> List[Term]:
    """Flat cofactor expansion (every subtree re-expanded)."""
    # Row-wise structural view for fast column counting.
    rows_of_column: List[List[int]] = [[] for __ in range(size)]
    for (row, col), expression in entries.items():
        if expression.terms:
            rows_of_column[col].append(row)

    def expand(active_rows: Tuple[int, ...], active_cols: Tuple[int, ...]) -> List[Term]:
        if not active_rows:
            return [Term(symbols=(), s_power=0, coefficient=1.0)]
        # Pick the active column with the fewest entries in the active rows.
        best_col = None
        best_rows: List[int] = []
        for col in active_cols:
            rows_here = [row for row in rows_of_column[col] if row in active_rows]
            if best_col is None or len(rows_here) < len(best_rows):
                best_col = col
                best_rows = rows_here
                if len(rows_here) <= 1:
                    break
        if best_col is None or not best_rows:
            return []  # structurally singular in this branch
        col_position = active_cols.index(best_col)
        remaining_cols = tuple(c for c in active_cols if c != best_col)

        result: List[Term] = []
        for row in best_rows:
            row_position = active_rows.index(row)
            sign = -1.0 if (row_position + col_position) % 2 else 1.0
            entry = entries[(row, best_col)]
            remaining_rows = tuple(r for r in active_rows if r != row)
            minor_terms = expand(remaining_rows, remaining_cols)
            if not minor_terms:
                continue
            for entry_term in entry.terms:
                scaled_entry = Term(entry_term.symbols, entry_term.s_power,
                                    entry_term.coefficient * sign)
                for minor_term in minor_terms:
                    result.append(minor_term.multiply(scaled_entry))
                    if len(result) > max_terms:
                        raise SymbolicError(
                            "flat symbolic determinant exceeded the term "
                            f"budget ({max_terms} expanded terms)")
        return result

    return expand(tuple(range(size)), tuple(range(size)))


def flat_determinant(entries, size, max_terms=DEFAULT_MAX_TERMS,
                     combine=True) -> SymbolicExpression:
    """Determinant of a ``size``×``size`` symbolic matrix by flat expansion.

    ``combine=False`` returns the expanded terms as they fall out of the
    cofactor tree, with like terms (and cancelling pairs) left in place.
    """
    if size == 0:
        return SymbolicExpression.one()
    expression = SymbolicExpression(_expand(entries, size, max_terms))
    if combine:
        expression = expression.combined()
    return expression


def _replace_column(nodal: SymbolicNodal,
                    column: int) -> Dict[Tuple[int, int], SymbolicExpression]:
    """Matrix entries with ``column`` replaced by the excitation vector."""
    entries: Dict[Tuple[int, int], SymbolicExpression] = {}
    for (row, col), expression in nodal.entries.items():
        if col == column:
            continue
        entries[(row, col)] = expression
    for row, expression in nodal.rhs.items():
        if expression.terms:
            entries[(row, column)] = expression
    return entries


def flat_network_function(circuit, spec,
                          max_terms=DEFAULT_MAX_TERMS) -> SymbolicTransferFunction:
    """``N/D`` by Cramer's rule, every determinant expanded flat."""
    nodal = build_symbolic_nodal(to_admittance_form(circuit), spec)
    denominator = flat_determinant(nodal.entries, nodal.dimension, max_terms)

    def column_determinant(node):
        replaced = _replace_column(nodal, nodal.index_of(node))
        return flat_determinant(replaced, nodal.dimension, max_terms)

    numerator = column_determinant(nodal.output_pos)
    if nodal.output_neg is not None and nodal.output_neg != "0":
        numerator = numerator.subtract(column_determinant(nodal.output_neg))
        numerator = numerator.combined()
    return SymbolicTransferFunction(numerator=numerator,
                                    denominator=denominator,
                                    table=nodal.table, spec=spec)


def scalar_select(terms, table, reference, epsilon) -> Tuple[List[Term], int]:
    """Eq. (3) selection with per-term ``Term.value`` calls and an XFloat sort.

    Exact-magnitude ties use the library's deterministic ``(s_power,
    symbols)`` key, so both selections keep identical term sets.
    """
    valued = [(term, term.value(table)) for term in terms]
    valued.sort(key=lambda item: (
        (-item[1].log10() if not item[1].is_zero() else float("inf")),
        item[0].s_power, item[0].symbols))
    if isinstance(reference, (int, float)):
        reference = XFloat(float(reference), 0)
    target = abs(reference)
    if target.is_zero():
        return [], len(valued)

    kept: List[Term] = []
    accumulated = XFloat.zero()
    for term, value in valued:
        error = abs(reference - accumulated)
        if error < target * epsilon:
            break
        kept.append(term)
        accumulated = accumulated + value
    return kept, len(valued)
