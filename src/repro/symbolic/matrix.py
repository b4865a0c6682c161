"""Symbolic nodal admittance matrix construction.

Mirrors :mod:`repro.nodal.admittance`, but instead of numeric stamps every
matrix entry is a :class:`~repro.symbolic.terms.SymbolicExpression` of
single-symbol terms (conductances, transconductances, ``s``-carrying
capacitances).  The same node classification (unknown / forced / ground) as
the numeric formulation is reused so the symbolic and numeric network
functions are guaranteed to describe the same system.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Tuple

from ..errors import SymbolicError
from ..netlist.elements import (
    Capacitor,
    Conductor,
    CurrentSource,
    GROUND,
    Resistor,
    VCCS,
    VoltageSource,
)
from ..nodal.admittance import build_nodal_formulation
from .symbols import build_symbol_table
from .terms import SymbolicExpression, Term

__all__ = ["SymbolicNodal", "build_symbolic_nodal"]


@dataclasses.dataclass
class SymbolicNodal:
    """Symbolic counterpart of :class:`~repro.nodal.admittance.NodalFormulation`.

    Attributes
    ----------
    unknown_nodes:
        Node names in matrix order.
    entries:
        ``{(row, col): SymbolicExpression}`` over the unknowns.
    rhs:
        ``{row: SymbolicExpression}`` excitation per unit drive (symbols times
        the forced-node voltages, or constant current-injection terms).
    table:
        Symbol table (name → :class:`~repro.symbolic.symbols.CircuitSymbol`).
    drive_kind:
        ``"voltage"`` or ``"current"``.
    output_pos, output_neg:
        Output node names (``output_neg`` may be None).
    """

    unknown_nodes: List[str]
    entries: Dict[Tuple[int, int], SymbolicExpression]
    rhs: Dict[int, SymbolicExpression]
    table: Dict[str, object]
    drive_kind: str
    output_pos: str
    output_neg: Optional[str]

    @property
    def dimension(self):
        """Number of unknowns."""
        return len(self.unknown_nodes)

    def index_of(self, node):
        """Matrix index of an unknown node."""
        try:
            return self.unknown_nodes.index(node)
        except ValueError as exc:
            raise SymbolicError(f"node {node!r} is not an unknown") from exc

    def entry(self, row, col) -> SymbolicExpression:
        """Entry expression (zero expression for structural zeros)."""
        return self.entries.get((row, col), SymbolicExpression.zero())

    def nnz(self):
        """Number of structurally non-zero entries."""
        return len(self.entries)

    def determinant_engine(self, max_terms=None):
        """A :class:`~repro.symbolic.kernel.DeterminantEngine` over this
        matrix, plus the registered excitation-column id.

        The engine's columns ``0..dimension-1`` mirror :attr:`entries` and the
        extra column carries :attr:`rhs`, so the denominator and every Cramer
        numerator expand against one shared minor memo.
        """
        from .kernel import (DEFAULT_MAX_TERMS, DeterminantEngine,
                             SymbolInterner)

        if max_terms is None:
            max_terms = DEFAULT_MAX_TERMS
        engine = DeterminantEngine.from_entries(
            self.entries, self.dimension,
            interner=SymbolInterner(self.table.keys()),
            max_terms=max_terms)
        excitation = engine.add_column(
            {row: expression for row, expression in self.rhs.items()
             if expression.terms})
        return engine, excitation


def build_symbolic_nodal(circuit, spec) -> SymbolicNodal:
    """Build the symbolic nodal matrix for an admittance-form circuit."""
    formulation = build_nodal_formulation(circuit, spec)
    table = build_symbol_table(circuit)
    index = {node: i for i, node in enumerate(formulation.unknown_nodes)}
    forced = formulation.forced

    entries: Dict[Tuple[int, int], SymbolicExpression] = {}
    rhs: Dict[int, SymbolicExpression] = {}

    def add_entry(row_node, col_node, symbol_name, s_power, sign):
        """Route one symbolic admittance contribution."""
        if row_node == GROUND or row_node in forced:
            return
        row = index[row_node]
        term = Term(symbols=(symbol_name,), s_power=s_power, coefficient=sign)
        if col_node == GROUND:
            return
        if col_node in forced:
            voltage = forced[col_node]
            if voltage == 0.0:
                return
            # Moves to the right-hand side with the opposite sign, times the
            # forced voltage (per unit drive).
            flipped = Term(symbols=(symbol_name,), s_power=s_power,
                           coefficient=-sign * voltage)
            rhs.setdefault(row, SymbolicExpression.zero()).terms.append(flipped)
            return
        col = index[col_node]
        entries.setdefault((row, col), SymbolicExpression.zero()).terms.append(term)

    def add_admittance(node_a, node_b, symbol_name, s_power):
        add_entry(node_a, node_a, symbol_name, s_power, +1.0)
        add_entry(node_b, node_b, symbol_name, s_power, +1.0)
        add_entry(node_a, node_b, symbol_name, s_power, -1.0)
        add_entry(node_b, node_a, symbol_name, s_power, -1.0)

    for element in circuit:
        if isinstance(element, (Resistor, Conductor)):
            add_admittance(element.node_pos, element.node_neg, element.name, 0)
        elif isinstance(element, Capacitor):
            add_admittance(element.node_pos, element.node_neg, element.name, 1)
        elif isinstance(element, VCCS):
            for row_node, sign in ((element.node_pos, +1.0),
                                   (element.node_neg, -1.0)):
                add_entry(row_node, element.ctrl_pos, element.name, 0, sign)
                add_entry(row_node, element.ctrl_neg, element.name, 0, -sign)
        elif isinstance(element, CurrentSource):
            if element.value == 0.0:
                continue
            for node, sign in ((element.node_pos, -1.0), (element.node_neg, +1.0)):
                if node == GROUND or node in forced:
                    continue
                constant = Term(symbols=(), s_power=0,
                                coefficient=sign * element.value)
                rhs.setdefault(index[node],
                               SymbolicExpression.zero()).terms.append(constant)
        elif isinstance(element, VoltageSource):
            continue
        else:
            raise SymbolicError(
                f"element {element.name!r} is not admittance-form; transform "
                "the circuit before symbolic analysis"
            )

    output_pos, output_neg = spec.output_nodes()
    return SymbolicNodal(
        unknown_nodes=list(formulation.unknown_nodes),
        entries=entries,
        rhs=rhs,
        table=table,
        drive_kind=formulation.drive_kind,
        output_pos=output_pos,
        output_neg=output_neg,
    )
