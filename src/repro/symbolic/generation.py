"""Exact symbolic network functions and simplification after generation (SAG).

The numerator is obtained with Cramer's rule: replacing the output column of
the symbolic nodal matrix by the excitation column yields a determinant whose
expansion is ``N(s, x)``; the plain determinant is ``D(s, x)``.  Differential
outputs are the difference of two column-replaced determinants.

Both expansions run on one :class:`~repro.symbolic.kernel.DeterminantEngine`:
the Cramer numerator differs from the denominator in a single column, so
nearly every numerator minor is answered by the memo the denominator
expansion already filled (the per-phase hit/miss accounting lands in
:attr:`SymbolicTransferFunction.kernel_stats`).

:func:`simplify_after_generation` then prunes each coefficient's terms against
the *numerical reference*, which is the role the paper's algorithm plays in
the SAG/SDG tool chain: terms are dropped (smallest first) for as long as the
accumulated discarded magnitude stays below ``ε_k |h_k(x_0)|``.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Tuple

from ..errors import SingularEvaluationError, SymbolicError
from ..netlist.transform import to_admittance_form
from ..nodal.reduce import TransferSpec
from ..xfloat import XFloat
from .kernel import DEFAULT_MAX_TERMS, EngineStats, TermValuation
from .matrix import build_symbolic_nodal
from .terms import SymbolicExpression, Term, evaluate_polynomial

__all__ = [
    "SymbolicTransferFunction",
    "symbolic_network_function",
    "select_significant_terms",
    "simplify_after_generation",
]


@dataclasses.dataclass
class SymbolicTransferFunction:
    """Exact (or simplified) symbolic network function ``N(s,x)/D(s,x)``.

    The numerator/denominator expressions are treated as immutable once the
    transfer function exists: coefficient valuations and per-power term
    groups are cached on first use, so mutating ``numerator.terms`` /
    ``denominator.terms`` in place afterwards would serve stale values.
    Build a new ``SymbolicTransferFunction`` instead of mutating one.
    """

    numerator: SymbolicExpression
    denominator: SymbolicExpression
    table: Dict[str, object]
    spec: TransferSpec
    #: Minor-memo accounting of the generating engine (None for simplified
    #: functions derived from another transfer).
    kernel_stats: Optional[EngineStats] = None
    _valuations: Dict[Tuple[str, int], TermValuation] = dataclasses.field(
        default_factory=dict, repr=False, compare=False)
    _power_groups: Dict[str, Dict[int, List[Term]]] = dataclasses.field(
        default_factory=dict, repr=False, compare=False)
    _compiled_models: Dict[Optional[Tuple[str, ...]], object] = \
        dataclasses.field(default_factory=dict, repr=False, compare=False)

    def term_count(self) -> Tuple[int, int]:
        """``(numerator terms, denominator terms)``."""
        return len(self.numerator), len(self.denominator)

    def _expression(self, kind) -> SymbolicExpression:
        return self.numerator if kind.startswith("n") else self.denominator

    def coefficient_valuation(self, kind, power) -> TermValuation:
        """Cached bulk valuation of one coefficient's terms.

        SDG/SAG selection, achieved-error accounting and repeated evaluation
        all share the one vectorized log-space pass per coefficient.
        """
        kind = "numerator" if kind.startswith("n") else "denominator"
        key = (kind, power)
        valuation = self._valuations.get(key)
        if valuation is None:
            groups = self._power_groups.get(kind)
            if groups is None:
                # One pass groups every coefficient's terms, instead of a
                # full-expression scan per power.
                groups = self._expression(kind).grouped_by_power()
                self._power_groups[kind] = groups
            valuation = TermValuation(groups.get(power, ()), self.table)
            self._valuations[key] = valuation
        return valuation

    def compile(self, free_symbols=None):
        """Lower this transfer into a cached :class:`CompiledTransferModel`.

        One model is kept per distinct free-symbol tuple (the expressions
        are immutable by the contract above, so reuse is always valid).
        See :func:`repro.symbolic.compile.compile_transfer_model`.
        """
        key = None if free_symbols is None else \
            tuple(str(name) for name in free_symbols)
        model = self._compiled_models.get(key)
        if model is None:
            from .compile import compile_transfer_model

            model = compile_transfer_model(self, free_symbols=key)
            self._compiled_models[key] = model
        return model

    def coefficient_value(self, kind, power) -> XFloat:
        """Design-point value of one coefficient (numeric, extended range)."""
        return self.coefficient_valuation(kind, power).total()

    def _polynomial_value(self, kind, s) -> complex:
        return evaluate_polynomial(
            lambda power: self.coefficient_valuation(kind, power).total(),
            self._expression(kind).max_s_power(), s)

    def evaluate(self, s) -> complex:
        """Numeric value of the transfer function at complex ``s``."""
        denominator = self._polynomial_value("denominator", s)
        if denominator == 0:
            raise SingularEvaluationError(
                "symbolic denominator evaluates to zero: the system matrix "
                f"is singular at s={complex(s)!r}")
        return self._polynomial_value("numerator", s) / denominator

    def summary(self) -> str:
        """One-line term-count summary."""
        n_terms, d_terms = self.term_count()
        return (f"symbolic H(s): {n_terms} numerator terms, "
                f"{d_terms} denominator terms")


def _cramer_terms(engine, excitation, size, column):
    """Internal terms (and parity sign) of the column-replaced determinant.

    The excitation column is appended *last* instead of being substituted in
    place, so every minor key stays a sorted id tuple shared with the plain
    determinant; moving it from position ``column`` to the end contributes the
    parity factor ``(-1)**(size - 1 - column)``.
    """
    cols = tuple(c for c in range(size) if c != column) + (excitation,)
    terms = engine.determinant_terms(tuple(range(size)), cols)
    sign = -1.0 if (size - 1 - column) % 2 else 1.0
    return terms, sign


def _transfer_from_nodal(nodal, spec, max_terms=DEFAULT_MAX_TERMS, engine=None,
                         excitation=None) -> SymbolicTransferFunction:
    """Generate the transfer function from a built symbolic nodal matrix."""
    if engine is None:
        engine, excitation = nodal.determinant_engine(max_terms=max_terms)
    size = nodal.dimension
    indices = tuple(range(size))
    with engine.phase("denominator"):
        denominator = engine.to_expression(
            engine.determinant_terms(indices, indices))

    with engine.phase(f"numerator:{nodal.output_pos}"):
        positive_terms, positive_sign = _cramer_terms(
            engine, excitation, size, nodal.index_of(nodal.output_pos))
    if nodal.output_neg is not None and nodal.output_neg != "0":
        with engine.phase(f"numerator:{nodal.output_neg}"):
            negative_terms, negative_sign = _cramer_terms(
                engine, excitation, size, nodal.index_of(nodal.output_neg))
        accumulated: Dict[Tuple, float] = {}
        for terms, scale in ((positive_terms, positive_sign),
                             (negative_terms, -negative_sign)):
            for mono, power, coefficient in terms:
                group = (mono, power)
                accumulated[group] = accumulated.get(group, 0.0) \
                    + coefficient * scale
        numerator = engine.to_expression(tuple(
            (mono, power, coefficient)
            for (mono, power), coefficient in accumulated.items()
            if coefficient != 0.0))
    else:
        numerator = engine.to_expression(positive_terms, scale=positive_sign)

    return SymbolicTransferFunction(
        numerator=numerator,
        denominator=denominator,
        table=nodal.table,
        spec=spec,
        kernel_stats=engine.stats,
    )


def symbolic_network_function(circuit, spec, max_terms=DEFAULT_MAX_TERMS,
                              admittance_transform=True,
                              session=None) -> SymbolicTransferFunction:
    """Generate the complete symbolic network function of a circuit.

    The output nodes named by ``spec`` must be unknown nodes (not forced, not
    ground) — the usual case for amplifier outputs.

    Numerator and denominator share one minor-memoized engine, and
    ``max_terms`` bounds the distinct terms retained across its memoized
    minors.

    Parameters
    ----------
    session:
        Optional :class:`~repro.engine.session.AnalysisSession`: the symbolic
        nodal matrix, the determinant engine (with its minor memo) and the
        finished transfer function are then cached under the circuit
        fingerprint and shared with later symbolic stages.

    Raises
    ------
    SymbolicError
        When the expansion exceeds ``max_terms`` or the output is not an
        unknown node.
    """
    if session is not None:
        return session.symbolic_transfer(
            circuit, spec, max_terms=max_terms,
            admittance_transform=admittance_transform)
    if admittance_transform:
        circuit = to_admittance_form(circuit)
    nodal = build_symbolic_nodal(circuit, spec)
    return _transfer_from_nodal(nodal, spec, max_terms=max_terms)


def select_significant_terms(terms, table, reference_value, epsilon,
                             valuation=None) -> Tuple[List[Term], int]:
    """Keep the largest terms of one coefficient until Eq. (3) is satisfied.

    Terms are accumulated in decreasing order of design-point magnitude until
    ``|h_k(x0) - Σ kept| < ε |h_k(x0)|`` where ``h_k(x0)`` is the *reference*
    value (not the sum of the generated terms — that is the whole point of the
    numerical reference).  Magnitudes come from one vectorized
    :class:`~repro.symbolic.kernel.TermValuation` pass (pass ``valuation`` to
    reuse a cached one); exact magnitude ties order deterministically on
    ``(s_power, symbols)``, so the selection is independent of the
    term-generation order.

    Returns
    -------
    (kept_terms, total_terms)
    """
    if epsilon < 0.0:
        raise SymbolicError("epsilon must be non-negative")
    if valuation is None:
        valuation = TermValuation(terms, table)
    elif valuation.terms is not terms and valuation.terms != list(terms):
        raise SymbolicError(
            "valuation was built for a different term list; pass the "
            "valuation's own terms (valuation.terms) or omit it")
    terms = valuation.terms
    if isinstance(reference_value, (int, float)):
        reference_value = XFloat(float(reference_value), 0)
    target = abs(reference_value)
    if target.is_zero():
        return [], len(terms)

    kept: List[Term] = []
    accumulated = XFloat.zero()
    for index in valuation.order():
        error = abs(reference_value - accumulated)
        if error < target * epsilon:
            break
        kept.append(terms[index])
        accumulated = accumulated + valuation.value(index)
    return kept, len(terms)


def simplify_after_generation(transfer_function, reference, epsilon=0.01) -> "SymbolicTransferFunction":
    """SAG: prune a complete symbolic expression against the numerical reference.

    Parameters
    ----------
    transfer_function:
        A full :class:`SymbolicTransferFunction`.
    reference:
        A :class:`~repro.interpolation.reference.NumericalReference` for the
        same circuit / spec.
    epsilon:
        Per-coefficient relative error budget ``ε_k`` (same for every k).

    Returns
    -------
    SymbolicTransferFunction
        A new transfer function containing only the significant terms.
    """
    simplified: Dict[str, SymbolicExpression] = {}
    for kind, expression in (("numerator", transfer_function.numerator),
                             ("denominator", transfer_function.denominator)):
        kept_terms: List[Term] = []
        for power in range(expression.max_s_power() + 1):
            valuation = transfer_function.coefficient_valuation(kind, power)
            if not len(valuation):
                continue
            reference_value = reference.coefficient(kind, power)
            kept, __ = select_significant_terms(
                valuation.terms, transfer_function.table, reference_value,
                epsilon, valuation=valuation)
            kept_terms.extend(kept)
        simplified[kind] = SymbolicExpression(kept_terms)
    return SymbolicTransferFunction(
        numerator=simplified["numerator"],
        denominator=simplified["denominator"],
        table=transfer_function.table,
        spec=transfer_function.spec,
    )
