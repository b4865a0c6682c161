"""Simplification during generation (SDG) using the numerical reference.

SDG techniques (the paper's refs [2]–[4]) generate the ``P`` most significant
terms of every coefficient, stopping as soon as the generated sum represents
the required fraction of the coefficient's total magnitude:

``|h_k(x0) - Σ_{l=1..P} h_kl(x0)| < ε_k |h_k(x0)|``            (Eq. 3)

The total ``h_k(x0)`` must be known *before* the symbolic expression is
available — that is exactly the numerical reference this library generates.

This module provides an SDG driver on top of the library's symbolic engine:
terms of each coefficient are produced in decreasing order of design-point
magnitude and accumulation stops per Eq. (3).  (The term generator enumerates
the determinant terms and orders them — the published SDG algorithms avoid the
full enumeration with dedicated data structures, but the *error control*,
which is what this paper contributes to, is identical.)
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Tuple

from ..errors import SimplificationError
from ..xfloat import XFloat
from .generation import (
    SymbolicTransferFunction,
    select_significant_terms,
    symbolic_network_function,
)
from .terms import SymbolicExpression

__all__ = ["SDGResult", "simplification_during_generation"]


@dataclasses.dataclass
class SDGCoefficientReport:
    """Per-coefficient accounting of the SDG term selection."""

    kind: str
    power: int
    kept_terms: int
    total_terms: int
    reference_log10: float
    achieved_error: float

    @property
    def compression(self) -> float:
        """Fraction of terms discarded (0 = nothing discarded)."""
        if self.total_terms == 0:
            return 0.0
        return 1.0 - self.kept_terms / self.total_terms


@dataclasses.dataclass
class SDGResult:
    """Outcome of an SDG run: the simplified function plus per-coefficient stats."""

    simplified: SymbolicTransferFunction
    reports: List[SDGCoefficientReport]
    epsilon: float

    def total_terms(self) -> Tuple[int, int]:
        """``(kept, original)`` term totals across both polynomials."""
        kept = sum(report.kept_terms for report in self.reports)
        total = sum(report.total_terms for report in self.reports)
        return kept, total

    def compression(self) -> float:
        """Overall fraction of discarded terms."""
        kept, total = self.total_terms()
        if total == 0:
            return 0.0
        return 1.0 - kept / total

    def summary(self) -> str:
        """One-line human-readable summary."""
        kept, total = self.total_terms()
        return (f"SDG @ ε={self.epsilon:g}: kept {kept} of {total} terms "
                f"({100.0 * self.compression():.1f}% discarded)")


def _coefficient_error(kept_terms, valuation, reference_value) -> float:
    # The kept terms are exactly the selection-order prefix, so their values
    # are already cached on the coefficient's valuation.
    total = XFloat.zero()
    for index in valuation.order()[:len(kept_terms)]:
        total = total + valuation.value(index)
    if reference_value.is_zero():
        return 0.0 if total.is_zero() else float("inf")
    return float(abs(reference_value - total) / abs(reference_value))


def simplification_during_generation(circuit, spec, reference, epsilon=0.01,
                                     max_terms=None,
                                     transfer_function=None,
                                     session=None) -> SDGResult:
    """Run SDG for a circuit against a previously generated numerical reference.

    Parameters
    ----------
    circuit, spec:
        The circuit and transfer specification (must match the reference).
    reference:
        :class:`~repro.interpolation.reference.NumericalReference` providing
        the coefficient totals ``h_k(x0)``.
    epsilon:
        Relative error budget ``ε_k`` applied to every coefficient.
    transfer_function:
        Optionally reuse an already generated
        :class:`~repro.symbolic.generation.SymbolicTransferFunction`;
        otherwise one is generated on the minor-memoized kernel, with
        ``max_terms`` bounding its distinct terms.
    session:
        Optional :class:`~repro.engine.session.AnalysisSession` — the
        generated transfer function (and its determinant engine) is then
        cached under the circuit fingerprint.

    Returns
    -------
    SDGResult
    """
    if epsilon < 0.0:
        raise SimplificationError("epsilon must be non-negative")
    if max_terms is None:
        from .determinant import DEFAULT_MAX_TERMS

        max_terms = DEFAULT_MAX_TERMS
    if transfer_function is None:
        transfer_function = symbolic_network_function(
            circuit, spec, max_terms=max_terms, session=session)

    reports: List[SDGCoefficientReport] = []
    simplified_expressions: Dict[str, SymbolicExpression] = {}
    for kind, expression in (("numerator", transfer_function.numerator),
                             ("denominator", transfer_function.denominator)):
        kept_all = []
        for power in range(expression.max_s_power() + 1):
            valuation = transfer_function.coefficient_valuation(kind, power)
            if not len(valuation):
                continue
            reference_value = reference.coefficient(kind, power)
            kept, total = select_significant_terms(
                valuation.terms, transfer_function.table, reference_value,
                epsilon, valuation=valuation)
            achieved = _coefficient_error(kept, valuation, reference_value)
            reports.append(SDGCoefficientReport(
                kind=kind,
                power=power,
                kept_terms=len(kept),
                total_terms=total,
                reference_log10=(reference_value.log10()
                                 if not reference_value.is_zero() else float("-inf")),
                achieved_error=achieved,
            ))
            kept_all.extend(kept)
        simplified_expressions[kind] = SymbolicExpression(kept_all)

    simplified = SymbolicTransferFunction(
        numerator=simplified_expressions["numerator"],
        denominator=simplified_expressions["denominator"],
        table=transfer_function.table,
        spec=transfer_function.spec,
    )
    return SDGResult(simplified=simplified, reports=reports, epsilon=epsilon)
