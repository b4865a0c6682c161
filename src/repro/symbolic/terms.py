"""Sum-of-products symbolic expressions.

A :class:`Term` is a signed product of circuit symbols times a power of ``s``
(the power always equals the number of capacitance symbols in the product, but
it is stored explicitly so that expressions remain meaningful after symbol
substitution).  A :class:`SymbolicExpression` is a list of terms — the
canonical sum-of-products form used by approximation-based symbolic analysis.

Term values at the design point are computed in log space and returned as
:class:`~repro.xfloat.XFloat`, because products of dozens of admittances
underflow IEEE doubles long before they stop being meaningful.
"""

from __future__ import annotations

import dataclasses
import math
from collections import defaultdict
from typing import Dict, Iterable, List, Optional, Tuple

from ..errors import SymbolicError
from ..xfloat import XFloat
from .symbols import CircuitSymbol

__all__ = ["Term", "SymbolicExpression", "evaluate_polynomial"]


def evaluate_polynomial(coefficient_of, max_power, s) -> complex:
    """``Σ_k coefficient_of(k) · s**k`` with XFloat coefficients.

    Evaluated per coefficient to limit cancellation noise across powers;
    zero coefficients are skipped.  Shared by
    :meth:`SymbolicExpression.evaluate` and the valuation-cached
    :meth:`~repro.symbolic.generation.SymbolicTransferFunction.evaluate`.
    """
    total = 0.0 + 0.0j
    for power in range(max_power + 1):
        coefficient = coefficient_of(power)
        if coefficient.is_zero():
            continue
        total += float(coefficient) * complex(s)**power
    return total


def _merge_sorted(a: Tuple[str, ...], b: Tuple[str, ...]) -> Tuple[str, ...]:
    """Merge two sorted tuples into one sorted tuple (with repetition)."""
    if not a:
        return b
    if not b:
        return a
    out = []
    i = j = 0
    len_a, len_b = len(a), len(b)
    while i < len_a and j < len_b:
        x, y = a[i], b[j]
        if x <= y:
            out.append(x)
            i += 1
        else:
            out.append(y)
            j += 1
    out.extend(a[i:] if i < len_a else b[j:])
    return tuple(out)


@dataclasses.dataclass(frozen=True)
class Term:
    """A signed product of symbols times ``s**s_power``.

    Attributes
    ----------
    symbols:
        Sorted tuple of symbol names (with repetition for squared factors).
    s_power:
        Power of the complex frequency carried by the term.
    coefficient:
        Integer (or float) multiplier, usually ±1 from determinant expansion.
    """

    symbols: Tuple[str, ...]
    s_power: int
    coefficient: float = 1.0

    def __post_init__(self):
        # Establish the sorted-tuple invariant, but only pay for a sort when
        # the input actually violates it — terms produced by multiply() (an
        # O(k) merge of two canonical terms) arrive already sorted.
        symbols = self.symbols
        if isinstance(symbols, tuple):
            for i in range(len(symbols) - 1):
                if symbols[i] > symbols[i + 1]:
                    object.__setattr__(self, "symbols", tuple(sorted(symbols)))
                    return
        else:
            object.__setattr__(self, "symbols", tuple(sorted(symbols)))

    @classmethod
    def from_sorted(cls, symbols, s_power, coefficient=1.0):
        """Construct from an already *sorted* symbol tuple.

        Skips the dataclass invariant scan — the bulk-construction fast path
        used by the kernel boundary, where monomials decode sorted by design.
        """
        term = object.__new__(cls)
        object.__setattr__(term, "symbols", symbols)
        object.__setattr__(term, "s_power", s_power)
        object.__setattr__(term, "coefficient", coefficient)
        return term

    def degree(self):
        """Number of symbol factors."""
        return len(self.symbols)

    def multiply(self, other: "Term") -> "Term":
        """Product of two terms (sorted tuples merge in O(k), no re-sort)."""
        return Term(
            symbols=_merge_sorted(self.symbols, other.symbols),
            s_power=self.s_power + other.s_power,
            coefficient=self.coefficient * other.coefficient,
        )

    def negated(self) -> "Term":
        """Term with the opposite sign."""
        return Term(self.symbols, self.s_power, -self.coefficient)

    def value(self, table: Dict[str, CircuitSymbol]) -> XFloat:
        """Design-point value of the term as an :class:`XFloat`."""
        if self.coefficient == 0.0:
            return XFloat.zero()
        log_magnitude = math.log10(abs(self.coefficient))
        sign = 1.0 if self.coefficient > 0 else -1.0
        for name in self.symbols:
            symbol = table.get(name)
            if symbol is None:
                raise SymbolicError(f"symbol {name!r} missing from the table")
            if symbol.value == 0.0:
                return XFloat.zero()
            log_magnitude += math.log10(abs(symbol.value))
            if symbol.value < 0.0:
                sign = -sign
        return XFloat.from_log10(log_magnitude, sign)

    def key(self) -> Tuple[Tuple[str, ...], int]:
        """Grouping key (symbols, power) used to combine like terms."""
        return (self.symbols, self.s_power)

    def __str__(self):
        body = "*".join(self.symbols) if self.symbols else "1"
        prefix = "" if self.coefficient == 1.0 else (
            "-" if self.coefficient == -1.0 else f"{self.coefficient:g}*")
        if self.s_power:
            return f"{prefix}{body}*s^{self.s_power}"
        return f"{prefix}{body}"


class SymbolicExpression:
    """A sum of :class:`Term` objects."""

    def __init__(self, terms: Optional[Iterable[Term]] = None):
        self.terms: List[Term] = list(terms or [])

    # -- construction -------------------------------------------------------

    @classmethod
    def zero(cls) -> "SymbolicExpression":
        """The empty (zero) expression."""
        return cls([])

    @classmethod
    def one(cls) -> "SymbolicExpression":
        """The constant 1."""
        return cls([Term(symbols=(), s_power=0, coefficient=1.0)])

    def copy(self) -> "SymbolicExpression":
        """Shallow copy (terms are immutable)."""
        return SymbolicExpression(list(self.terms))

    # -- algebra --------------------------------------------------------------

    def add(self, other: "SymbolicExpression") -> "SymbolicExpression":
        """Sum of two expressions (no like-term combination)."""
        return SymbolicExpression(self.terms + other.terms)

    def subtract(self, other: "SymbolicExpression") -> "SymbolicExpression":
        """Difference of two expressions."""
        return SymbolicExpression(
            self.terms + [term.negated() for term in other.terms]
        )

    def multiply_term(self, term: Term) -> "SymbolicExpression":
        """Multiply every term by ``term``."""
        return SymbolicExpression([t.multiply(term) for t in self.terms])

    def scaled(self, coefficient) -> "SymbolicExpression":
        """Multiply every term's coefficient by ``coefficient``."""
        return SymbolicExpression([
            Term(t.symbols, t.s_power, t.coefficient * coefficient)
            for t in self.terms
        ])

    def combined(self) -> "SymbolicExpression":
        """Combine like terms (identical symbol multiset and power)."""
        groups: Dict[Tuple[Tuple[str, ...], int], float] = defaultdict(float)
        for term in self.terms:
            groups[term.key()] += term.coefficient
        combined = [Term(symbols, power, coefficient)
                    for (symbols, power), coefficient in groups.items()
                    if coefficient != 0.0]
        return SymbolicExpression(combined)

    # -- queries ----------------------------------------------------------------

    def __len__(self):
        return len(self.terms)

    def __iter__(self):
        return iter(self.terms)

    def is_zero(self):
        """True when there are no terms (after combination)."""
        return not self.combined().terms

    def max_s_power(self):
        """Largest power of ``s`` appearing in the expression (0 if empty)."""
        if not self.terms:
            return 0
        return max(term.s_power for term in self.terms)

    def coefficient_terms(self, power) -> List[Term]:
        """All terms contributing to the coefficient of ``s**power``."""
        return [term for term in self.terms if term.s_power == power]

    def grouped_by_power(self) -> Dict[int, List[Term]]:
        """All terms bucketed by their power of ``s`` in one pass.

        The shared grouping hook behind per-coefficient valuation and
        transfer-model compilation — one expression scan instead of one
        :meth:`coefficient_terms` scan per power.
        """
        groups: Dict[int, List[Term]] = {}
        for term in self.terms:
            groups.setdefault(term.s_power, []).append(term)
        return groups

    def coefficient_value(self, power, table) -> XFloat:
        """Design-point value of the coefficient of ``s**power``.

        Runs on the kernel's vectorized log-space valuation; the accumulation
        order matches the per-term loop, so results are bit-identical to
        summing :meth:`Term.value` sequentially.
        """
        from .kernel import sum_term_values

        return sum_term_values(self.coefficient_terms(power), table)

    def evaluate(self, table, s) -> complex:
        """Numeric value of the expression at complex frequency ``s``."""
        return evaluate_polynomial(
            lambda power: self.coefficient_value(power, table),
            self.max_s_power(), s)

    def term_count_by_power(self) -> Dict[int, int]:
        """Histogram of term counts per power of ``s``."""
        counts: Dict[int, int] = defaultdict(int)
        for term in self.terms:
            counts[term.s_power] += 1
        return dict(counts)

    def __str__(self):
        if not self.terms:
            return "0"
        parts = [str(term) for term in self.terms[:12]]
        if len(self.terms) > 12:
            parts.append(f"… (+{len(self.terms) - 12} terms)")
        return " + ".join(parts)
