"""Sparse symbolic determinant expansion.

The determinant of the symbolic nodal matrix is expanded recursively along the
structurally sparsest column of the remaining submatrix (a standard trick that
keeps the intermediate term count close to the final one for circuit
matrices).  The expansion runs on
:class:`~repro.symbolic.kernel.DeterminantEngine`: monomials are hash-consed
integers, every structural minor ``expand(active_rows, active_cols)`` is
memoized and combined once, and the result is a combined sum-of-products
:class:`~repro.symbolic.terms.SymbolicExpression`.

The expansion is exact and therefore exponential in the worst case; the
``max_terms`` guard raises :class:`~repro.errors.SymbolicError` before memory
is exhausted, directing users of larger circuits towards SBG reduction first
(which is precisely the paper's motivation).
"""

from __future__ import annotations

from .kernel import DEFAULT_MAX_TERMS, DeterminantEngine
from .terms import SymbolicExpression

__all__ = ["symbolic_determinant", "DEFAULT_MAX_TERMS"]


def symbolic_determinant(entries, size,
                         max_terms=DEFAULT_MAX_TERMS) -> SymbolicExpression:
    """Determinant of a ``size``×``size`` symbolic matrix.

    Parameters
    ----------
    entries:
        ``{(row, col): SymbolicExpression}`` of the structurally non-zero
        entries.
    size:
        Matrix dimension.
    max_terms:
        Upper bound on the *distinct* terms retained across memoized minors
        (raises above it): a minor reused from the memo costs nothing.  The
        overflow error reports both the distinct and the expanded counts.
    """
    if size == 0:
        return SymbolicExpression.one()
    engine = DeterminantEngine.from_entries(entries, size, max_terms=max_terms)
    indices = tuple(range(size))
    return engine.to_expression(engine.determinant_terms(indices, indices))
