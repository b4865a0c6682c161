"""The fill-reducing elimination order of the sparse LU path.

The Markowitz pivot search of :func:`~repro.linalg.lu.sparse_lu` scans every
active column at every elimination step — an O(n²)-and-up cost that is
irrelevant at µA741 size (n = 43) but dominates once post-layout parasitic
networks reach 10³–10⁴ unknowns.  The classical remedy is to *pre-order* the
matrix from its structure alone and then eliminate along that fixed order with
cheap threshold pivoting: the expensive combinatorial work runs once per
sparsity pattern instead of once per factorization step.

:func:`fill_reducing_order` is the approximate-minimum-degree (AMD) order
(Amestoy, Davis & Duff, SIAM J. Matrix Anal. Appl. 17(4), 1996), pure Python
over the :class:`~repro.linalg.sparse.SparseMatrix` structure keys: minimum
degree on the quotient (element) graph.  Eliminated variables collapse into
*elements* (cliques) instead of materializing their fill edges, so the
symbolic cost tracks the fill, not its square.  Degrees are the standard
AMD-style upper bound ``|A_v| + Σ_e (|L_e| − 1)`` (element overlaps are not
deduplicated), which keeps the update O(clique) per elimination.  The result
feeds ``column_order=`` of :func:`~repro.linalg.lu.sparse_lu`, which prefers
the structurally symmetric pivot of each ordered column under the usual
relative-magnitude threshold.

Orderings are purely structural: the same key list always yields the same
permutation, so factor-once / refactor-many sweeps stay deterministic.
"""

from __future__ import annotations

import heapq
from typing import List, Sequence

from ..errors import LinAlgError

__all__ = ["fill_reducing_order", "inverse_permutation", "permute_symmetric"]


def _symmetrized_adjacency(n, keys) -> List[set]:
    """Undirected adjacency of the symmetrized structure ``A + Aᵀ``.

    Diagonal keys are ignored; out-of-range keys raise, matching the bounds
    discipline of :class:`~repro.linalg.sparse.SparseMatrix`.
    """
    adjacency: List[set] = [set() for __ in range(n)]
    for row, col in keys:
        if not (0 <= row < n and 0 <= col < n):
            raise LinAlgError(
                f"structure key ({row}, {col}) out of bounds for a "
                f"{n}x{n} matrix")
        if row != col:
            adjacency[row].add(col)
            adjacency[col].add(row)
    return adjacency


def fill_reducing_order(n, keys) -> List[int]:
    """Approximate-minimum-degree elimination order of an ``n×n`` structure.

    Parameters
    ----------
    n:
        Matrix dimension.
    keys:
        Iterable of ``(row, col)`` structure keys — typically the merged
        key list of :func:`~repro.linalg.sparse.merged_structure`; values
        are irrelevant.

    Returns
    -------
    list of int
        A permutation of ``range(n)``; ``order[k]`` is the original column
        (and preferred pivot row) of elimination step ``k``.
    """
    if n < 0:
        raise LinAlgError("ordering requires a non-negative dimension")
    adjacency = _symmetrized_adjacency(n, keys)

    # Quotient graph: eliminated pivots become *elements* (cliques).  Each
    # live variable v sees plain neighbors ``adjacency[v]`` plus the member
    # sets of the elements in ``variable_elements[v]``.
    elements: dict = {}
    variable_elements: List[set] = [set() for __ in range(n)]
    eliminated = [False] * n
    degrees = [len(adjacency[v]) for v in range(n)]
    heap = [(degrees[v], v) for v in range(n)]
    heapq.heapify(heap)

    order: List[int] = []
    next_element = 0
    while heap:
        degree, pivot = heapq.heappop(heap)
        if eliminated[pivot] or degree != degrees[pivot]:
            continue   # stale heap entry
        eliminated[pivot] = True
        order.append(pivot)

        # The pivot's clique: plain neighbors plus every member of every
        # element it touches (those elements are absorbed into the new one).
        clique = set(adjacency[pivot])
        absorbed = variable_elements[pivot]
        for element in absorbed:
            clique |= elements.pop(element)
        clique.discard(pivot)
        adjacency[pivot] = set()
        variable_elements[pivot] = set()
        if not clique:
            continue

        element_id = next_element
        next_element += 1
        elements[element_id] = clique
        for variable in clique:
            # Edges inside the clique are now represented by the element.
            adjacency[variable] -= clique
            adjacency[variable].discard(pivot)
            variable_elements[variable] -= absorbed
            variable_elements[variable].add(element_id)
            # AMD-style degree bound: plain neighbors plus element sizes.
            degree = len(adjacency[variable])
            for element in variable_elements[variable]:
                degree += len(elements[element]) - 1
            degrees[variable] = degree
            heapq.heappush(heap, (degree, variable))
    return order


def inverse_permutation(order: Sequence[int]) -> List[int]:
    """Inverse of a permutation given as the image list ``order[k] = original``."""
    inverse = [0] * len(order)
    for position, original in enumerate(order):
        inverse[original] = position
    return inverse


def permute_symmetric(matrix, order) -> "object":
    """Symmetrically permuted copy ``B[i, j] = A[order[i], order[j]]``.

    Entry *insertion order* follows the original matrix (see
    :meth:`~repro.linalg.sparse.SparseMatrix.permuted`), so the row dicts the
    LU code iterates see corresponding entries in corresponding positions —
    this is what makes factoring ``B`` in natural order bit-for-bit identical
    to factoring ``A`` with ``column_order=order`` (the permutation
    round-trip property the ordering tests pin down).
    """
    if matrix.n_rows != matrix.n_cols:
        raise LinAlgError("symmetric permutation requires a square matrix")
    return matrix.permuted(order)
