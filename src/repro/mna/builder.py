"""MNA system assembly.

Unknowns are the non-ground node voltages plus one branch current for every
element that needs an auxiliary equation: independent voltage sources, VCVS,
CCVS and inductors.  The system matrix is split into a constant part ``G`` and
a frequency-proportional part ``C`` so that ``A(s) = G + s·C`` can be
assembled at any complex frequency; the right-hand side collects the
independent source values.

The stamps follow the standard MNA conventions (see Vlach & Singhal, the
paper's reference [6]).
"""

from __future__ import annotations

import dataclasses
from typing import List

import numpy as np

from ..engine.formulation import FormulationBase
from ..errors import FormulationError
from ..linalg.sparse import SparseMatrix
from ..netlist.elements import (
    CCCS,
    CCVS,
    Capacitor,
    Conductor,
    CurrentSource,
    GROUND,
    Inductor,
    Resistor,
    VCCS,
    VCVS,
    VoltageSource,
)

__all__ = ["MnaSystem", "Rank1Stamp", "build_mna_system", "system_dimension",
           "stamp_element", "system_sparsity", "SparsitySummary"]

#: Element types that require an auxiliary branch-current unknown.
_BRANCH_TYPES = (VoltageSource, VCVS, CCVS, Inductor)


@dataclasses.dataclass
class Rank1Stamp:
    """One element's matrix contribution ``(g + s·c) · u · vᵀ``.

    Built by :meth:`MnaSystem.element_stamp`; the sensitivity screening
    (:mod:`repro.analysis.sensitivity`) turns it into Sherman–Morrison
    updates of the cached baseline factors.

    Attributes
    ----------
    u, v:
        Real incidence vectors over the system's unknowns (``u`` the row
        pattern, ``v`` the column pattern; equal for two-terminal elements).
    conductance:
        Frequency-independent admittance ``g`` (conductance or
        transconductance) of the element.
    capacitance:
        Frequency-proportional admittance ``c``; the element admittance is
        ``y(s) = g + s·c``.
    """

    u: np.ndarray
    v: np.ndarray
    conductance: float = 0.0
    capacitance: float = 0.0


class MnaSystem(FormulationBase):
    """Assembled MNA matrices for a circuit.

    Implements the :class:`~repro.engine.formulation.Formulation` protocol —
    assembly (single-point, batched, merged sparse structure) is inherited
    from :class:`~repro.engine.formulation.FormulationBase`.

    Attributes
    ----------
    node_names:
        Unknown node voltages in matrix order.
    branch_names:
        Elements owning an auxiliary current unknown, in matrix order.
    constant, dynamic:
        :class:`SparseMatrix` ``G`` and ``C`` with ``A(s) = G + s·C``.
    rhs:
        Excitation vector (complex) from the independent sources' AC values.
    """

    def __init__(self, circuit, node_names, branch_names, constant, dynamic, rhs):
        self.circuit = circuit
        self.node_names = node_names
        self.branch_names = branch_names
        self.constant = constant
        self.dynamic = dynamic
        self.rhs = rhs
        self._node_index = {name: i for i, name in enumerate(node_names)}
        self._branch_index = {
            name.lower(): len(node_names) + i for i, name in enumerate(branch_names)
        }

    @property
    def dimension(self):
        """Total number of unknowns (node voltages + branch currents)."""
        return len(self.node_names) + len(self.branch_names)

    def node_index(self, node):
        """Index of a node voltage unknown (raises for ground / unknown nodes)."""
        if node == GROUND:
            raise FormulationError("ground has no unknown index")
        if node not in self._node_index:
            raise FormulationError(f"node {node!r} is not an MNA unknown")
        return self._node_index[node]

    def branch_index(self, element_name):
        """Index of a branch-current unknown."""
        key = str(element_name).lower()
        if key not in self._branch_index:
            raise FormulationError(
                f"element {element_name!r} has no branch current unknown"
            )
        return self._branch_index[key]

    def sparse_parts(self):
        """``(G, C)`` with ``A(s) = G + s·C`` (the Formulation protocol)."""
        return self.constant, self.dynamic

    def element_stamp(self, name) -> Rank1Stamp:
        """The rank-1 matrix contribution ``(g + s·c)·u·vᵀ`` of one element.

        Supported are the elements whose stamp is a pure admittance outer
        product over the node unknowns: resistors / conductors (``g = G``),
        capacitors (``c = C``) and VCCS (``g = gm`` with the output incidence
        as ``u`` and the control incidence as ``v``).  With the returned stamp
        an element's removal or value change becomes a rank-1 update of the
        assembled matrix — ``A'(s) = A(s) + Δy(s)·u·vᵀ`` — locatable without
        re-assembling the system (see :mod:`repro.analysis.sensitivity`).

        Raises
        ------
        FormulationError
            For element types whose stamp involves auxiliary branch equations
            (sources, inductors, VCVS/CCCS/CCVS).
        """
        element = self.circuit[name]

        def incidence(positive, negative):
            vector = np.zeros(self.dimension)
            if positive != GROUND:
                vector[self.node_index(positive)] = 1.0
            if negative != GROUND:
                vector[self.node_index(negative)] = -1.0
            return vector

        if isinstance(element, (Resistor, Conductor)):
            u = incidence(element.node_pos, element.node_neg)
            return Rank1Stamp(u=u, v=u, conductance=element.conductance)
        if isinstance(element, Capacitor):
            u = incidence(element.node_pos, element.node_neg)
            return Rank1Stamp(u=u, v=u, capacitance=element.capacitance)
        if isinstance(element, VCCS):
            return Rank1Stamp(
                u=incidence(element.node_pos, element.node_neg),
                v=incidence(element.ctrl_pos, element.ctrl_neg),
                conductance=element.gm,
            )
        raise FormulationError(
            f"element {element.name!r} of type {type(element).__name__} does "
            "not stamp as a rank-1 admittance outer product"
        )

    def node_voltage(self, solution, node):
        """Extract a node voltage from a solution vector (0 for ground)."""
        if node == GROUND:
            return 0.0 + 0.0j
        return complex(solution[self.node_index(node)])

    def node_voltages(self, solutions, node) -> np.ndarray:
        """Vectorized :meth:`node_voltage` over a ``(K, n)`` solution stack."""
        solutions = np.asarray(solutions, dtype=complex)
        if node == GROUND:
            return np.zeros(solutions.shape[0], dtype=complex)
        return solutions[:, self.node_index(node)]

    def branch_current(self, solution, element_name):
        """Extract a branch current from a solution vector."""
        return complex(solution[self.branch_index(element_name)])


def system_dimension(circuit) -> int:
    """Dimension of the circuit's MNA system without assembling any matrices.

    The unknown count — non-ground node voltages plus one branch current per
    voltage source / VCVS / CCVS / inductor — follows from the element list
    alone, so callers that only need the size (reports, chunk sizing) can
    skip the full :func:`build_mna_system` stamping pass.
    """
    branch_count = sum(1 for element in circuit
                       if isinstance(element, _BRANCH_TYPES))
    return len(circuit.non_ground_nodes) + branch_count


def stamp_element(element, constant, dynamic, rhs_add, node, branch_index):
    """Stamp one element into the MNA matrices / right-hand side.

    This is the single source of truth for the MNA stamps:
    :func:`build_mna_system` drives it with real matrices, and the Monte
    Carlo value program (:mod:`repro.montecarlo.program`) drives it with
    recording matrices to learn, per element, exactly which entries it
    touches and in which order — so a vectorized re-stamping reproduces the
    builder's accumulation arithmetic to the last bit.

    Parameters
    ----------
    element:
        The circuit element to stamp.
    constant, dynamic:
        Objects with ``add(row, col, value)`` (the ``G`` and ``C`` targets).
    rhs_add:
        Callable ``rhs_add(index, value)`` accumulating the excitation.
    node:
        Callable mapping a node name to its unknown index (``None`` for
        ground).
    branch_index:
        Mapping of lowercase element name to branch-current unknown index.
    """

    def stamp_pair(matrix, a, b, value):
        """Standard two-terminal admittance stamp between nodes a and b."""
        ia, ib = node(a), node(b)
        if ia is not None:
            matrix.add(ia, ia, value)
        if ib is not None:
            matrix.add(ib, ib, value)
        if ia is not None and ib is not None:
            matrix.add(ia, ib, -value)
            matrix.add(ib, ia, -value)

    if isinstance(element, (Resistor, Conductor)):
        stamp_pair(constant, element.node_pos, element.node_neg,
                   element.conductance)
    elif isinstance(element, Capacitor):
        stamp_pair(dynamic, element.node_pos, element.node_neg,
                   element.capacitance)
    elif isinstance(element, VCCS):
        out_pos, out_neg = node(element.node_pos), node(element.node_neg)
        ctrl_pos, ctrl_neg = node(element.ctrl_pos), node(element.ctrl_neg)
        for row, row_sign in ((out_pos, +1.0), (out_neg, -1.0)):
            if row is None:
                continue
            if ctrl_pos is not None:
                constant.add(row, ctrl_pos, row_sign * element.gm)
            if ctrl_neg is not None:
                constant.add(row, ctrl_neg, -row_sign * element.gm)
    elif isinstance(element, CurrentSource):
        pos, neg = node(element.node_pos), node(element.node_neg)
        if pos is not None:
            rhs_add(pos, -element.value)
        if neg is not None:
            rhs_add(neg, element.value)
    elif isinstance(element, VoltageSource):
        branch = branch_index[element.name.lower()]
        pos, neg = node(element.node_pos), node(element.node_neg)
        if pos is not None:
            constant.add(pos, branch, 1.0)
            constant.add(branch, pos, 1.0)
        if neg is not None:
            constant.add(neg, branch, -1.0)
            constant.add(branch, neg, -1.0)
        rhs_add(branch, element.value)
    elif isinstance(element, VCVS):
        branch = branch_index[element.name.lower()]
        pos, neg = node(element.node_pos), node(element.node_neg)
        ctrl_pos, ctrl_neg = node(element.ctrl_pos), node(element.ctrl_neg)
        if pos is not None:
            constant.add(pos, branch, 1.0)
            constant.add(branch, pos, 1.0)
        if neg is not None:
            constant.add(neg, branch, -1.0)
            constant.add(branch, neg, -1.0)
        if ctrl_pos is not None:
            constant.add(branch, ctrl_pos, -element.gain)
        if ctrl_neg is not None:
            constant.add(branch, ctrl_neg, element.gain)
    elif isinstance(element, CCCS):
        ctrl_branch = branch_index[element.ctrl_source.lower()]
        pos, neg = node(element.node_pos), node(element.node_neg)
        if pos is not None:
            constant.add(pos, ctrl_branch, element.gain)
        if neg is not None:
            constant.add(neg, ctrl_branch, -element.gain)
    elif isinstance(element, CCVS):
        branch = branch_index[element.name.lower()]
        ctrl_branch = branch_index[element.ctrl_source.lower()]
        pos, neg = node(element.node_pos), node(element.node_neg)
        if pos is not None:
            constant.add(pos, branch, 1.0)
            constant.add(branch, pos, 1.0)
        if neg is not None:
            constant.add(neg, branch, -1.0)
            constant.add(branch, neg, -1.0)
        constant.add(branch, ctrl_branch, -element.gain)
    elif isinstance(element, Inductor):
        branch = branch_index[element.name.lower()]
        pos, neg = node(element.node_pos), node(element.node_neg)
        if pos is not None:
            constant.add(pos, branch, 1.0)
            constant.add(branch, pos, 1.0)
        if neg is not None:
            constant.add(neg, branch, -1.0)
            constant.add(branch, neg, -1.0)
        dynamic.add(branch, branch, -element.inductance)
    else:
        raise FormulationError(
            f"element {element.name!r} of type {type(element).__name__} is "
            "not supported by the MNA builder"
        )


def system_structure(circuit):
    """Unknown layout of the circuit's MNA system (no matrices assembled).

    Returns
    -------
    (node_names, branch_names, node, branch_index)
        ``node`` maps a node name to its unknown index (``None`` for ground);
        ``branch_index`` maps lowercase element names to branch-current
        indices.

    Raises
    ------
    FormulationError
        For dangling controlled-source references.
    """
    node_names: List[str] = list(circuit.non_ground_nodes)
    node_index = {name: i for i, name in enumerate(node_names)}
    branch_names: List[str] = [
        element.name for element in circuit
        if isinstance(element, _BRANCH_TYPES)
    ]
    # CCCS / CCVS control currents flow through a named voltage source (or any
    # element with a branch unknown); verify the reference exists.
    branch_lookup = {name.lower() for name in branch_names}
    for element in circuit.elements_of_type(CCCS, CCVS):
        if element.ctrl_source.lower() not in branch_lookup:
            raise FormulationError(
                f"{element.name}: controlling source {element.ctrl_source!r} "
                "must be an element with a branch current (e.g. a voltage source)"
            )

    n_nodes = len(node_names)
    branch_index = {name.lower(): n_nodes + i
                    for i, name in enumerate(branch_names)}

    def node(n):
        return None if n == GROUND else node_index[n]

    return node_names, branch_names, node, branch_index


def build_mna_system(circuit) -> MnaSystem:
    """Assemble the MNA matrices of ``circuit``.

    Raises
    ------
    FormulationError
        For unsupported element types or dangling controlled-source references.
    """
    node_names, branch_names, node, branch_index = system_structure(circuit)
    dimension = len(node_names) + len(branch_names)
    constant = SparseMatrix(dimension, dimension)
    dynamic = SparseMatrix(dimension, dimension)
    rhs = np.zeros(dimension, dtype=complex)

    def rhs_add(index, value):
        rhs[index] += value

    for element in circuit:
        stamp_element(element, constant, dynamic, rhs_add, node, branch_index)

    return MnaSystem(circuit, node_names, branch_names, constant, dynamic, rhs)


def system_sparsity(system) -> "SparsitySummary":
    """Structural summary of a circuit's MNA system — the big-net preflight.

    ``system`` may be an :class:`MnaSystem` or a circuit (built on the fly).
    The summary reads the cached union structure the sparse sweep path
    iterates over, so calling it before a sweep costs nothing extra; the
    generator benchmarks and the scaling tests use it to label workloads by
    actual unknown count and density rather than nominal grid size.
    """
    if not isinstance(system, MnaSystem):
        system = build_mna_system(system)
    keys, __, ___ = system.merged_sparse_structure()
    dimension = system.dimension
    key_set = set(keys)
    off_diagonal = sum(1 for row, col in keys if row != col)
    return SparsitySummary(
        dimension=dimension,
        nnz=len(keys),
        density=(len(keys) / (dimension * dimension) if dimension else 0.0),
        off_diagonal=off_diagonal,
        structurally_symmetric=all(
            (col, row) in key_set for row, col in keys if row != col),
    )


@dataclasses.dataclass(frozen=True)
class SparsitySummary:
    """Structure statistics of one MNA system (see :func:`system_sparsity`)."""

    dimension: int
    nnz: int
    density: float
    off_diagonal: int
    structurally_symmetric: bool

    def __repr__(self):
        return (f"SparsitySummary(n={self.dimension}, nnz={self.nnz}, "
                f"density={self.density:.2e}, "
                f"symmetric={self.structurally_symmetric})")
