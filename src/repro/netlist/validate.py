"""Structural validation of circuits.

The matrix builders assume a structurally sane circuit: a ground node exists
and every node can reach ground through element connections, no node is
dangling (touched by fewer than two element terminals), and controlled sources
reference existing controlling nodes / sources.  :func:`validate_circuit`
checks these properties and either raises or returns a report.
"""

from __future__ import annotations

import dataclasses
from collections import defaultdict, deque
from typing import Dict, List, Set

from ..errors import ValidationError
from .elements import CCCS, CCVS, GROUND, CurrentSource, VoltageSource

__all__ = ["ValidationReport", "validate_circuit"]


@dataclasses.dataclass
class ValidationReport:
    """Result of :func:`validate_circuit`.

    Attributes
    ----------
    errors:
        Fatal structural problems (unreachable nodes, missing ground path,
        missing controlled-source references).
    warnings:
        Non-fatal issues (dangling nodes touched by a single terminal, sources
        with zero value).
    """

    errors: List[str] = dataclasses.field(default_factory=list)
    warnings: List[str] = dataclasses.field(default_factory=list)

    @property
    def ok(self):
        """True when there are no fatal errors."""
        return not self.errors

    def raise_if_failed(self):
        """Raise :class:`ValidationError` when any fatal error was recorded."""
        if self.errors:
            raise ValidationError("; ".join(self.errors))


def _adjacency(circuit):
    """Node adjacency through element *conducting* terminals.

    Controlling terminals of a VCCS do not conduct current, so they do not
    create a connectivity path; they are checked separately.
    """
    adjacency: Dict[str, Set[str]] = defaultdict(set)
    for element in circuit:
        conducting = element.nodes[:2]
        if len(conducting) == 2:
            a, b = conducting
            adjacency[a].add(b)
            adjacency[b].add(a)
    return adjacency


def _reachable_from_ground(circuit):
    adjacency = _adjacency(circuit)
    seen: Set[str] = {GROUND}
    queue = deque([GROUND])
    while queue:
        node = queue.popleft()
        for neighbor in adjacency.get(node, ()):
            if neighbor not in seen:
                seen.add(neighbor)
                queue.append(neighbor)
    return seen


def validate_circuit(circuit, raise_on_error=True):
    """Validate ``circuit`` and return a :class:`ValidationReport`.

    Parameters
    ----------
    circuit:
        The circuit to validate.
    raise_on_error:
        When true (default), raise :class:`~repro.errors.ValidationError`
        instead of returning a failing report.
    """
    report = ValidationReport()

    if len(circuit) == 0:
        report.errors.append("circuit has no elements")
    else:
        # Ground connectivity.
        reachable = _reachable_from_ground(circuit)
        for node in circuit.non_ground_nodes:
            if node not in reachable:
                report.errors.append(
                    f"node {node!r} has no conducting path to ground"
                )

        # Terminal counts (dangling node detection).
        touch_count: Dict[str, int] = defaultdict(int)
        for element in circuit:
            for node in element.nodes[:2]:
                touch_count[node] += 1
        for node in circuit.non_ground_nodes:
            if touch_count.get(node, 0) == 0:
                report.warnings.append(f"node {node!r} is not used by any element")
            elif touch_count.get(node, 0) == 1:
                report.warnings.append(
                    f"node {node!r} is touched by a single element terminal"
                )

        # Controlled-source references.
        names = {element.name.lower() for element in circuit}
        node_set = set(circuit.nodes)
        for element in circuit:
            if isinstance(element, (CCCS, CCVS)):
                if element.ctrl_source.lower() not in names:
                    report.errors.append(
                        f"{element.name}: controlling source "
                        f"{element.ctrl_source!r} not found"
                    )
            for node in element.nodes:
                if node not in node_set:
                    report.errors.append(
                        f"{element.name}: node {node!r} is unknown"
                    )

        # Excitation sanity.
        sources = circuit.elements_of_type(VoltageSource, CurrentSource)
        if sources and all(source.value == 0.0 for source in sources):
            report.warnings.append("all independent sources have zero AC value")

    if raise_on_error:
        report.raise_if_failed()
    return report
