"""Element influence screening on cached baseline factorizations.

For SBG-style circuit reduction one needs to know how much each element
contributes to the network function around the design point.  The screening
measures, per element, the worst-case relative change of the transfer function
over a set of sample frequencies when the element is removed and when its
value is perturbed.

Two engines compute those responses:

``method="rank1"`` (default)
    Every screened element stamps the MNA matrix as a rank-1 outer product
    ``Δy(s)·u·vᵀ`` (:meth:`repro.mna.builder.MnaSystem.element_stamp`), so
    its removal (``Δy = −y``) and perturbation (``Δy = p·y``) responses follow
    from the *baseline* factorization via the Sherman–Morrison formula
    ``x = x₀ − (Δy·vᵀx₀) / (1 + Δy·vᵀw) · w`` with ``x₀ = A⁻¹b`` and
    ``w = A⁻¹u``, in O(n²) per element — the baseline is
    factored once per frequency batch (:func:`repro.mna.solve.ac_factor_sweep`)
    and all elements are screened against the cached factors, vectorized over
    both the frequency batch and blocks of elements.  A vanishing
    Sherman–Morrison denominator (``det(A')/det(A) → 0``) marks a removal
    that makes the circuit singular: the element is essential.

``method="rebuild"``
    The original brute-force path: rebuild the circuit and run a full
    :class:`~repro.analysis.ac.ACAnalysis` sweep per candidate, i.e. ``2·E·F``
    complete assemblies + factorizations.  Kept as the equivalence oracle for
    the rank-1 engine (see ``tests/test_sensitivity.py`` and
    ``benchmarks/bench_sensitivity.py``).

Both engines produce the ranking consumed by :mod:`repro.symbolic.sbg`.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Dict, List, Optional

import numpy as np

from ..errors import FormulationError, SingularMatrixError
from ..mna.builder import build_mna_system
from ..mna.solve import ac_factor_sweep
from ..netlist.elements import Capacitor, Conductor, Resistor, VCCS
from ..nodal.reduce import _normalize_output, _output_terms, _project_output
from .ac import ACAnalysis

__all__ = ["ElementInfluence", "ElementScreening", "ScreeningResult",
           "element_sensitivities", "screen_elements"]

#: Complex entries per ``(K, n, E)`` block of solved incidence columns; blocks
#: of elements are screened at a time so memory stays bounded (~64 MB) for
#: large circuits and dense frequency grids.
_SCREEN_CHUNK_ELEMENTS = 4_000_000

#: Sherman–Morrison error amplification goes as ``1/|denominator|``
#: (``denominator = det(A')/det(A)``), so elements whose update drives the
#: baseline matrix within this relative distance of singularity are re-screened
#: exactly through the rebuild path instead.  In practice only a handful of
#: near-essential elements trip this, keeping the rank-1 engine's responses
#: within ~1e-10 of the rebuild oracle for everything it answers itself.
_RANK1_EXACT_FALLBACK = 1e-6


@dataclasses.dataclass
class ElementInfluence:
    """Worst-case relative transfer-function change caused by one element."""

    name: str
    removal_error: float
    relative_perturbation_gain: float

    def negligible(self, threshold):
        """True when removing the element changes the response less than ``threshold``."""
        return self.removal_error < threshold


@dataclasses.dataclass
class ElementScreening:
    """Removal / perturbation responses of one screened element.

    A response of ``None`` means the corresponding modified circuit is
    singular (the removal disconnected the circuit, or the perturbed system
    could not be formulated) — the element is reported with infinite
    influence.
    """

    name: str
    removal_response: Optional[np.ndarray]
    perturbed_response: Optional[np.ndarray]


@dataclasses.dataclass
class ScreeningResult:
    """Baseline response plus per-element screening responses.

    ``screenings`` preserves the input element order; :meth:`influences`
    derives the SBG ranking from it.
    """

    frequencies: np.ndarray
    baseline: np.ndarray
    screenings: List[ElementScreening]
    perturbation: float
    method: str

    def influences(self) -> List[ElementInfluence]:
        """Per-element influence figures, least influential first."""
        influences = []
        for screening in self.screenings:
            if screening.removal_response is None:
                removal_error = math.inf
            else:
                removal_error = _relative_error(self.baseline,
                                                screening.removal_response)
            if screening.perturbed_response is None:
                sensitivity = math.inf
            else:
                sensitivity = (_relative_error(self.baseline,
                                               screening.perturbed_response)
                               / self.perturbation)
            influences.append(ElementInfluence(
                name=screening.name,
                removal_error=removal_error,
                relative_perturbation_gain=sensitivity,
            ))
        influences.sort(key=lambda item: item.removal_error)
        return influences


def _relative_error(reference, candidate):
    reference = np.asarray(reference, dtype=complex)
    candidate = np.asarray(candidate, dtype=complex)
    scale = np.maximum(np.abs(reference), np.finfo(float).tiny)
    return float(np.max(np.abs(candidate - reference) / scale))


def _screen_rebuild_one(circuit, output, frequencies, name,
                        perturbation) -> ElementScreening:
    """Brute-force screening of one element: rebuild + full AC sweep.

    Only the errors that genuinely mean "this modified circuit cannot be
    solved" — a singular matrix or an unformulatable system — are treated as
    infinite influence; anything else (unknown element names, unscalable
    element types, plain bugs) propagates to the caller.
    """
    removed = circuit.with_element_removed(name)
    try:
        removal_response = ACAnalysis(removed, output).frequency_response(
            frequencies)
    except (FormulationError, SingularMatrixError):
        removal_response = None
    perturbed = circuit.with_value_scaled(name, 1.0 + perturbation)
    try:
        perturbed_response = ACAnalysis(perturbed, output).frequency_response(
            frequencies)
    except (FormulationError, SingularMatrixError):
        perturbed_response = None
    return ElementScreening(name=name, removal_response=removal_response,
                            perturbed_response=perturbed_response)


def _screen_rank1(circuit, output, frequencies, names,
                  perturbation, session=None,
                  fingerprint=None) -> ScreeningResult:
    """Screen every element against the cached baseline factorization."""
    s = 2j * math.pi * frequencies
    if session is not None:
        if fingerprint is None:
            fingerprint = session.fingerprint(circuit)
        system = session.mna_system(circuit, fingerprint=fingerprint)
        sweep = session.factored_sweep(circuit, s, system=system,
                                       fingerprint=fingerprint)
    else:
        system = build_mna_system(circuit)
        sweep = ac_factor_sweep(system, s)
    x0 = sweep.solve(system.rhs)
    terms = _output_terms(system, output)
    baseline = _project_output(terms, x0)

    stamps = {}
    fallbacks = set()
    for name in names:
        try:
            stamps[name] = system.element_stamp(name)
        except FormulationError:
            # Element without a rank-1 admittance stamp (e.g. an explicitly
            # requested source): fall back to the rebuild path for it.
            fallbacks.add(name)

    screenings: Dict[str, ElementScreening] = {}
    stamped_names = [name for name in names if name in stamps]
    num_points, dimension = x0.shape
    block_size = max(1, _SCREEN_CHUNK_ELEMENTS
                     // max(1, num_points * dimension))
    for start in range(0, len(stamped_names), block_size):
        block = stamped_names[start:start + block_size]
        incidence_u = np.column_stack([stamps[name].u for name in block])
        incidence_v = np.column_stack([stamps[name].v for name in block])
        conductances = np.array([stamps[name].conductance for name in block])
        capacitances = np.array([stamps[name].capacitance for name in block])

        solved_u = sweep.solve_columns(incidence_u)          # (K, n, E)
        admittances = (conductances[None, :]
                       + s[:, None] * capacitances[None, :])  # (K, E)
        # Scaling an element *value* by (1+p) scales its admittance by (1+p)
        # for conductors / capacitors / VCCS, but a resistor value is the
        # reciprocal of its stamped conductance: G -> G/(1+p).
        perturbation_scales = np.array([
            (1.0 / (1.0 + perturbation) - 1.0)
            if isinstance(circuit[name], Resistor) else perturbation
            for name in block
        ])
        v_dot_x0 = x0 @ incidence_v                           # (K, E)
        v_dot_w = np.einsum("kne,ne->ke", solved_u, incidence_v)
        output_w = _project_output(terms, solved_u)           # (K, E)

        responses = {}
        near_singular = np.zeros(len(block), dtype=bool)
        for kind, scale in (("removal", -1.0),
                            ("perturbed", perturbation_scales)):
            delta = scale * admittances
            t = delta * v_dot_w
            denominator = 1.0 + t
            risky = (np.abs(denominator)
                     <= _RANK1_EXACT_FALLBACK * np.maximum(1.0, np.abs(t)))
            near_singular |= risky.any(axis=0)
            coefficient = (delta * v_dot_x0
                           / np.where(risky, 1.0, denominator))
            responses[kind] = baseline[:, None] - coefficient * output_w
        for position, name in enumerate(block):
            if near_singular[position]:
                # The update (nearly) annihilates det(A): the Sherman–Morrison
                # correction is unreliable here, so answer exactly — singular
                # removals come back as None (infinite influence), matching
                # what the rebuild oracle reports.
                screenings[name] = _screen_rebuild_one(
                    circuit, output, frequencies, name, perturbation)
            else:
                screenings[name] = ElementScreening(
                    name=name,
                    removal_response=responses["removal"][:, position],
                    perturbed_response=responses["perturbed"][:, position],
                )

    for name in fallbacks:
        screenings[name] = _screen_rebuild_one(circuit, output, frequencies,
                                               name, perturbation)

    return ScreeningResult(
        frequencies=frequencies,
        baseline=baseline,
        screenings=[screenings[name] for name in names],
        perturbation=perturbation,
        method="rank1",
    )


def screen_elements(circuit, output, frequencies, elements=None,
                    perturbation=0.01, method="rank1",
                    session=None) -> ScreeningResult:
    """Compute removal / perturbation responses for every candidate element.

    Parameters
    ----------
    circuit:
        The circuit at its design point.
    output:
        Output node / ``(positive, negative)`` pair /
        :class:`~repro.nodal.reduce.TransferSpec`.
    frequencies:
        Sample frequencies in hertz.
    elements:
        Restrict the screening to these element names (default: every passive
        admittance element and VCCS).
    perturbation:
        Relative value perturbation for the small-signal sensitivity figure.
    method:
        ``"rank1"`` (Sherman–Morrison on the cached baseline factorization,
        default) or ``"rebuild"`` (full re-assembly + sweep per element, the
        equivalence oracle).
    session:
        Optional :class:`~repro.engine.session.AnalysisSession` — the whole
        :class:`ScreeningResult` is then memoized on circuit content, output,
        grid and parameters (and the rank-1 engine takes the MNA system and
        baseline sweep factors from the same cache), so repeated screenings
        of unchanged content return the stored answer outright.

    Returns
    -------
    ScreeningResult
    """
    if session is not None:
        return session.screening(circuit, output, frequencies,
                                 elements=elements, perturbation=perturbation,
                                 method=method)
    return _screen(circuit, output, frequencies, elements, perturbation,
                   method)


def _screen(circuit, output, frequencies, elements, perturbation, method,
            session=None, fingerprint=None) -> ScreeningResult:
    """The screening computation itself (no memoization).

    ``session``, when given, only feeds the rank-1 engine's system / baseline
    factor caches (keyed by the already-computed ``fingerprint``) —
    result-level memoization lives in
    :meth:`~repro.engine.session.AnalysisSession.screening`, which calls this
    to build missing entries.
    """
    frequencies = np.asarray(frequencies, dtype=float)
    output = _normalize_output(output)
    if elements is None:
        elements = [e.name for e in circuit
                    if isinstance(e, (Resistor, Conductor, Capacitor, VCCS))]
    else:
        elements = list(elements)

    if method == "rank1":
        return _screen_rank1(circuit, output, frequencies, elements,
                             perturbation, session=session,
                             fingerprint=fingerprint)
    if method != "rebuild":
        raise FormulationError(f"unknown screening method {method!r}")

    baseline = ACAnalysis(circuit, output).frequency_response(frequencies)
    screenings = [
        _screen_rebuild_one(circuit, output, frequencies, name, perturbation)
        for name in elements
    ]
    return ScreeningResult(
        frequencies=frequencies,
        baseline=baseline,
        screenings=screenings,
        perturbation=perturbation,
        method="rebuild",
    )


def element_sensitivities(circuit, output, frequencies, elements=None,
                          perturbation=0.01, method="rank1",
                          session=None) -> List[ElementInfluence]:
    """Rank elements by their influence on the transfer function.

    Parameters
    ----------
    circuit:
        The circuit at its design point.
    output:
        Output node / pair / :class:`~repro.nodal.reduce.TransferSpec`.
    frequencies:
        Sample frequencies in hertz over which the influence is measured.
    elements:
        Restrict the screening to these element names (default: every passive
        admittance element and VCCS).
    perturbation:
        Relative value perturbation used for the small-signal sensitivity
        figure (in addition to the removal test).
    method:
        Screening engine — see :func:`screen_elements`.
    session:
        Optional :class:`~repro.engine.session.AnalysisSession` shared with
        other stages of a chained workload — see :func:`screen_elements`.

    Returns
    -------
    list of ElementInfluence, sorted by increasing removal error (least
    influential first — the SBG removal order).
    """
    return screen_elements(circuit, output, frequencies, elements=elements,
                           perturbation=perturbation, method=method,
                           session=session).influences()
