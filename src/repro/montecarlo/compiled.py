"""Matrix-solve-free tolerance ensembles over compiled transfer models.

:func:`compiled_ensemble_sweep` is the third consumer of
:class:`~repro.symbolic.compile.CompiledTransferModel`: it maps a
:class:`~repro.montecarlo.space.ParameterSpace` straight onto the model's
free-symbol slots and serves the whole ``(M samples × F frequencies)``
ensemble as one broadcast — no MNA assembly, no factorization, no solves.
The result is a plain :class:`~repro.montecarlo.engine.EnsembleResult`
(``solver="compiled"``), so every statistical consumer downstream —
envelopes, variance attribution, corners, yield — works unchanged;
:func:`compiled_monte_carlo` and :func:`compiled_corner_analysis` wrap the
two common ones.

The slot mapping mirrors the symbolic engine's element → symbol lowering:

========== ==================== =====================================
element    free symbol          slot value from the sampled element
========== ==================== =====================================
Resistor   ``name``             ``1 / value``   (conductance stamp)
Conductor  ``name``             ``value``
Capacitor  ``name``             ``value``
VCCS       ``name``             ``gm``
Inductor   ``name + ".cl"``     ``value``  (gyrator-C load, gm = 1)
========== ==================== =====================================

Cross-checked against the matrix-engine :func:`~repro.montecarlo.engine.
ensemble_sweep` in the test suite and in ``benchmarks/bench_compiled.py``.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from ..errors import FormulationError
from ..netlist.elements import (Capacitor, Conductor, CurrentSource, Inductor,
                                Resistor, VCCS, VoltageSource)
from ..nodal.reduce import TransferSpec, _normalize_output
from .engine import EnsembleResult
from .space import ParameterSpace

__all__ = [
    "compiled_ensemble_sweep",
    "compiled_monte_carlo",
    "compiled_corner_analysis",
]


def _transfer_spec(circuit, output) -> TransferSpec:
    """``output`` as a TransferSpec excited by every independent source."""
    if isinstance(output, TransferSpec):
        return output
    inputs = [element.name for element in circuit
              if isinstance(element, (VoltageSource, CurrentSource))]
    if not inputs:
        raise FormulationError(
            "compiled ensemble needs an excitation: the circuit has no "
            "independent sources and no TransferSpec was given")
    if isinstance(output, (tuple, list)):
        output = tuple(str(node) for node in output)
    else:
        output = str(output)
    return TransferSpec(inputs=inputs, output=output)


def _slot_plan(circuit, space) -> Tuple[List[str], np.ndarray]:
    """Free-symbol slot names and the value transform per space axis.

    Returns ``(slot_names, invert)`` — ``invert`` marks resistor axes,
    whose sampled value enters the symbol table as a conductance.
    """
    elements = {element.name: element for element in circuit}
    names: List[str] = []
    invert = np.zeros(len(space.axes), dtype=bool)
    for index, axis in enumerate(space.axes):
        element = elements[axis.name]
        if isinstance(element, Resistor):
            names.append(element.name)
            invert[index] = True
        elif isinstance(element, Inductor):
            # The admittance transform lowers an inductor to a gyrator-C
            # pair with unit gm, so the varying symbol is the load
            # capacitor whose value equals the inductance.
            names.append(f"{element.name}.cl")
        elif isinstance(element, (Conductor, Capacitor, VCCS)):
            names.append(element.name)
        else:  # pragma: no cover - ParameterSpace already rejects these
            raise FormulationError(
                f"element {axis.name!r} of type {type(element).__name__} "
                "has no compiled-model slot")
    return names, invert


def _slot_values(values, invert) -> np.ndarray:
    """Element-value rows → symbol-table rows (resistors as conductances)."""
    if not invert.any():
        return values
    slot = values.copy()
    with np.errstate(divide="ignore"):
        slot[:, invert] = 1.0 / slot[:, invert]
    return slot


def compiled_ensemble_sweep(circuit, output, frequencies, space=None, *,
                            values=None, samples=128, seed=0, session=None,
                            model=None, max_terms=None,
                            admittance_transform=True) -> EnsembleResult:
    """Evaluate a tolerance ensemble with zero matrix solves.

    Drop-in counterpart of :func:`~repro.montecarlo.engine.ensemble_sweep`
    on the compiled-model path: the circuit's symbolic transfer function is
    lowered once (per session fingerprint when a ``session`` is given) to a
    coefficient-tensor program whose free slots are exactly the parameter
    space's axes, then the whole ensemble is served as numpy broadcasts.

    Parameters
    ----------
    circuit:
        The circuit at its design point.  Must be in the symbolic engine's
        scope (linear elements; sizes where the symbolic expansion is
        feasible — the intended regime of the SAG/SDG tool chain).
    output:
        Output node, ``(positive, negative)`` pair or
        :class:`~repro.nodal.reduce.TransferSpec`.  Bare outputs are
        excited by every independent source, matching the matrix engines.
    frequencies:
        Sweep grid in hertz.
    space:
        The :class:`~repro.montecarlo.space.ParameterSpace`; defaults to
        the tolerances carried by the circuit's elements.
    values:
        Optional explicit ``(M, E)`` element-value matrix (e.g. corner
        values).  Default: ``space.sample_values(samples, seed)`` — the
        same draws as the matrix path, so responses are directly
        comparable sample by sample.
    samples, seed:
        Monte Carlo draw size and RNG seed when ``values`` is not given.
    session:
        Optional :class:`~repro.engine.session.AnalysisSession` providing
        compile-once caching across Bode / SDG / Monte Carlo workloads.
    model:
        Optional pre-compiled
        :class:`~repro.symbolic.compile.CompiledTransferModel`.  Its free
        slots must cover every axis of the space
        (:class:`~repro.errors.SymbolicError` names the missing slot
        otherwise); slots the space does not vary stay at their nominal
        values.
    max_terms, admittance_transform:
        Passed through to symbolic generation when the model is built here.

    Returns
    -------
    EnsembleResult
        With ``solver="compiled"``; element-value rows match the matrix
        path, so envelopes, attribution and yield consume it unchanged.
    """
    if space is None:
        space = ParameterSpace(circuit)
    frequencies = np.asarray(frequencies, dtype=float)
    if values is None:
        values = space.sample_values(samples, seed)
    else:
        values = np.asarray(values, dtype=float)
        if values.ndim != 2 or values.shape[1] != len(space):
            raise FormulationError(
                f"values must be (M, {len(space)}), got {values.shape}")

    spec = _transfer_spec(circuit, output)
    slot_names, invert = _slot_plan(circuit, space)
    if model is None:
        if session is not None:
            model = session.compiled_transfer(
                circuit, spec, free_symbols=slot_names, max_terms=max_terms,
                admittance_transform=admittance_transform)
        else:
            from ..symbolic.generation import symbolic_network_function

            transfer = symbolic_network_function(
                circuit, spec, admittance_transform=admittance_transform,
                **({} if max_terms is None else {"max_terms": max_terms}))
            model = transfer.compile(free_symbols=slot_names)

    slot_values = _slot_values(values, invert)
    if list(model.free_names) == slot_names:
        table_values = slot_values
    else:
        # A wider (or reordered) model: route each axis to its slot, leave
        # un-varied slots at their nominal value.
        columns = [model.slot_index(name) for name in slot_names]
        table_values = np.tile(model.nominal_values, (values.shape[0], 1))
        table_values[:, columns] = slot_values

    responses = model.frequency_response(table_values, frequencies)
    return EnsembleResult(frequencies=frequencies, values=values,
                          responses=np.atleast_2d(responses), space=space,
                          output=_normalize_output(output),
                          solver="compiled")


def compiled_monte_carlo(circuit, output, frequencies, space=None, *,
                         samples=128, seed=0, tolerances=None, session=None,
                         model=None, max_terms=None):
    """Monte Carlo analysis on the compiled-model path.

    Returns the same :class:`~repro.analysis.montecarlo.MonteCarloResult`
    as :func:`~repro.analysis.montecarlo.monte_carlo_analysis` — envelope,
    attribution and yield methods included — with both the ensemble and
    the nominal response served by the compiled model.
    """
    from ..analysis.montecarlo import MonteCarloResult

    if space is None:
        space = ParameterSpace(circuit, tolerances)
    frequencies = np.asarray(frequencies, dtype=float)
    ensemble = compiled_ensemble_sweep(
        circuit, output, frequencies, space, samples=samples, seed=seed,
        session=session, model=model, max_terms=max_terms)
    nominal = compiled_ensemble_sweep(
        circuit, output, frequencies, space,
        values=space.nominal_values[None, :], session=session, model=model,
        max_terms=max_terms)
    return MonteCarloResult(ensemble=ensemble,
                            nominal_response=nominal.responses[0],
                            seed=seed)


def compiled_corner_analysis(circuit, output, frequencies, space=None, *,
                             tolerances=None, session=None, model=None,
                             max_terms=None):
    """Deterministic tolerance-band corners on the compiled-model path.

    Returns the same :class:`~repro.analysis.montecarlo.CornerResult` as
    :func:`~repro.analysis.montecarlo.corner_analysis`.
    """
    from ..analysis.montecarlo import CornerResult

    if space is None:
        space = ParameterSpace(circuit, tolerances)
    frequencies = np.asarray(frequencies, dtype=float)
    corner_values = space.corner_values()
    ensemble = compiled_ensemble_sweep(
        circuit, output, frequencies, space, values=corner_values,
        session=session, model=model, max_terms=max_terms)
    magnitudes = ensemble.magnitudes_db()
    return CornerResult(
        frequencies=frequencies,
        values=corner_values,
        responses=ensemble.responses,
        worst_low_db=magnitudes.min(axis=0),
        worst_high_db=magnitudes.max(axis=0),
    )
