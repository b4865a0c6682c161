"""Numerical reference generation for symbolic analysis of large analog circuits.

Reproduction of García-Vargas, Galán, Fernández and Rodríguez-Vázquez,
*"An algorithm for numerical reference generation in symbolic analysis of
large analog circuits"*, DATE 1997.

The package is organised in layers:

* structural substrates — :mod:`repro.netlist`, :mod:`repro.devices`,
  :mod:`repro.linalg`, :mod:`repro.nodal`, :mod:`repro.mna`, with the shared
  assembly/factorization core and the cached analysis session in
  :mod:`repro.engine`,
* the paper's contribution — :mod:`repro.interpolation` (polynomial
  interpolation with adaptive frequency / conductance scaling),
* consumers and evaluation — :mod:`repro.symbolic` (SAG / SDG / SBG),
  :mod:`repro.analysis` (numeric AC simulator, Bode comparison, Monte Carlo
  statistics), :mod:`repro.montecarlo` (tolerance ensembles over the sweep
  core), :mod:`repro.circuits` (benchmark circuits), :mod:`repro.reporting`
  (experiment harness).

Quickstart
----------
::

    from repro import build_rc_ladder, generate_reference

    circuit, spec = build_rc_ladder(stages=12)
    reference = generate_reference(circuit, spec)
    print(reference.summary())
    magnitude_db, phase_deg = reference.bode([1e3, 1e4, 1e5])
"""

from .xfloat import XFloat
from .netlist import (
    Circuit,
    parse_netlist,
    parse_netlist_file,
    write_netlist,
    validate_circuit,
    to_admittance_form,
)
from .engine import AnalysisSession
from .montecarlo import (
    ParameterSpace,
    Tolerance,
    compiled_ensemble_sweep,
    ensemble_sweep,
)
from .symbolic import CompiledTransferModel, compile_transfer_model
from .nodal import TransferSpec, NetworkFunctionSampler
from .interpolation import (
    AdaptiveOptions,
    AdaptiveScalingInterpolator,
    NumericalReference,
    Polynomial,
    RationalFunction,
    ScaleFactors,
    generate_reference,
    initial_scale_factors,
    interpolate_network_function,
)
from .circuits import (
    build_rc_ladder,
    build_positive_feedback_ota,
    build_ua741,
    build_ua741_macro,
    build_miller_ota,
    build_cascode_amplifier,
)

__version__ = "1.0.0"

__all__ = [
    "XFloat",
    "Circuit",
    "parse_netlist",
    "parse_netlist_file",
    "write_netlist",
    "validate_circuit",
    "to_admittance_form",
    "AnalysisSession",
    "Tolerance",
    "ParameterSpace",
    "ensemble_sweep",
    "compiled_ensemble_sweep",
    "CompiledTransferModel",
    "compile_transfer_model",
    "TransferSpec",
    "NetworkFunctionSampler",
    "AdaptiveOptions",
    "AdaptiveScalingInterpolator",
    "NumericalReference",
    "Polynomial",
    "RationalFunction",
    "ScaleFactors",
    "generate_reference",
    "initial_scale_factors",
    "interpolate_network_function",
    "build_rc_ladder",
    "build_positive_feedback_ota",
    "build_ua741",
    "build_ua741_macro",
    "build_miller_ota",
    "build_cascode_amplifier",
    "__version__",
]
