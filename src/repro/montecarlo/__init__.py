"""Vectorized Monte Carlo / tolerance analysis over the sweep core.

The paper's SDG/SBG approximations keep the symbolically *dominant* terms of
a network function; whether they stay dominant when element values move is a
tolerance question.  This package opens that parameter-space axis as a
first-class workload on top of the :mod:`repro.engine` sweep machinery:

* :mod:`repro.montecarlo.space` — :class:`ParameterSpace`: which element
  values vary (via :class:`~repro.netlist.elements.Tolerance` metadata
  attached with ``element.with_tolerance(...)``) and the seeded gaussian /
  uniform / corner samplers that turn tolerances into value matrices,
* :mod:`repro.montecarlo.program` — :class:`ValueProgram`: vectorized
  re-stamping that reproduces the MNA builder's assembly arithmetic
  bit-for-bit across a whole ensemble,
* :mod:`repro.montecarlo.engine` — :func:`ensemble_sweep`: M perturbed
  circuits × F frequencies in chunked stacked LAPACK solves
  (:func:`~repro.linalg.dense.batched_solve`, bit-identical to the
  :func:`rebuild_sweep` rebuild-per-sample reference run on the same
  solver), with the sparse pivot-refactorization fallback above the dense
  cutoff,
* :mod:`repro.montecarlo.compiled` — :func:`compiled_ensemble_sweep`: the
  same ensemble served by a
  :class:`~repro.symbolic.compile.CompiledTransferModel` with **no matrix
  solves at all** — parameter-space axes map straight onto free-symbol
  slots of the compiled coefficient-tensor program,
* :mod:`repro.montecarlo.qmc` — Sobol' / Latin-hypercube low-discrepancy
  point sets behind ``ParameterSpace.sample_values(method=...)``, same
  seeded-determinism contract as the pseudo-random samplers,
* :mod:`repro.montecarlo.parallel` — :func:`parallel_ensemble_sweep`: the
  supervised multiprocess driver (shared-memory shards, crash / hang
  detection, bounded re-dispatch, deterministic cross-process quarantine),
  bit-identical to a single-process resilient run for any worker count,
* :mod:`repro.montecarlo.statistics` — the mergeable streaming estimators
  behind the drivers' ``store_responses=False`` mode:
  :class:`EnsembleStatistics` (exact extremes / moments plus fixed-bin
  magnitude histograms, O(F) memory at any sample count) and
  :class:`StreamingYield` (weighted pass / fail accounting with
  effective-sample-size diagnostics for importance-sampled tails).

Statistical post-processing — envelopes, variance attribution, corners and
yield — lives one layer up in :mod:`repro.analysis.montecarlo`.
"""

from ..netlist.elements import Tolerance
from .checkpoint import (CheckpointedRun, checkpoint_info,
                         checkpointed_ensemble_sweep)
from .compiled import (compiled_corner_analysis, compiled_ensemble_sweep,
                       compiled_monte_carlo)
from .engine import EnsembleResult, ensemble_sweep, rebuild_sweep
from .parallel import ParallelRunInfo, parallel_ensemble_sweep
from .program import ValueProgram
from .qmc import latin_hypercube_uniforms, sobol_uniforms
from .space import ParameterSpace
from .statistics import (DEFAULT_HISTOGRAM_BINS, DEFAULT_HISTOGRAM_RANGE,
                         EnsembleStatistics, StreamingYield,
                         WeightDiagnostics)

__all__ = [
    "Tolerance",
    "ParameterSpace",
    "ValueProgram",
    "EnsembleResult",
    "ensemble_sweep",
    "rebuild_sweep",
    "compiled_ensemble_sweep",
    "compiled_monte_carlo",
    "compiled_corner_analysis",
    "EnsembleStatistics",
    "StreamingYield",
    "WeightDiagnostics",
    "DEFAULT_HISTOGRAM_BINS",
    "DEFAULT_HISTOGRAM_RANGE",
    "CheckpointedRun",
    "checkpointed_ensemble_sweep",
    "checkpoint_info",
    "sobol_uniforms",
    "latin_hypercube_uniforms",
    "parallel_ensemble_sweep",
    "ParallelRunInfo",
]
