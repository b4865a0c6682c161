"""Formulation-agnostic linear-system engine.

Every workload in this library — interpolation sampling (Eqs. 7–10), SBG
element screening, AC verification sweeps — reduces to "evaluate the same
``G + s·C`` system at many complex frequencies under slightly different
conditions".  This package owns that machinery once, for every formulation:

* :mod:`repro.engine.formulation` — the :class:`~repro.engine.formulation.Formulation`
  protocol (sparse ``(G, C)`` parts, dimension, assembly) plus the
  :class:`~repro.engine.formulation.FormulationBase` mixin providing shared
  assembly: cached dense parts, single-point sparse assembly, batched
  ``(K, n, n)`` stack assembly and the cached union sparsity structure.
  :class:`repro.mna.builder.MnaSystem` and
  :class:`repro.nodal.admittance.NodalFormulation` both implement it.
* :mod:`repro.engine.sweep` — the batched frequency-sweep core:
  dense/sparse dispatch against :mod:`repro.linalg.config`, chunked batched
  LU, the one sparse refactorization (a compiled
  :class:`~repro.linalg.lu.RefactorSchedule` per pivot order, replayed on
  chunks of points), and :class:`~repro.engine.sweep.SweepFactors` (kept
  factors with batched ``solve`` / ``solve_columns``).
  ``mna.ac_sweep`` / ``ac_factor_sweep``, the sweeps of
  ``nodal.NetworkFunctionSampler`` and the rank-1 sensitivity screening are
  thin adapters over this module.
* :mod:`repro.engine.session` — :class:`~repro.engine.session.AnalysisSession`,
  a circuit-keyed (content-hashed) cache of built formulations, sweep
  factorizations and numerical references, so chained workloads — Bode, then
  sensitivity screening, then SBG, then interpolation on the same circuit —
  stop rebuilding from scratch.
"""

from .formulation import Formulation, FormulationBase
from .resilience import (SolveDiagnostics, SweepReport,
                         resilient_sparse_solve)
from .session import AnalysisSession
from .sweep import SweepEngine, SweepFactors

__all__ = [
    "Formulation",
    "FormulationBase",
    "SweepEngine",
    "SweepFactors",
    "AnalysisSession",
    "SolveDiagnostics",
    "SweepReport",
    "resilient_sparse_solve",
]
