"""Modified nodal analysis (MNA) — the general-purpose formulation.

The interpolation engine uses the restricted admittance-form nodal
formulation (:mod:`repro.nodal`) because the scale-factor bookkeeping demands
it.  Everything else — the numeric AC simulator standing in for the paper's
"commercial electrical simulator" (Fig. 2), cross-checks, SBG what-if
evaluations — uses the full MNA formulation in this package, which supports
ideal voltage sources, all four controlled-source types and inductors without
any transformation.
"""

from .builder import MnaSystem, build_mna_system, system_dimension
from .solve import ac_factor_sweep, ac_solve, ac_sweep, operating_transfer

__all__ = ["MnaSystem", "build_mna_system", "system_dimension", "ac_solve",
           "ac_sweep", "ac_factor_sweep", "operating_transfer"]
