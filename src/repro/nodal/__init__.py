"""Nodal admittance formulation used by the interpolation engine.

The polynomial-interpolation reference generator needs, at every interpolation
point ``s_k``, the values ``D(s_k)`` (a determinant) and ``N(s_k) = H(s_k)
D(s_k)`` (Eqs. 8–10 of the paper).  For the scale-factor bookkeeping of
Eq. (11) to be exact, every term of those determinants must be a product of
admittances — which holds for the pure nodal formulation of circuits made of
conductances, capacitances and VCCS elements.

* :mod:`repro.nodal.admittance` builds the ``G`` and ``C`` matrices (and the
  forced-node columns) from an admittance-form circuit,
* :mod:`repro.nodal.reduce` defines the :class:`~repro.nodal.reduce.TransferSpec`
  (which sources drive the circuit, which node — or node pair — is observed),
* :mod:`repro.nodal.sampler` evaluates numerator and denominator samples with
  frequency / conductance scaling and exponent tracking, one point at a time
  or whole frequency sweeps at once (reusing the assembled ``G`` / ``C``
  parts and the factorization structure across every point).
"""

from .admittance import NodalFormulation, build_nodal_formulation
from .reduce import TransferSpec
from .sampler import NetworkFunctionSampler, SampleValue

__all__ = [
    "NodalFormulation",
    "build_nodal_formulation",
    "TransferSpec",
    "NetworkFunctionSampler",
    "SampleValue",
]
