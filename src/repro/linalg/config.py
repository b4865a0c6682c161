"""Shared linear-algebra configuration.

Two knobs live here:

* the **dense/sparse dispatch cutoff** — systems at or below
  :func:`dense_cutoff` unknowns are factored with the vectorizable dense LU
  (:func:`~repro.linalg.dense.dense_lu` / its batched variant); larger systems
  go through the sparse LU.  Historically three copies of this constant
  existed (``linalg.det``, ``mna.solve``, ``nodal.sampler``) and had drifted
  apart; every ``method="auto"`` decision now reads this module, so the whole
  stack flips backend at the same dimension.  Overridable per process through
  ``REPRO_DENSE_CUTOFF``.  Long-lived consumers (notably
  :class:`~repro.engine.sweep.SweepEngine`) snapshot the cutoff at
  construction, so one engine never mixes backends mid-sweep when the
  environment changes under it.

* the **sparse elimination ordering** — which fill-reducing order
  (:mod:`repro.linalg.ordering`) the sparse sweep path computes ahead of its
  first factorization.  ``"auto"`` (the default) is AMD with an RCM fallback;
  ``"markowitz"`` restores the dynamic per-step pivot search (the pre-ordering
  legacy behavior, still the right choice for very small or wildly
  unsymmetric systems).  Overridable through ``REPRO_SPARSE_ORDERING``.
"""

from __future__ import annotations

import os

__all__ = ["DEFAULT_DENSE_CUTOFF", "DENSE_CUTOFF_ENV", "dense_cutoff",
           "use_dense", "DEFAULT_SPARSE_ORDERING", "SPARSE_ORDERING_ENV",
           "SPARSE_ORDERINGS", "sparse_ordering"]

#: Default dimension at or below which the dense LU is used by ``"auto"``.
DEFAULT_DENSE_CUTOFF = 150

#: Environment variable overriding :data:`DEFAULT_DENSE_CUTOFF`.
DENSE_CUTOFF_ENV = "REPRO_DENSE_CUTOFF"

#: Default elimination-ordering strategy of the sparse sweep path.
DEFAULT_SPARSE_ORDERING = "auto"

#: Environment variable overriding :data:`DEFAULT_SPARSE_ORDERING`.
SPARSE_ORDERING_ENV = "REPRO_SPARSE_ORDERING"

#: Accepted ordering strategies: the :mod:`repro.linalg.ordering` methods
#: plus ``"markowitz"`` (no pre-ordering; dynamic pivot search every step).
SPARSE_ORDERINGS = ("auto", "amd", "rcm", "natural", "markowitz")


def dense_cutoff() -> int:
    """The active dense/sparse cutoff (env override, else the default).

    Read at every call so tests and benchmarks can flip the backend by
    setting ``REPRO_DENSE_CUTOFF`` without re-importing anything.  Invalid
    or negative values fall back to the default.
    """
    raw = os.environ.get(DENSE_CUTOFF_ENV)
    if raw is None:
        return DEFAULT_DENSE_CUTOFF
    try:
        value = int(raw)
    except ValueError:
        return DEFAULT_DENSE_CUTOFF
    return value if value >= 0 else DEFAULT_DENSE_CUTOFF


def sparse_ordering() -> str:
    """The active sparse elimination-ordering strategy.

    Read from ``REPRO_SPARSE_ORDERING`` at every call (unknown values fall
    back to the default), snapshot per :class:`~repro.engine.sweep.SweepEngine`
    construction like the dense cutoff.
    """
    raw = os.environ.get(SPARSE_ORDERING_ENV)
    if raw is None:
        return DEFAULT_SPARSE_ORDERING
    value = raw.strip().lower()
    return value if value in SPARSE_ORDERINGS else DEFAULT_SPARSE_ORDERING


def use_dense(dimension, method="auto", cutoff=None) -> bool:
    """Resolve a factorization ``method`` against the dense/sparse cutoff.

    ``method`` must be ``"auto"``, ``"dense"`` or ``"sparse"`` — validation
    (and the error type raised for anything else) stays with the caller.
    ``cutoff`` lets a caller pin the decision to a snapshot taken earlier
    (``None`` reads the live :func:`dense_cutoff`).
    """
    if method == "dense":
        return True
    if method == "sparse":
        return False
    return dimension <= (dense_cutoff() if cutoff is None else cutoff)
