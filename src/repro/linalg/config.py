"""Shared linear-algebra configuration: the dense/sparse dispatch cutoff.

Systems at or below :func:`dense_cutoff` unknowns are factored with the
vectorized dense LU (:func:`~repro.linalg.dense.batched_dense_lu`); larger
systems go through the sparse LU.  Every ``method="auto"`` decision goes
through :func:`use_dense` against this cutoff, so the whole stack flips
backend at the same dimension.  Overridable per process through
``REPRO_DENSE_CUTOFF``.  Consumers (notably
:class:`~repro.engine.sweep.SweepEngine`) snapshot the cutoff at
construction, so one engine never mixes backends mid-sweep when the
environment changes under it.
"""

from __future__ import annotations

import os

__all__ = ["DEFAULT_DENSE_CUTOFF", "DENSE_CUTOFF_ENV", "dense_cutoff",
           "use_dense"]

#: Default dimension at or below which the dense LU is used by ``"auto"``.
DEFAULT_DENSE_CUTOFF = 150

#: Environment variable overriding :data:`DEFAULT_DENSE_CUTOFF`.
DENSE_CUTOFF_ENV = "REPRO_DENSE_CUTOFF"


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


def use_dense(dimension, method, cutoff) -> bool:
    """Resolve a factorization ``method`` against a dense/sparse ``cutoff``.

    ``method`` must be ``"auto"``, ``"dense"`` or ``"sparse"`` — validation
    (and the error type raised for anything else) stays with the caller.
    ``cutoff`` is the caller's snapshot of :func:`dense_cutoff`.
    """
    if method == "dense":
        return True
    if method == "sparse":
        return False
    return dimension <= cutoff
