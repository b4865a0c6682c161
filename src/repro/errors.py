"""Exception hierarchy for the :mod:`repro` library.

Every error raised by the library derives from :class:`ReproError`, so callers
can catch a single base class.  Sub-classes are grouped by subsystem: netlist
parsing, circuit construction, linear algebra, interpolation and symbolic
analysis.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the library."""


class NetlistError(ReproError):
    """Raised for malformed netlists or invalid circuit construction."""


class ParseError(NetlistError):
    """Raised when a netlist file or string cannot be parsed.

    Attributes
    ----------
    line_number:
        1-based line number of the offending line, if known.
    line:
        The raw text of the offending line, if known.
    """

    def __init__(self, message, line_number=None, line=None):
        self.line_number = line_number
        self.line = line
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)


class ValidationError(NetlistError):
    """Raised when a circuit fails structural validation."""


class UnknownNodeError(NetlistError):
    """Raised when an element refers to a node that does not exist."""


class UnknownElementError(NetlistError):
    """Raised when a reference to a named element cannot be resolved."""


class DeviceModelError(ReproError):
    """Raised for invalid small-signal device model parameters."""


class LinAlgError(ReproError):
    """Raised for linear-algebra failures (singular matrix, shape mismatch)."""


class SingularMatrixError(LinAlgError):
    """Raised when an LU factorization encounters a (numerically) singular pivot.

    Beyond the message, the exception carries structured context so that
    quarantine reports (:class:`repro.engine.resilience.SweepReport`) can name
    the failure precisely without parsing strings:

    Attributes
    ----------
    pivot_index:
        Elimination step / pivot column at which the factorization failed,
        if known.
    dimension:
        Dimension of the (square) matrix being factored, if known.
    batch_index:
        Index of the offending matrix inside a batched (stacked) solve.
    stage:
        Name of the escalation stage (see
        :data:`repro.engine.resilience.STAGES`) that gave up, when the
        failure came out of the resilient layer.
    """

    def __init__(self, message, *, pivot_index=None, dimension=None,
                 batch_index=None, stage=None):
        super().__init__(message)
        self.pivot_index = pivot_index
        self.dimension = dimension
        self.batch_index = batch_index
        self.stage = stage


class SolveFailureError(SingularMatrixError):
    """Raised when the resilient escalation chain exhausts every stage.

    A :class:`SingularMatrixError` subclass (callers catching the classic
    error keep working), raised by
    :func:`repro.engine.resilience.resilient_sparse_solve` with the full
    :class:`repro.engine.resilience.SolveDiagnostics` attached as
    ``diagnostics``.
    """

    def __init__(self, message, *, diagnostics=None, **context):
        super().__init__(message, **context)
        self.diagnostics = diagnostics


class CheckpointError(ReproError):
    """Raised for invalid, corrupt or mismatched ensemble checkpoints."""


class ShardFailureError(ReproError):
    """A parallel ensemble shard exhausted its infrastructure retries.

    Raised by the multiprocess supervisor when one shard could not be
    completed by any worker within the retry budget — worker processes died
    (crash, OOM-kill) or hung past the deadline on every attempt.  Distinct
    from *numerical* failure, which is handled per sample (quarantine or a
    :class:`SolveFailureError`), never by re-running a shard.

    Attributes
    ----------
    shard:
        0-based index of the failed shard.
    start, stop:
        The half-open sample range ``[start, stop)`` the shard covers.
    attempts:
        Chronological trail of attempt descriptions, one string per try
        (worker id + what happened to it).
    """

    def __init__(self, message, *, shard=None, start=None, stop=None,
                 attempts=()):
        super().__init__(message)
        self.shard = shard
        self.start = start
        self.stop = stop
        self.attempts = list(attempts)


class FormulationError(ReproError):
    """Raised when a circuit cannot be put in the required matrix form.

    The interpolation engine requires a pure admittance (nodal) formulation;
    circuits with elements that cannot be transformed raise this error.
    """


class InterpolationError(ReproError):
    """Raised for failures inside the polynomial-interpolation engine."""


class ConvergenceError(InterpolationError):
    """Raised when the adaptive-scaling loop cannot cover all coefficients."""


class ReferenceError_(ReproError):
    """Raised for invalid use of a generated numerical reference."""


class SymbolicError(ReproError):
    """Raised for failures in the symbolic-analysis subsystem."""


class SingularEvaluationError(SingularMatrixError, ZeroDivisionError):
    """Raised when a symbolic network function is evaluated at a point where
    its denominator vanishes — the symbolic engine's face of a singular
    system matrix.

    Inherits both :class:`SingularMatrixError` (so all four engines raise the
    same typed error for a singular circuit) and :class:`ZeroDivisionError`
    (the exception this condition historically raised, kept for
    backward compatibility).
    """


class SimplificationError(SymbolicError):
    """Raised when SDG/SBG simplification cannot meet the requested error bound."""
