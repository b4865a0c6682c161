"""Statistical tolerance analysis over Monte Carlo ensembles.

The layer above :mod:`repro.montecarlo`: where the engine produces raw
``(M, F)`` response stacks, this module turns them into the quantities a
designer asks of a tolerance run —

* **envelopes** — per-frequency magnitude percentiles / extremes / moments of
  the ensemble Bode response (:meth:`MonteCarloResult.envelope`),
* **variance attribution** — how much of the output variance each tolerance
  axis explains, estimated by linear regression over the sampled values and
  cross-checked against the rank-1 screening engine's first-order prediction
  (:func:`variance_attribution`, :meth:`MonteCarloResult.attribution`),
* **corner analysis** — deterministic tolerance-band corners through the same
  vectorized engine (:func:`corner_analysis`),
* **yield** — the fraction of samples meeting gain / phase-margin
  specifications (:func:`yield_analysis`, :class:`YieldSpec`).
"""

from __future__ import annotations

import dataclasses
import math
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..errors import LinAlgError
from ..montecarlo.engine import EnsembleResult, ensemble_sweep
from ..montecarlo.space import ParameterSpace
from .ac import ACAnalysis
from .bode import bode_from_response, gain_margin_db, phase_margin_deg
from .sensitivity import screen_elements

__all__ = [
    "MonteCarloResult",
    "ResponseEnvelope",
    "AttributionEntry",
    "CornerResult",
    "YieldSpec",
    "YieldResult",
    "ImportanceYieldResult",
    "monte_carlo_analysis",
    "corner_analysis",
    "variance_attribution",
    "yield_analysis",
    "importance_yield",
    "importance_shift_from_screening",
]


@dataclasses.dataclass
class ResponseEnvelope:
    """Per-frequency magnitude statistics of an ensemble (all in dB)."""

    frequencies: np.ndarray
    minimum_db: np.ndarray
    maximum_db: np.ndarray
    mean_db: np.ndarray
    std_db: np.ndarray
    percentile_low_db: np.ndarray
    percentile_high_db: np.ndarray
    percentiles: Tuple[float, float]

    def width_db(self) -> np.ndarray:
        """Per-frequency spread ``max − min`` in dB."""
        return self.maximum_db - self.minimum_db


@dataclasses.dataclass
class AttributionEntry:
    """One tolerance axis' share of the ensemble output variance.

    ``share`` is the fraction of the total (frequency-averaged) magnitude
    variance the axis explains in the first-order regression model;
    ``predicted_share`` is the same figure computed from the rank-1
    screening engine's perturbation responses instead of the samples — the
    two agree to first order when tolerances are small.
    """

    name: str
    share: float
    predicted_share: float


@dataclasses.dataclass
class CornerResult:
    """Deterministic tolerance-corner responses."""

    frequencies: np.ndarray
    values: np.ndarray          # (C, E) corner element values
    responses: np.ndarray       # (C, F) complex corner responses
    worst_low_db: np.ndarray    # (F,) per-frequency lowest corner magnitude
    worst_high_db: np.ndarray   # (F,) per-frequency highest corner magnitude


@dataclasses.dataclass
class YieldSpec:
    """Pass/fail specification evaluated per ensemble member.

    Attributes
    ----------
    name:
        Label used in the yield report.
    minimum_gain_db / maximum_gain_db:
        Bounds on the magnitude at ``at_frequency`` (hertz, required for
        gain bounds).
    minimum_phase_margin_deg:
        Lower bound on the phase margin of the member's response.
    minimum_gain_margin_db:
        Lower bound on the gain margin.
    """

    name: str = "spec"
    minimum_gain_db: Optional[float] = None
    maximum_gain_db: Optional[float] = None
    at_frequency: Optional[float] = None
    minimum_phase_margin_deg: Optional[float] = None
    minimum_gain_margin_db: Optional[float] = None

    def passes(self, bode) -> bool:
        """Whether one member's :class:`~repro.analysis.bode.BodeData` passes."""
        if self.minimum_gain_db is not None or self.maximum_gain_db is not None:
            if self.at_frequency is None:
                raise ValueError(
                    f"yield spec {self.name!r}: gain bounds need at_frequency")
            magnitude, __ = bode.at(self.at_frequency)
            if self.minimum_gain_db is not None and magnitude < self.minimum_gain_db:
                return False
            if self.maximum_gain_db is not None and magnitude > self.maximum_gain_db:
                return False
        if self.minimum_phase_margin_deg is not None:
            margin = phase_margin_deg(bode)
            if margin is None or margin < self.minimum_phase_margin_deg:
                return False
        if self.minimum_gain_margin_db is not None:
            margin = gain_margin_db(bode)
            if margin is None or margin < self.minimum_gain_margin_db:
                return False
        return True


@dataclasses.dataclass
class YieldResult:
    """Yield of an ensemble against a set of specifications.

    ``total`` counts the samples actually evaluated: quarantined samples of
    a resilient run (see :attr:`~repro.montecarlo.engine.EnsembleResult.report`)
    are excluded from the yield fraction and listed in ``quarantined``
    instead — a failed solve is a diagnostic, not a failed circuit.
    """

    total: int
    passed: int
    per_spec: Dict[str, int]     # spec name → number of samples passing it
    failures: List[int]          # sample indices failing at least one spec
    quarantined: List[int] = dataclasses.field(default_factory=list)

    @property
    def fraction(self) -> float:
        """Overall yield in ``[0, 1]`` (quarantined samples excluded)."""
        return self.passed / self.total if self.total else 1.0


def _surviving_magnitudes(ensemble) -> np.ndarray:
    """``(S, F)`` dB magnitudes of the samples that actually solved.

    Non-resilient ensembles survive whole; a resilient run's quarantined
    (NaN) rows are dropped so that extremes / moments / percentiles stay
    finite.  An ensemble with no survivors has no statistics at all.
    """
    mask = ensemble.surviving_mask()
    if not mask.any():
        raise LinAlgError(
            "every ensemble sample is quarantined; no surviving samples "
            "to compute statistics over (see EnsembleResult.report)")
    return ensemble.magnitudes_db()[mask]


@dataclasses.dataclass
class MonteCarloResult:
    """A Monte Carlo tolerance run: ensemble + nominal response + statistics."""

    ensemble: EnsembleResult
    nominal_response: np.ndarray
    seed: int

    @property
    def frequencies(self) -> np.ndarray:
        """The sweep grid in hertz."""
        return self.ensemble.frequencies

    @property
    def responses(self) -> np.ndarray:
        """``(M, F)`` complex ensemble responses."""
        return self.ensemble.responses

    def envelope(self, percentiles=(5.0, 95.0)) -> ResponseEnvelope:
        """Magnitude envelope of the ensemble (see :class:`ResponseEnvelope`).

        Quarantined samples of a resilient run are excluded — the envelope
        describes the samples that actually solved.

        A streaming ensemble (``store_responses=False``) is served from its
        :class:`~repro.montecarlo.statistics.EnsembleStatistics` accumulator
        instead of the materialized responses: extremes and moments are the
        exact streaming folds, and the percentile curves come from the
        fixed-bin magnitude histogram (accurate to one bin width — 0.5 dB
        at the defaults).
        """
        low, high = percentiles
        statistics = getattr(self.ensemble, "statistics", None)
        if self.ensemble.responses is None and statistics is not None:
            if statistics.count == 0:
                raise LinAlgError(
                    "every ensemble sample is quarantined; no surviving "
                    "samples to compute statistics over "
                    "(see EnsembleResult.report)")
            return ResponseEnvelope(
                frequencies=self.frequencies,
                minimum_db=statistics.min_db.copy(),
                maximum_db=statistics.max_db.copy(),
                mean_db=statistics.mean_db(),
                std_db=statistics.std_db(),
                percentile_low_db=statistics.percentile_db(low),
                percentile_high_db=statistics.percentile_db(high),
                percentiles=(float(low), float(high)),
            )
        magnitudes = _surviving_magnitudes(self.ensemble)
        return ResponseEnvelope(
            frequencies=self.frequencies,
            minimum_db=magnitudes.min(axis=0),
            maximum_db=magnitudes.max(axis=0),
            mean_db=magnitudes.mean(axis=0),
            std_db=magnitudes.std(axis=0),
            percentile_low_db=np.percentile(magnitudes, low, axis=0),
            percentile_high_db=np.percentile(magnitudes, high, axis=0),
            percentiles=(float(low), float(high)),
        )

    def attribution(self, session=None) -> List[AttributionEntry]:
        """Per-axis variance attribution (see :func:`variance_attribution`)."""
        return variance_attribution(self, session=session)

    def yield_against(self, specs) -> YieldResult:
        """Yield of this ensemble against ``specs`` (see :func:`yield_analysis`)."""
        return yield_analysis(self, specs)


def monte_carlo_analysis(circuit, output, frequencies, space=None, *,
                         samples=128, seed=0, tolerances=None,
                         method="auto", workers=None, processes=None,
                         session=None, on_failure="raise",
                         store_responses=True,
                         shard_size=1024) -> MonteCarloResult:
    """Run a Monte Carlo tolerance analysis of ``circuit``.

    Parameters
    ----------
    circuit:
        The circuit at its design point.  Tolerance axes come from element
        ``tolerance`` metadata, an explicit ``space``, or the ``tolerances``
        name → fraction mapping.
    output:
        Output node, pair or :class:`~repro.nodal.reduce.TransferSpec`.
    frequencies:
        Sweep grid in hertz.
    samples, seed:
        Ensemble size and RNG seed (deterministic per seed).
    method, workers:
        Passed to :func:`repro.montecarlo.ensemble_sweep`.
    processes:
        Worker *processes* — anything other than ``None`` / ``1`` routes
        the ensemble through the supervised multiprocess driver
        (:func:`~repro.montecarlo.parallel.parallel_ensemble_sweep`),
        keeping the ``on_failure`` semantics; with quarantine on,
        statistics, envelopes and yield draw their surviving mask from the
        merged cross-process :class:`~repro.engine.resilience.SweepReport`,
        bit-identical to an in-process resilient run.
    session:
        Optional :class:`~repro.engine.session.AnalysisSession`; the
        nominal response then shares the session's cached sweep
        factorizations.
    on_failure:
        Passed to :func:`repro.montecarlo.ensemble_sweep` —
        ``"quarantine"`` masks failing samples instead of raising.
    store_responses, shard_size:
        ``store_responses=False`` selects the streaming estimation mode of
        the ensemble drivers: responses are folded shard by shard
        (``shard_size`` samples each) into O(F)-memory accumulators and
        never materialized, so ``samples`` can reach 10⁶ on one machine.
        :meth:`MonteCarloResult.envelope` then serves extremes / moments /
        histogram percentiles from the accumulator; per-sample accessors
        (``responses``, attribution, yield) are unavailable.

    Returns
    -------
    MonteCarloResult
    """
    if space is None:
        space = ParameterSpace(circuit, tolerances)
    frequencies = np.asarray(frequencies, dtype=float)
    streaming = ({} if store_responses
                 else {"store_responses": False, "shard_size": shard_size})
    if processes in (None, 1):
        ensemble = ensemble_sweep(circuit, output, frequencies, space,
                                  samples=samples, seed=seed, method=method,
                                  workers=workers, on_failure=on_failure,
                                  **streaming)
    else:
        from ..montecarlo.parallel import parallel_ensemble_sweep

        ensemble = parallel_ensemble_sweep(
            circuit, output, frequencies, space, samples=samples, seed=seed,
            method=method, workers=processes, on_failure=on_failure,
            **streaming)
    nominal = ACAnalysis(circuit, output, method=method,
                         session=session).frequency_response(frequencies)
    return MonteCarloResult(ensemble=ensemble, nominal_response=nominal,
                            seed=seed)


def corner_analysis(circuit, output, frequencies, space=None, *,
                    tolerances=None, method="auto",
                    workers=None) -> CornerResult:
    """Evaluate the deterministic tolerance-band corners of ``circuit``.

    Small spaces run the full ``2^E`` factorial; larger ones the axis
    extremes plus one-at-a-time corners (see
    :meth:`~repro.montecarlo.space.ParameterSpace.corner_multipliers`).
    """
    if space is None:
        space = ParameterSpace(circuit, tolerances)
    frequencies = np.asarray(frequencies, dtype=float)
    values = space.corner_values()
    ensemble = ensemble_sweep(circuit, output, frequencies, space,
                              values=values, method=method, workers=workers)
    magnitudes = ensemble.magnitudes_db()
    return CornerResult(
        frequencies=frequencies,
        values=values,
        responses=ensemble.responses,
        worst_low_db=magnitudes.min(axis=0),
        worst_high_db=magnitudes.max(axis=0),
    )


def variance_attribution(result, session=None) -> List[AttributionEntry]:
    """Attribute ensemble output variance to the tolerance axes.

    A first-order model ``|H|_dB(m) ≈ β₀ + Σ_e β_e·δ_e(m)`` (``δ_e`` the
    relative value deviation of axis ``e``) is fit per frequency by least
    squares over the samples; with independent axes the explained variance
    splits as ``β_e²·var(δ_e)``, and each entry reports its
    frequency-averaged share of the total.  The same shares are predicted
    without any sampling from the rank-1 screening engine
    (:func:`~repro.analysis.sensitivity.screen_elements`): its perturbation
    response linearizes ``∂|H|/∂δ_e`` around the design point, which is
    exactly ``β_e`` to first order.  Comparing the two columns validates the
    screening engine statistically — and flags axes whose influence is
    dominated by higher-order effects when they disagree.

    Entries are sorted by decreasing sampled share.
    """
    ensemble = (result.ensemble if isinstance(result, MonteCarloResult)
                else result)
    space = ensemble.space
    surviving = ensemble.surviving_mask()
    if not surviving.any():
        raise LinAlgError(
            "every ensemble sample is quarantined; cannot attribute variance "
            "(see EnsembleResult.report)")
    deviations = ensemble.values / space.nominal_values[None, :] - 1.0
    deviations = np.where(np.isfinite(deviations), deviations, 0.0)
    deviations = deviations[surviving]
    magnitudes = ensemble.magnitudes_db()[surviving]

    # Least-squares fit per frequency: design matrix [1, δ_1 .. δ_E].
    design = np.column_stack([np.ones(deviations.shape[0]), deviations])
    coefficients, *__ = np.linalg.lstsq(design, magnitudes, rcond=None)
    slopes = coefficients[1:, :]                      # (E, F)
    axis_variance = deviations.var(axis=0)            # (E,)
    explained = slopes**2 * axis_variance[:, None]    # (E, F)
    total = magnitudes.var(axis=0)                    # (F,)
    safe_total = np.maximum(total, np.finfo(float).tiny)
    shares = (explained / safe_total[None, :]).mean(axis=1)

    # First-order prediction from the rank-1 screening engine.
    perturbation = 0.01
    screening = screen_elements(space.circuit, ensemble.output,
                                ensemble.frequencies, elements=space.names,
                                perturbation=perturbation, session=session)
    predicted = np.zeros(len(space))
    baseline_db = 20.0 * np.log10(
        np.maximum(np.abs(screening.baseline), np.finfo(float).tiny))
    for index, screen in enumerate(screening.screenings):
        if screen.perturbed_response is None:
            predicted[index] = math.inf
            continue
        perturbed_db = 20.0 * np.log10(
            np.maximum(np.abs(screen.perturbed_response),
                       np.finfo(float).tiny))
        slope = (perturbed_db - baseline_db) / perturbation   # (F,)
        predicted[index] = float(
            np.mean(slope**2 * axis_variance[index] / safe_total))
    entries = [AttributionEntry(name=space.names[index],
                                share=float(shares[index]),
                                predicted_share=float(predicted[index]))
               for index in range(len(space))]
    entries.sort(key=lambda entry: entry.share, reverse=True)
    return entries


def yield_analysis(result, specs) -> YieldResult:
    """Yield of a Monte Carlo ensemble against gain / margin specifications.

    Parameters
    ----------
    result:
        A :class:`MonteCarloResult` (or a raw
        :class:`~repro.montecarlo.engine.EnsembleResult`).
    specs:
        One :class:`YieldSpec` or a sequence of them; a sample passes when
        it meets *every* spec.
    """
    ensemble = result.ensemble if isinstance(result, MonteCarloResult) else result
    if isinstance(specs, YieldSpec):
        specs = [specs]
    specs = list(specs)
    names = [spec.name for spec in specs]
    if len(set(names)) != len(names):
        raise ValueError(
            f"yield specs must have distinct names, got {names} "
            "(per-spec pass counts are keyed by name)")
    per_spec = {spec.name: 0 for spec in specs}
    failures: List[int] = []
    surviving = ensemble.surviving_mask()
    quarantined = [int(sample) for sample in np.flatnonzero(~surviving)]
    for sample in range(ensemble.responses.shape[0]):
        if not surviving[sample]:
            continue
        bode = bode_from_response(ensemble.frequencies,
                                  ensemble.responses[sample])
        sample_passes = True
        for spec in specs:
            if spec.passes(bode):
                per_spec[spec.name] += 1
            else:
                sample_passes = False
        if not sample_passes:
            failures.append(sample)
    total = int(surviving.sum())
    return YieldResult(total=total, passed=total - len(failures),
                       per_spec=per_spec, failures=failures,
                       quarantined=quarantined)


# --------------------------------------------------------------------- #
# importance-sampled rare-failure yield
# --------------------------------------------------------------------- #


def importance_shift_from_screening(circuit, output, frequencies, space, *,
                                    magnitude=3.0, direction="low",
                                    session=None) -> Dict[str, float]:
    """Per-axis proposal shifts aimed along the screened failure direction.

    The rank-1 screening engine (the same linearization that
    :func:`variance_attribution` validates statistically) gives each axis'
    first-order magnitude slope ``∂|H|_dB/∂δ_e``.  In the per-axis sampling
    units of :meth:`~repro.montecarlo.space.ParameterSpace.importance_sample`
    (z-scores for gaussian axes, band units for uniform axes, ``fraction/3``
    resp. ``fraction`` of relative deviation each) the least-unlikely
    direction that moves the frequency-averaged gain is proportional to the
    slope-times-unit gradient; this returns that direction scaled to
    Euclidean length ``magnitude`` (so ``magnitude=3.0`` centres the
    proposal three combined sigmas into the tail), signed toward lower gain
    for ``direction="low"`` and higher gain for ``"high"``.

    Corner axes have no continuous shift and are returned as 0.
    """
    if direction not in ("low", "high"):
        raise ValueError(
            f"direction must be 'low' or 'high', got {direction!r}")
    perturbation = 0.01
    screening = screen_elements(circuit, output, frequencies,
                                elements=space.names,
                                perturbation=perturbation, session=session)
    baseline_db = 20.0 * np.log10(
        np.maximum(np.abs(screening.baseline), np.finfo(float).tiny))
    gradient = np.zeros(len(space))
    for index, (axis, screen) in enumerate(zip(space.axes,
                                               screening.screenings)):
        if screen.perturbed_response is None:
            continue
        kind = axis.tolerance.distribution
        if kind == "corner":
            continue
        unit = (axis.tolerance.fraction / 3.0 if kind == "gaussian"
                else axis.tolerance.fraction)
        perturbed_db = 20.0 * np.log10(
            np.maximum(np.abs(screen.perturbed_response),
                       np.finfo(float).tiny))
        slope = float(np.mean((perturbed_db - baseline_db) / perturbation))
        gradient[index] = slope * unit
    norm = float(np.linalg.norm(gradient))
    if norm == 0.0:
        raise LinAlgError(
            "screening gradient vanishes: no continuous axis moves the "
            "output to first order, cannot aim an importance proposal")
    sign = -1.0 if direction == "low" else 1.0
    shifts = sign * float(magnitude) * gradient / norm
    return {axis.name: float(shifts[index])
            for index, axis in enumerate(space.axes)}


@dataclasses.dataclass
class ImportanceYieldResult:
    """Rare-failure yield estimated by importance sampling.

    Wraps the streaming ensemble (``ensemble.yields`` is the weighted
    :class:`~repro.montecarlo.statistics.StreamingYield` accumulator) with
    the resolved proposal parameters, exposing the two failure estimators
    and the weight-health diagnostics a tail estimate must be read with:
    :meth:`failure_diagnostics` (the failure-region effective sample size —
    the one that predicts estimator variance) and :meth:`diagnostics`
    (overall weights).
    """

    ensemble: EnsembleResult
    shift: Dict[str, float]
    scale: float
    mixture: float
    seed: int

    @property
    def streaming(self):
        """The underlying :class:`~repro.montecarlo.statistics.StreamingYield`."""
        return self.ensemble.yields

    @property
    def failure_probability(self) -> float:
        """Unbiased likelihood-ratio estimate of ``P(fail)``."""
        return self.streaming.failure_probability

    @property
    def failure_probability_normalized(self) -> float:
        """Self-normalized estimate (lower variance, O(1/N) bias)."""
        return self.streaming.failure_probability_normalized

    @property
    def failure_standard_error(self) -> float:
        """Standard error of :attr:`failure_probability`."""
        return self.streaming.failure_standard_error

    @property
    def yield_fraction(self) -> float:
        """``1 − P(fail)`` from the unbiased estimator, clipped to [0, 1]."""
        return float(min(1.0, max(0.0, 1.0 - self.failure_probability)))

    def diagnostics(self):
        """Overall weight diagnostics (Kish ESS, max-weight share)."""
        return self.streaming.weight_diagnostics()

    def failure_diagnostics(self):
        """Failure-region weight diagnostics — gate tail estimates on this."""
        return self.streaming.failure_diagnostics()


def importance_yield(circuit, output, frequencies, specs, space=None, *,
                     samples=4096, seed=0, tolerances=None, shift=None,
                     scale=1.0, mixture=0.1, magnitude=3.0,
                     method="auto", on_failure="quarantine",
                     shard_size=1024, histogram_bins=None,
                     histogram_range=None,
                     session=None) -> ImportanceYieldResult:
    """Estimate rare-failure yield with an importance-sampled ensemble.

    Draws ``samples`` parameter vectors from a proposal pushed toward the
    failure region (see
    :meth:`~repro.montecarlo.space.ParameterSpace.importance_sample`), runs
    them through the streaming ensemble engine with the likelihood-ratio
    weights threaded into the accumulators, and scores ``specs`` per sample
    — resolving failure probabilities far below ``1/samples``, where plain
    Monte Carlo would see zero failures.

    Parameters beyond :func:`monte_carlo_analysis`:

    specs:
        One :class:`YieldSpec` or a sequence (a sample fails when it misses
        any of them).
    shift:
        The proposal centre: a scalar (every continuous axis), a
        ``{element name: value}`` dict in per-axis sampling units, or
        ``None`` to aim it automatically along the rank-1 screening
        gradient scaled to length ``magnitude``
        (:func:`importance_shift_from_screening`, toward lower gain).
    scale, mixture:
        Proposal width multiplier and defensive nominal-mixture fraction;
        the ``mixture=0.1`` default bounds weights when the shift
        overshoots the failure boundary.
    magnitude:
        Length of the auto-aimed shift (ignored when ``shift`` is given).

    Always check :meth:`ImportanceYieldResult.failure_diagnostics` — a
    degenerate failure-region ESS means the estimate rests on a handful of
    weighted failures and its standard error is not trustworthy.
    """
    if space is None:
        space = ParameterSpace(circuit, tolerances)
    frequencies = np.asarray(frequencies, dtype=float)
    if shift is None:
        shift = importance_shift_from_screening(
            circuit, output, frequencies, space, magnitude=magnitude,
            direction="low", session=session)
    values, weights = space.importance_sample(samples, seed, shift=shift,
                                              scale=scale, mixture=mixture)
    ensemble = ensemble_sweep(circuit, output, frequencies, space,
                              values=values, method=method,
                              on_failure=on_failure,
                              store_responses=False, shard_size=shard_size,
                              histogram_bins=histogram_bins,
                              histogram_range=histogram_range,
                              weights=weights, yield_specs=specs)
    resolved = (dict(shift) if isinstance(shift, dict)
                else {axis.name: float(shift) for axis in space.axes})
    return ImportanceYieldResult(ensemble=ensemble, shift=resolved,
                                 scale=float(scale) if np.isscalar(scale)
                                 else scale,
                                 mixture=float(mixture), seed=int(seed))
