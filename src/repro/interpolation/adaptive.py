"""The adaptive scaling algorithm (Section 3 of the paper).

The algorithm performs successive polynomial interpolations.  Each one uses a
pair of frequency / conductance scale factors chosen from the previous results
so that its *valid coefficient region* (the coefficients above the round-off
error level) starts right where the already-covered region ends — minimal
overlap, minimal number of interpolations.  Iterations continue until every
coefficient of the polynomial is either determined or shown to be negligible.

Step by step (for one polynomial, numerator or denominator):

1. First interpolation with the heuristic factors ``f = 1/mean(C)``,
   ``g = 1/mean(G)`` — the widest valid region (Sec. 3.2).
2. Detect the valid region via the error level (Eq. 12); denormalize and store
   its coefficients (Eq. 11).
3. While uncovered coefficients remain:
   a. towards higher powers — update the factors with Eqs. (13)–(14),
   b. towards lower powers — Eq. (15),
   c. for a gap between two covered regions — geometric-mean factors (Eq. 16),
   and interpolate again.  When enabled, the problem is deflated with Eq. (17)
   so later iterations need fewer points.
4. If a direction stalls repeatedly (no new valid coefficients even after
   increasing the separation ``r``), the remaining coefficients there are
   below the error level for every scaling — they influence the polynomial
   less than the round-off noise and are recorded as *negligible* (Sec. 3.3).
"""

from __future__ import annotations

import dataclasses
import time
from typing import Dict, List, Optional, Tuple

from ..errors import InterpolationError
from ..xfloat import XFloat
from .dft import inverse_dft_scaled
from .points import unit_circle_points
from .polynomial import Polynomial
from .reduction import deflate_samples
from .regions import find_valid_region
from .scaling import (
    ScaleFactors,
    backward_update,
    denormalize_coefficients,
    forward_update,
    gap_update,
    initial_scale_factors,
)

__all__ = [
    "AdaptiveOptions",
    "IterationRecord",
    "AdaptiveResult",
    "AdaptiveScalingInterpolator",
]


@dataclasses.dataclass
class AdaptiveOptions:
    """Tunable knobs of the adaptive scaling loop.

    Attributes
    ----------
    significant_digits:
        σ — significant digits required of every coefficient (Eq. 12 uses 6).
    tuning_r:
        The paper's tuning factor ``r`` controlling the overlap between
        successive valid regions (0 keeps the regions just touching).
    max_iterations:
        Hard cap on the number of interpolations.
    deflation:
        Apply the Eq. (17) problem-size reduction when possible.
    single_scale:
        Ablation switch: put the whole ratio update into the frequency factor
        instead of splitting it with the conductance factor (Sec. 3.2 warns
        this produces >1e18 factors on large circuits).
    patience:
        Number of stalled attempts (per direction) before the remaining
        coefficients are declared negligible.
    initial_factors:
        Override the first-iteration heuristic factors.
    num_points:
        Override the degree bound + 1 point count of the full interpolations.
    """

    significant_digits: int = 6
    tuning_r: float = 0.0
    max_iterations: int = 40
    deflation: bool = True
    single_scale: bool = False
    patience: int = 2
    initial_factors: Optional[ScaleFactors] = None
    num_points: Optional[int] = None


@dataclasses.dataclass
class IterationRecord:
    """Bookkeeping for one interpolation of the adaptive loop."""

    index: int
    direction: str
    factors: ScaleFactors
    ratio_q: Optional[float]
    num_points: int
    deflated: bool
    offset: int
    region_start: Optional[int]
    region_end: Optional[int]
    new_indices: List[int]
    covered_after: int
    elapsed_seconds: float
    consistency_log10_deviation: float = 0.0


@dataclasses.dataclass
class AdaptiveResult:
    """Final outcome of the adaptive scaling interpolation."""

    kind: str
    degree_bound: int
    admittance_order: int
    coefficients: List[XFloat]
    status: List[str]
    iterations: List[IterationRecord]
    converged: bool
    total_samples: int

    def polynomial(self) -> Polynomial:
        """The interpolated polynomial (negligible coefficients are zero)."""
        return Polynomial(self.coefficients)

    def coefficient(self, power) -> XFloat:
        """Coefficient of ``s**power``."""
        if power < 0 or power > self.degree_bound:
            return XFloat.zero()
        return self.coefficients[power]

    def valid_count(self):
        """Number of coefficients determined above the error level."""
        return sum(1 for status in self.status if status == "valid")

    def negligible_count(self):
        """Number of coefficients shown to be below the error level."""
        return sum(1 for status in self.status if status == "negligible")

    def iteration_count(self):
        """Number of interpolations performed."""
        return len(self.iterations)

    def summary(self) -> str:
        """One-line human-readable summary."""
        return (
            f"{self.kind}: degree bound {self.degree_bound}, "
            f"{self.valid_count()} valid + {self.negligible_count()} negligible "
            f"coefficients in {self.iteration_count()} interpolations "
            f"({self.total_samples} matrix factorizations)"
        )


class AdaptiveScalingInterpolator:
    """Runs the adaptive scaling algorithm for one polynomial.

    Parameters
    ----------
    sampler:
        A :class:`~repro.nodal.sampler.NetworkFunctionSampler` built for the
        circuit / transfer function of interest.
    kind:
        ``"numerator"`` or ``"denominator"``.
    options:
        :class:`AdaptiveOptions`; defaults are the paper's settings.
    """

    def __init__(self, sampler, kind="denominator", options=None):
        if kind not in ("numerator", "denominator"):
            raise InterpolationError(f"unknown polynomial kind {kind!r}")
        self.sampler = sampler
        self.kind = kind
        self.options = options or AdaptiveOptions()
        formulation = sampler.formulation
        self.admittance_order = (
            formulation.denominator_admittance_order
            if kind == "denominator"
            else formulation.numerator_admittance_order
        )

    # ------------------------------------------------------------------ #

    def run(self) -> AdaptiveResult:
        """Execute the adaptive loop and return the assembled coefficients."""
        options = self.options
        if options.num_points is not None:
            degree_bound = options.num_points - 1
        else:
            degree_bound = self.sampler.max_polynomial_degree()
        if degree_bound < 0:
            raise InterpolationError("degree bound must be non-negative")

        known: Dict[int, XFloat] = {}
        known_region_info: Dict[int, Tuple[ScaleFactors, float]] = {}
        negligible: set = set()
        iterations: List[IterationRecord] = []
        total_samples = 0

        factors = options.initial_factors or initial_scale_factors(
            self.sampler.formulation.circuit
        )
        direction = "initial"
        ratio_q: Optional[float] = None
        forward_stall = 0
        backward_stall = 0
        gap_stall = 0

        for iteration_index in range(options.max_iterations):
            targets = [power for power in range(degree_bound + 1)
                       if power not in known and power not in negligible]
            if not targets:
                break

            if iteration_index > 0:
                factors, direction, ratio_q = self._next_factors(
                    known, known_region_info, negligible, targets, degree_bound,
                    forward_stall, backward_stall, gap_stall,
                )

            started = time.perf_counter()
            record = self._interpolate_once(
                iteration_index, direction, factors, ratio_q, known, negligible,
                degree_bound,
            )
            record.elapsed_seconds = time.perf_counter() - started
            total_samples += record.num_points
            iterations.append(record)

            # Harvest newly valid coefficients.
            new_found = bool(record.new_indices)
            for power in record.new_indices:
                known_region_info[power] = (factors,
                                            record.log10_by_power[power])
            for power, value in record.new_values.items():
                known[power] = value

            # Stall bookkeeping per direction.
            if direction == "forward":
                forward_stall = 0 if new_found else forward_stall + 1
            elif direction == "backward":
                backward_stall = 0 if new_found else backward_stall + 1
            elif direction == "gap":
                gap_stall = 0 if new_found else gap_stall + 1
            elif not new_found:
                forward_stall += 1

            # Declare negligible coefficients once a direction is exhausted.
            covered = set(known) | negligible
            if covered:
                top = max(known) if known else -1
                bottom = min(known) if known else degree_bound + 1
                if forward_stall >= options.patience:
                    for power in range(top + 1, degree_bound + 1):
                        if power not in known:
                            negligible.add(power)
                    forward_stall = 0
                if backward_stall >= options.patience:
                    for power in range(0, bottom):
                        if power not in known:
                            negligible.add(power)
                    backward_stall = 0
                if gap_stall >= options.patience:
                    for power in targets:
                        if power not in known:
                            negligible.add(power)
                    gap_stall = 0

        targets = [power for power in range(degree_bound + 1)
                   if power not in known and power not in negligible]
        converged = not targets

        coefficients = []
        status = []
        for power in range(degree_bound + 1):
            if power in known:
                coefficients.append(known[power])
                status.append("valid")
            elif power in negligible:
                coefficients.append(XFloat.zero())
                status.append("negligible")
            else:
                coefficients.append(XFloat.zero())
                status.append("unresolved")

        return AdaptiveResult(
            kind=self.kind,
            degree_bound=degree_bound,
            admittance_order=self.admittance_order,
            coefficients=coefficients,
            status=status,
            iterations=iterations,
            converged=converged,
            total_samples=total_samples,
        )

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #

    def _apply_ratio(self, factors, q):
        """Apply the per-power ratio ``q`` (simultaneous or single-factor)."""
        if self.options.single_scale:
            return ScaleFactors(factors.frequency * q, factors.conductance)
        return factors.with_ratio_applied(q)

    def _next_factors(self, known, known_region_info, negligible, targets,
                      degree_bound, forward_stall, backward_stall, gap_stall):
        """Choose the direction and scale factors of the next interpolation."""
        options = self.options
        top = max(known)
        bottom = min(known)

        def region_anchor(anchor_power, extreme):
            """Factors + log10 magnitude info of the region containing ``anchor_power``."""
            factors, anchor_log10 = known_region_info[anchor_power]
            # The region maximum: the known power with the same factors having
            # the largest normalized magnitude.
            best_power, best_log10 = anchor_power, anchor_log10
            for power, (other_factors, log10_value) in known_region_info.items():
                if other_factors is factors and log10_value > best_log10:
                    best_power, best_log10 = power, log10_value
            return factors, anchor_log10, best_power, best_log10

        if any(power > top for power in targets):
            factors, anchor_log10, max_power, max_log10 = region_anchor(top, "end")
            effective_r = options.tuning_r + 3.0 * forward_stall
            updated, q = forward_update(factors, top, anchor_log10, max_power,
                                        max_log10, effective_r)
            if self.options.single_scale:
                updated = self._apply_ratio(factors, q)
            return updated, "forward", q

        if any(power < bottom for power in targets):
            factors, anchor_log10, max_power, max_log10 = region_anchor(bottom, "start")
            effective_r = options.tuning_r + 3.0 * backward_stall
            updated, q = backward_update(factors, bottom, anchor_log10, max_power,
                                         max_log10, effective_r)
            if self.options.single_scale:
                updated = self._apply_ratio(factors, q)
            return updated, "backward", q

        # Remaining targets are gaps between covered coefficients: use the
        # geometric mean of the factors of the neighbouring regions (Eq. 16).
        gap_power = min(targets)
        below = max(power for power in known if power < gap_power)
        above = min(power for power in known if power > gap_power)
        factors_low, __ = known_region_info[below]
        factors_high, __ = known_region_info[above]
        updated = gap_update(factors_low, factors_high)
        if gap_stall:
            # Nudge the gap factors towards the lower region when retrying.
            updated = gap_update(factors_low, updated)
        return updated, "gap", None

    def _interpolate_once(self, iteration_index, direction, factors, ratio_q,
                          known, negligible, degree_bound) -> IterationRecord:
        """Perform one interpolation; returns the iteration record.

        The record's ``new_values`` / ``new_indices`` / ``log10_by_power``
        attributes are attached dynamically for the caller to harvest.
        """
        options = self.options
        covered = set(known) | set(negligible)
        uncovered = [power for power in range(degree_bound + 1)
                     if power not in covered]
        first_unknown = min(uncovered)
        last_unknown = max(uncovered)

        use_deflation = (
            options.deflation
            and (first_unknown > 0 or last_unknown < degree_bound)
            and bool(known)
        )
        if use_deflation:
            num_points = last_unknown - first_unknown + 1
            offset = first_unknown
        else:
            num_points = degree_bound + 1
            offset = 0

        points = unit_circle_points(num_points)
        samples = self.sampler.sample_many(points, factors.conductance,
                                           factors.frequency)
        pairs = [getattr(sample, self.kind) for sample in samples]

        if use_deflation:
            # Only coefficients outside the interpolation window are deflated
            # away; known coefficients inside a gap window stay in the samples
            # (they are simply re-derived and checked for consistency).
            outside = {power: value for power, value in known.items()
                       if power < first_unknown or power > last_unknown}
            pairs = deflate_samples(pairs, points, outside, first_unknown,
                                    factors, self.admittance_order)

        values, exponent = inverse_dft_scaled(pairs)
        try:
            region = find_valid_region(values, exponent,
                                       options.significant_digits)
        except InterpolationError:
            region = None

        new_values: Dict[int, XFloat] = {}
        log10_by_power: Dict[int, float] = {}
        consistency = 0.0
        if region is not None:
            denormalized = denormalize_coefficients(
                values, exponent, factors, self.admittance_order,
                first_power=offset)
            for relative_index in region.indices:
                power = offset + relative_index
                if power > degree_bound:
                    continue
                estimate = denormalized[relative_index]
                log10_by_power[power] = region.log10_magnitudes[relative_index]
                if power in known:
                    consistency = max(
                        consistency,
                        _log10_deviation(known[power], estimate),
                    )
                    continue
                new_values[power] = estimate

        record = IterationRecord(
            index=iteration_index,
            direction=direction,
            factors=factors,
            ratio_q=ratio_q,
            num_points=num_points,
            deflated=use_deflation,
            offset=offset,
            region_start=None if region is None else offset + region.start,
            region_end=None if region is None else offset + region.end,
            new_indices=sorted(new_values),
            covered_after=len(known) + len(new_values) + len(negligible),
            elapsed_seconds=0.0,
            consistency_log10_deviation=consistency,
        )
        # Dynamic attributes consumed by run(); not part of the public record.
        record.new_values = new_values
        record.log10_by_power = log10_by_power
        return record


def _log10_deviation(first: XFloat, second: XFloat) -> float:
    """Absolute difference of log10 magnitudes (0 when either value is zero)."""
    if first.is_zero() or second.is_zero():
        return 0.0
    return abs(first.log10() - second.log10())
