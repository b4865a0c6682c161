"""Runners for every experiment reproduced from the paper.

Each function builds the relevant circuit, runs the relevant algorithm and
returns a small result dataclass.  The benchmark suite calls these runners and
asserts on the *shape* of the results (who wins, which regions appear, how the
iteration cost falls); the examples print them; EXPERIMENTS.md records the
measured values next to the paper's.
"""

from __future__ import annotations

import dataclasses
import math
import time
from typing import List, Optional, Tuple

import numpy as np

from ..analysis.ac import ACAnalysis
from ..analysis.compare import BodeComparison, compare_responses
from ..analysis.sensitivity import screen_elements
from ..circuits.miller_ota import build_miller_ota
from ..circuits.ota import build_positive_feedback_ota
from ..circuits.rc_ladder import build_rc_ladder
from ..circuits.ua741 import build_ua741
from ..interpolation.adaptive import (
    AdaptiveOptions,
    AdaptiveResult,
    AdaptiveScalingInterpolator,
)
from ..interpolation.basic import InterpolationResult, interpolate_network_function
from ..interpolation.reference import NumericalReference, generate_reference
from ..interpolation.scaling import ScaleFactors, initial_scale_factors
from ..engine.session import AnalysisSession
from ..mna.builder import system_dimension
from ..symbolic.sbg import simplification_before_generation
from ..netlist.transform import to_admittance_form
from ..nodal.sampler import NetworkFunctionSampler
from ..symbolic.sdg import SDGResult, simplification_during_generation

__all__ = [
    "Table1Result",
    "Table2Result",
    "Fig2Result",
    "CpuReductionResult",
    "ScalingAblationResult",
    "BatchSweepResult",
    "SensitivityScreeningResult",
    "SessionWorkloadResult",
    "MonteCarloEnsembleResult",
    "ParallelEnsembleResult",
    "StreamingEnsembleResult",
    "CompiledModelResult",
    "ScalingPoint",
    "ScalingCurveResult",
    "run_table1",
    "run_table2_table3",
    "run_fig2",
    "run_cpu_reduction",
    "run_scaling_ablation",
    "run_sdg_experiment",
    "run_batch_sweep",
    "run_sensitivity_screening",
    "run_session_workload",
    "run_montecarlo_ensemble",
    "run_parallel_ensemble",
    "run_streaming_ensemble",
    "run_compiled_model",
    "run_scaling_curve",
    "ua741_tolerance_space",
]


# --------------------------------------------------------------------------- #
# Table 1 — positive-feedback OTA, unscaled vs frequency-scaled interpolation
# --------------------------------------------------------------------------- #


@dataclasses.dataclass
class Table1Result:
    """Reproduction of Table 1 (a: unscaled, b: frequency scale factor)."""

    unscaled_numerator: InterpolationResult
    unscaled_denominator: InterpolationResult
    scaled_numerator: InterpolationResult
    scaled_denominator: InterpolationResult
    frequency_scale: float
    degree_bound: int

    def unscaled_valid_count(self, kind="denominator") -> int:
        """Number of coefficients the unscaled interpolation can certify."""
        result = (self.unscaled_denominator if kind == "denominator"
                  else self.unscaled_numerator)
        return 0 if result.region is None else result.region.width

    def scaled_valid_count(self, kind="denominator") -> int:
        """Number of coefficients the scaled interpolation certifies."""
        result = (self.scaled_denominator if kind == "denominator"
                  else self.scaled_numerator)
        return 0 if result.region is None else result.region.width


def run_table1(frequency_scale=1e9, significant_digits=6) -> Table1Result:
    """Reproduce Table 1: OTA differential gain, unscaled vs scaled."""
    circuit, spec = build_positive_feedback_ota()
    unscaled = interpolate_network_function(
        circuit, spec, factors=ScaleFactors(),
        significant_digits=significant_digits)
    scaled = interpolate_network_function(
        circuit, spec, factors=ScaleFactors(frequency=frequency_scale),
        significant_digits=significant_digits)
    return Table1Result(
        unscaled_numerator=unscaled.numerator,
        unscaled_denominator=unscaled.denominator,
        scaled_numerator=scaled.numerator,
        scaled_denominator=scaled.denominator,
        frequency_scale=frequency_scale,
        degree_bound=unscaled.denominator.num_points - 1,
    )


# --------------------------------------------------------------------------- #
# Tables 2 & 3 — µA741 denominator, successive adaptive interpolations
# --------------------------------------------------------------------------- #


@dataclasses.dataclass
class Table2Result:
    """Reproduction of Tables 2 and 3: the adaptive iteration sequence."""

    adaptive: AdaptiveResult
    degree_bound: int
    initial_factors: ScaleFactors

    @property
    def iterations(self):
        """Per-interpolation records (factors, regions, new coefficients)."""
        return self.adaptive.iterations

    def region_sequence(self) -> List[Tuple[int, int]]:
        """``(start, end)`` of the valid region of every interpolation."""
        return [(record.region_start, record.region_end)
                for record in self.adaptive.iterations
                if record.region_start is not None]

    def covered_all(self) -> bool:
        """True when the union of regions covered every coefficient."""
        return self.adaptive.converged


def run_table2_table3(options=None) -> Table2Result:
    """Reproduce Tables 2–3: adaptive scaling on the µA741 denominator."""
    circuit, spec = build_ua741()
    admittance = to_admittance_form(circuit)
    sampler = NetworkFunctionSampler(admittance, spec)
    options = options or AdaptiveOptions()
    interpolator = AdaptiveScalingInterpolator(sampler, kind="denominator",
                                               options=options)
    result = interpolator.run()
    return Table2Result(
        adaptive=result,
        degree_bound=result.degree_bound,
        initial_factors=initial_scale_factors(admittance),
    )


# --------------------------------------------------------------------------- #
# Fig. 2 — Bode overlay of interpolated coefficients vs electrical simulator
# --------------------------------------------------------------------------- #


@dataclasses.dataclass
class Fig2Result:
    """Reproduction of Fig. 2: interpolated vs simulated Bode plot."""

    frequencies: np.ndarray
    interpolated_response: np.ndarray
    simulated_response: np.ndarray
    comparison: BodeComparison
    reference: NumericalReference

    def magnitude_db(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(interpolated, simulated)`` magnitude curves in dB."""
        tiny = np.finfo(float).tiny
        interp = 20.0 * np.log10(np.maximum(np.abs(self.interpolated_response), tiny))
        simulated = 20.0 * np.log10(np.maximum(np.abs(self.simulated_response), tiny))
        return interp, simulated


def run_fig2(f_min=1.0, f_max=1e8, points_per_decade=8,
             options=None) -> Fig2Result:
    """Reproduce Fig. 2: µA741 voltage-gain Bode plot, interpolation vs AC."""
    circuit, spec = build_ua741()
    reference = generate_reference(circuit, spec, options=options)
    decades = np.log10(f_max / f_min)
    frequencies = np.logspace(np.log10(f_min), np.log10(f_max),
                              int(decades * points_per_decade) + 1)
    interpolated = reference.frequency_response(frequencies)
    simulated = ACAnalysis(circuit, spec).frequency_response(frequencies)
    comparison = compare_responses(frequencies, simulated, interpolated)
    return Fig2Result(
        frequencies=frequencies,
        interpolated_response=interpolated,
        simulated_response=simulated,
        comparison=comparison,
        reference=reference,
    )


# --------------------------------------------------------------------------- #
# CPU-time reduction (Section 3.3) — per-iteration cost with / without Eq. 17
# --------------------------------------------------------------------------- #


@dataclasses.dataclass
class CpuReductionResult:
    """Per-iteration point counts and times, with and without deflation."""

    with_reduction_points: List[int]
    with_reduction_times: List[float]
    without_reduction_points: List[int]
    without_reduction_times: List[float]

    def total_points(self) -> Tuple[int, int]:
        """``(with, without)`` total interpolation points."""
        return sum(self.with_reduction_points), sum(self.without_reduction_points)

    def reduction_ratio(self) -> float:
        """Fraction of interpolation points saved by Eq. 17."""
        with_points, without_points = self.total_points()
        if without_points == 0:
            return 0.0
        return 1.0 - with_points / without_points

    def per_iteration_decreasing(self) -> bool:
        """True when the point count never increases across iterations (with Eq. 17)."""
        points = self.with_reduction_points
        return all(points[i + 1] <= points[i] for i in range(len(points) - 1))


def run_cpu_reduction(options=None) -> CpuReductionResult:
    """Reproduce the Section 3.3 claim: later iterations get cheaper with Eq. 17."""
    circuit, spec = build_ua741()
    admittance = to_admittance_form(circuit)

    def run(deflation):
        sampler = NetworkFunctionSampler(admittance, spec)
        base = options or AdaptiveOptions()
        opts = dataclasses.replace(base, deflation=deflation)
        result = AdaptiveScalingInterpolator(sampler, kind="denominator",
                                             options=opts).run()
        points = [record.num_points for record in result.iterations]
        times = [record.elapsed_seconds for record in result.iterations]
        return points, times

    with_points, with_times = run(True)
    without_points, without_times = run(False)
    return CpuReductionResult(
        with_reduction_points=with_points,
        with_reduction_times=with_times,
        without_reduction_points=without_points,
        without_reduction_times=without_times,
    )


# --------------------------------------------------------------------------- #
# Ablations — simultaneous vs single-factor scaling, adaptive vs fixed grid
# --------------------------------------------------------------------------- #


@dataclasses.dataclass
class ScalingAblationResult:
    """Ablation of the scale-factor strategy on the µA741 denominator."""

    simultaneous: AdaptiveResult
    single_factor: AdaptiveResult
    simultaneous_max_factor: float
    single_factor_max_factor: float
    fixed_grid_interpolations: Optional[int]
    fixed_grid_covered: Optional[int]
    degree_bound: int


def run_scaling_ablation(fixed_grid_decades=4.0, options=None) -> ScalingAblationResult:
    """Compare simultaneous f/g scaling, single-factor scaling and a fixed grid."""
    circuit, spec = build_ua741()
    admittance = to_admittance_form(circuit)
    base = options or AdaptiveOptions()

    def run(single_scale):
        sampler = NetworkFunctionSampler(admittance, spec)
        opts = dataclasses.replace(base, single_scale=single_scale)
        result = AdaptiveScalingInterpolator(sampler, kind="denominator",
                                             options=opts).run()
        max_factor = max(record.factors.max_factor()
                         for record in result.iterations)
        return result, max_factor

    simultaneous, simultaneous_max = run(False)
    single, single_max = run(True)

    # Fixed-grid strategy of Section 3.1: interpolate at log-spaced per-power
    # ratios and count how many interpolations are needed to cover everything.
    sampler = NetworkFunctionSampler(admittance, spec)
    degree_bound = sampler.max_polynomial_degree()
    initial = initial_scale_factors(admittance)
    covered: set = set()
    grid_interpolations = 0
    from ..interpolation.basic import interpolate_polynomial

    ratio = 1.0
    max_grid = 12
    while len(covered) <= degree_bound and grid_interpolations < max_grid:
        factors = initial.with_ratio_applied(10.0 ** (fixed_grid_decades *
                                                      grid_interpolations))
        result = interpolate_polynomial(sampler, "denominator", factors,
                                        significant_digits=base.significant_digits)
        grid_interpolations += 1
        if result.region is not None:
            covered.update(result.region.indices)

    return ScalingAblationResult(
        simultaneous=simultaneous,
        single_factor=single,
        simultaneous_max_factor=simultaneous_max,
        single_factor_max_factor=single_max,
        fixed_grid_interpolations=grid_interpolations,
        fixed_grid_covered=len([i for i in covered if i <= degree_bound]),
        degree_bound=degree_bound,
    )


# --------------------------------------------------------------------------- #
# Batched frequency sweeps — per-point vs batch-engine evaluation
# --------------------------------------------------------------------------- #


@dataclasses.dataclass
class BatchSweepResult:
    """Per-point vs batched sweep of one circuit's network function."""

    circuit_name: str
    dimension: int
    num_points: int
    pointwise_seconds: float
    batched_seconds: float
    max_relative_deviation: float
    bitwise_identical: bool

    @property
    def speedup(self) -> float:
        """Wall-clock ratio per-point / batched."""
        if self.batched_seconds == 0.0:
            return float("inf")
        return self.pointwise_seconds / self.batched_seconds

    def describe(self) -> str:
        """One line for the experiment table."""
        return (
            f"{self.circuit_name:>12} (M={self.dimension:>3}): "
            f"per-point {self.pointwise_seconds * 1e3:7.1f} ms, "
            f"batched {self.batched_seconds * 1e3:7.1f} ms, "
            f"speedup {self.speedup:4.1f}x, "
            f"max rel dev {self.max_relative_deviation:.2e}"
        )


def _default_batch_sweep_circuits():
    return [
        ("rc_ladder_12", build_rc_ladder(12)),
        ("rc_ladder_24", build_rc_ladder(24)),
        ("rc_ladder_48", build_rc_ladder(48)),
        ("ua741", build_ua741()),
    ]


def run_batch_sweep(num_points=200, circuits=None, method="auto",
                    f_min=1.0, f_max=1e8, repeats=3) -> List[BatchSweepResult]:
    """Compare per-point and batched sweeps over a set of circuits.

    Every circuit is swept over ``num_points`` log-spaced frequencies twice —
    once point by point, each point a one-point engine sweep
    (:meth:`~repro.nodal.sampler.NetworkFunctionSampler.sample`), once as one
    batched sweep — taking the best wall-clock of ``repeats`` runs for each
    arm, and the transfer values are compared point by point.

    Parameters
    ----------
    circuits:
        Optional list of ``(name, (circuit, spec))`` pairs; defaults to the
        RC ladders with 12 / 24 / 48 stages plus the µA741 macro.
    """
    if circuits is None:
        circuits = _default_batch_sweep_circuits()
    frequencies = np.logspace(np.log10(f_min), np.log10(f_max), num_points)
    points = (2j * np.pi * frequencies).tolist()
    results = []
    for name, (circuit, spec) in circuits:
        admittance = to_admittance_form(circuit)
        pointwise_seconds = batched_seconds = float("inf")
        for __ in range(repeats):
            # Fresh samplers per repeat: the batched timing then always pays
            # the one-time structure / factorization-pattern setup, so the
            # reported speedup is a cold-sweep number, not a warm-cache one.
            sampler = NetworkFunctionSampler(admittance, spec, method=method)
            start = time.perf_counter()
            pointwise = [sampler.sample(point) for point in points]
            pointwise_seconds = min(pointwise_seconds,
                                    time.perf_counter() - start)
            sampler = NetworkFunctionSampler(admittance, spec, method=method)
            start = time.perf_counter()
            batched = sampler.sample_many(points)
            batched_seconds = min(batched_seconds,
                                  time.perf_counter() - start)
        reference = np.array([sample.transfer() for sample in pointwise])
        values = np.array([sample.transfer() for sample in batched])
        deviation = float(np.max(
            np.abs(values - reference)
            / np.maximum(np.abs(reference), np.finfo(float).tiny)
        ))
        bitwise = all(
            p.numerator == b.numerator and p.denominator == b.denominator
            for p, b in zip(pointwise, batched)
        )
        results.append(BatchSweepResult(
            circuit_name=name,
            dimension=sampler.dimension,
            num_points=num_points,
            pointwise_seconds=pointwise_seconds,
            batched_seconds=batched_seconds,
            max_relative_deviation=deviation,
            bitwise_identical=bitwise,
        ))
    return results


# --------------------------------------------------------------------------- #
# SDG error control (Eq. 3) on the Miller OTA
# --------------------------------------------------------------------------- #


def run_sdg_experiment(epsilon=0.01) -> SDGResult:
    """Exercise the SDG error control against a generated reference."""
    circuit, spec = build_miller_ota()
    reference = generate_reference(circuit, spec)
    return simplification_during_generation(circuit, spec, reference,
                                            epsilon=epsilon)


# --------------------------------------------------------------------------- #
# Rank-1 sensitivity screening vs brute-force rebuild (PR 2)
# --------------------------------------------------------------------------- #


@dataclasses.dataclass
class SensitivityScreeningResult:
    """Rank-1 vs rebuild element screening of one circuit."""

    circuit_name: str
    dimension: int
    num_elements: int
    num_frequencies: int
    rank1_seconds: float
    rebuild_seconds: float
    #: Worst relative deviation between the two engines' removal /
    #: perturbation responses, measured against the transfer-function scale
    #: ``max(|response|, |baseline|)`` at each frequency.
    max_relative_deviation: float
    #: True when both engines sort the elements into the same removal order.
    ranking_identical: bool
    #: True when both engines flag the same elements as singular-on-removal.
    singular_sets_identical: bool

    @property
    def speedup(self) -> float:
        """Wall-clock ratio rebuild / rank-1."""
        if self.rank1_seconds == 0.0:
            return float("inf")
        return self.rebuild_seconds / self.rank1_seconds

    def describe(self) -> str:
        """One line for the experiment table."""
        return (
            f"{self.circuit_name:>12} (n={self.dimension:>3}, "
            f"E={self.num_elements:>3}, F={self.num_frequencies:>3}): "
            f"rebuild {self.rebuild_seconds * 1e3:8.1f} ms, "
            f"rank-1 {self.rank1_seconds * 1e3:7.1f} ms, "
            f"speedup {self.speedup:5.1f}x, "
            f"max rel dev {self.max_relative_deviation:.2e}, "
            f"ranking {'==' if self.ranking_identical else '!='}"
        )


def _screening_deviation(rank1, rebuild):
    """Worst response deviation between two ScreeningResults (same elements).

    Each removal / perturbation response is compared against the rebuild
    oracle relative to ``max(|response|, |baseline|)`` per frequency — the
    transfer-function scale that also normalizes the influence figures.
    Singular (``None``) responses must agree between the engines; a
    ``None`` mismatch counts as infinite deviation.
    """
    tiny = np.finfo(float).tiny
    worst = 0.0
    for ours, oracle in zip(rank1.screenings, rebuild.screenings):
        for candidate, reference in (
            (ours.removal_response, oracle.removal_response),
            (ours.perturbed_response, oracle.perturbed_response),
        ):
            if (candidate is None) != (reference is None):
                return float("inf")
            if candidate is None:
                continue
            scale = np.maximum(
                np.maximum(np.abs(reference), np.abs(rebuild.baseline)), tiny)
            worst = max(worst, float(np.max(
                np.abs(candidate - reference) / scale)))
    return worst


def run_sensitivity_screening(num_frequencies=25, circuits=None,
                              perturbation=0.01, f_min=1.0, f_max=1e8,
                              repeats=3) -> List[SensitivityScreeningResult]:
    """Compare rank-1 and rebuild element screening over a set of circuits.

    Every circuit's full element set is screened over ``num_frequencies``
    log-spaced sample frequencies twice — once through the Sherman–Morrison
    engine on the cached baseline factorization, once through the brute-force
    rebuild path — taking the best wall-clock of ``repeats`` runs for each,
    and the removal / perturbation responses, influence rankings and
    singular-element sets are compared.

    Parameters
    ----------
    circuits:
        Optional list of ``(name, (circuit, spec))`` pairs; defaults to the
        µA741 macro and the Miller OTA.
    """
    if circuits is None:
        circuits = [("ua741", build_ua741()), ("miller_ota", build_miller_ota())]
    frequencies = np.logspace(np.log10(f_min), np.log10(f_max),
                              num_frequencies)
    results = []
    for name, (circuit, spec) in circuits:
        # The unknown count follows from the element list alone — no need to
        # assemble a full MNA system just to report it.
        dimension = system_dimension(circuit)
        rank1_seconds = rebuild_seconds = float("inf")
        rank1 = rebuild = None
        for __ in range(repeats):
            start = time.perf_counter()
            rank1 = screen_elements(circuit, spec, frequencies,
                                    perturbation=perturbation, method="rank1")
            rank1_seconds = min(rank1_seconds, time.perf_counter() - start)
            start = time.perf_counter()
            rebuild = screen_elements(circuit, spec, frequencies,
                                      perturbation=perturbation,
                                      method="rebuild")
            rebuild_seconds = min(rebuild_seconds,
                                  time.perf_counter() - start)
        ranking = ([i.name for i in rank1.influences()]
                   == [i.name for i in rebuild.influences()])
        singular = (
            {s.name for s in rank1.screenings if s.removal_response is None}
            == {s.name for s in rebuild.screenings
                if s.removal_response is None}
        )
        results.append(SensitivityScreeningResult(
            circuit_name=name,
            dimension=dimension,
            num_elements=len(rank1.screenings),
            num_frequencies=num_frequencies,
            rank1_seconds=rank1_seconds,
            rebuild_seconds=rebuild_seconds,
            max_relative_deviation=_screening_deviation(rank1, rebuild),
            ranking_identical=ranking,
            singular_sets_identical=singular,
        ))
    return results


# --------------------------------------------------------------------------- #
# Chained analysis workloads — the AnalysisSession cache
# --------------------------------------------------------------------------- #


@dataclasses.dataclass
class SessionWorkloadResult:
    """Chained multi-stage workload with and without an AnalysisSession."""

    circuit_name: str
    dimension: int
    num_verify_points: int
    num_screen_points: int
    num_candidates: int
    cold_seconds: float
    session_seconds: float
    #: Worst relative deviation between any cold-run and session-run output
    #: array; ``inf`` when a ranking or removal list differs at all.  The
    #: session must be a pure cache, so the acceptance bar is exactly 0.0.
    max_relative_deviation: float
    cache_hits: int
    cache_misses: int

    @property
    def speedup(self) -> float:
        """Wall-clock ratio cold / session-backed."""
        if self.session_seconds == 0.0:
            return float("inf")
        return self.cold_seconds / self.session_seconds

    def describe(self) -> str:
        """One line for the experiment table."""
        return (
            f"{self.circuit_name:>12} (n={self.dimension:>3}, "
            f"verify={self.num_verify_points:>3}, "
            f"screen={self.num_screen_points:>3}): "
            f"cold {self.cold_seconds * 1e3:8.1f} ms, "
            f"session {self.session_seconds * 1e3:8.1f} ms, "
            f"speedup {self.speedup:4.1f}x, "
            f"max rel dev {self.max_relative_deviation:.2e}, "
            f"cache {self.cache_hits}h/{self.cache_misses}m"
        )


def _chained_workload(circuit, spec, verify_frequencies, screen_frequencies,
                      epsilon, max_candidates, session=None):
    """One chained pass: Bode → screening → SBG → interpolation → report.

    Every stage is written as a standalone consumer taking only the circuit
    and the spec — exactly how separate tools (a Bode plotter, a screening
    dashboard, the SBG reducer, the reference generator, a report renderer)
    would call the library.  Without a session each stage rebuilds its
    formulation, refactors its sweep and regenerates the reference; with one
    they share everything cacheable.  Returns a dict of stage outputs for
    the zero-deviation comparison.
    """
    outputs = {}

    # 1. AC verification: the simulator-style Bode curve on the dense grid.
    outputs["bode"] = ACAnalysis(circuit, spec, session=session) \
        .frequency_response(verify_frequencies)

    # 2. Stability check: unity-gain crossing from the same curve — a second
    #    consumer of the verification grid (thinks in magnitudes, not nodes).
    response = ACAnalysis(circuit, spec, session=session) \
        .frequency_response(verify_frequencies)
    crossing = int(np.argmin(np.abs(np.abs(response) - 1.0)))
    outputs["unity_crossing"] = np.asarray(
        [verify_frequencies[crossing], np.angle(response[crossing])])

    # 3. Element influence screening (the SBG ranking input).
    screening = screen_elements(circuit, spec, screen_frequencies,
                                session=session)
    influences = screening.influences()
    outputs["ranking"] = [influence.name for influence in influences]
    outputs["screen_baseline"] = screening.baseline

    # 4. SBG reduction of the provably weak tail of the ranking.
    candidates = [influence.name for influence in influences
                  if influence.removal_error < epsilon][:max_candidates]
    reference = generate_reference(circuit, spec, session=session)
    sbg = simplification_before_generation(
        circuit, spec, reference, epsilon=epsilon,
        frequencies=screen_frequencies, candidates=candidates,
        session=session)
    outputs["removed"] = list(sbg.removed_names)
    outputs["final_error"] = np.asarray([sbg.final_error])

    # 5. Interpolation deliverable: the reference response on the dense grid.
    reference = generate_reference(circuit, spec, session=session)
    outputs["reference_response"] = reference.frequency_response(
        verify_frequencies)

    # 6. Fig. 2 overlay: interpolated reference vs the simulator curve — the
    #    paper's verification figure as yet another standalone consumer.
    reference = generate_reference(circuit, spec, session=session)
    interpolated = reference.frequency_response(verify_frequencies)
    simulated = ACAnalysis(circuit, spec, session=session) \
        .frequency_response(verify_frequencies)
    scale = np.maximum(np.abs(simulated), np.finfo(float).tiny)
    outputs["fig2_deviation"] = np.abs(interpolated - simulated) / scale

    # 7. Report pass: re-query curve, ranking and reference for rendering.
    outputs["report_bode"] = ACAnalysis(circuit, spec, session=session) \
        .frequency_response(verify_frequencies)
    report_screening = screen_elements(circuit, spec, screen_frequencies,
                                       session=session)
    outputs["report_ranking"] = [influence.name for influence
                                 in report_screening.influences()]
    reference = generate_reference(circuit, spec, session=session)
    outputs["report_reference"] = reference.frequency_response(
        verify_frequencies)
    return outputs


def _workload_deviation(cold, warm) -> float:
    """Worst relative output deviation between two workload passes."""
    worst = 0.0
    tiny = np.finfo(float).tiny
    for key, reference in cold.items():
        candidate = warm[key]
        if isinstance(reference, list):
            if candidate != reference:
                return float("inf")
            continue
        reference = np.asarray(reference)
        candidate = np.asarray(candidate)
        scale = np.maximum(np.abs(reference), tiny)
        worst = max(worst, float(np.max(np.abs(candidate - reference)
                                        / scale)))
    return worst


def run_session_workload(num_verify_points=300, num_screen_points=25,
                         epsilon=0.05, max_candidates=8, repeats=3,
                         f_min=1.0, f_max=1e8,
                         circuits=None) -> List[SessionWorkloadResult]:
    """Chained Bode → screening → SBG → interpolation → report comparison.

    Runs the workload of :func:`_chained_workload` twice per circuit — once
    with every stage standalone ("cold", rebuilding everything) and once
    sharing one :class:`~repro.engine.session.AnalysisSession` — taking the
    best wall-clock of ``repeats`` runs for each.  A *fresh* session is used
    per session-mode repeat, so the measured time is one honest session
    lifetime, not a pre-warmed cache.

    Parameters
    ----------
    circuits:
        Optional list of ``(name, (circuit, spec))`` pairs; defaults to the
        µA741 macro.
    """
    if circuits is None:
        circuits = [("ua741", build_ua741())]
    verify_frequencies = np.logspace(np.log10(f_min), np.log10(f_max),
                                     num_verify_points)
    screen_frequencies = np.logspace(np.log10(f_min), np.log10(f_max),
                                     num_screen_points)
    results = []
    for name, (circuit, spec) in circuits:
        cold_seconds = session_seconds = float("inf")
        cold_outputs = session_outputs = None
        last_session = None
        for __ in range(repeats):
            start = time.perf_counter()
            cold_outputs = _chained_workload(
                circuit, spec, verify_frequencies, screen_frequencies,
                epsilon, max_candidates, session=None)
            cold_seconds = min(cold_seconds, time.perf_counter() - start)

            session = AnalysisSession()
            start = time.perf_counter()
            session_outputs = _chained_workload(
                circuit, spec, verify_frequencies, screen_frequencies,
                epsilon, max_candidates, session=session)
            session_seconds = min(session_seconds,
                                  time.perf_counter() - start)
            last_session = session
        results.append(SessionWorkloadResult(
            circuit_name=name,
            dimension=system_dimension(circuit),
            num_verify_points=num_verify_points,
            num_screen_points=num_screen_points,
            num_candidates=max_candidates,
            cold_seconds=cold_seconds,
            session_seconds=session_seconds,
            max_relative_deviation=_workload_deviation(cold_outputs,
                                                       session_outputs),
            cache_hits=last_session.hits,
            cache_misses=last_session.misses,
        ))
    return results


# --------------------------------------------------------------------------- #
# Monte Carlo ensembles — stacked parameter-batch solves vs per-sample rebuilds
# --------------------------------------------------------------------------- #


#: The µA741 macro's discrete passives — the realistic tolerance set of the
#: ensemble benchmark (transistor small-signal parameters are bias-derived,
#: not toleranced components).
_UA741_PASSIVES = ("R1", "R2", "R3", "R4", "R5", "R6", "R7", "R8", "R9",
                   "RL", "Cc", "CL")


def ua741_tolerance_space(tolerance=0.05):
    """µA741 circuit, spec and the tolerance space over its discrete passives."""
    from ..montecarlo import ParameterSpace

    circuit, spec = build_ua741()
    space = ParameterSpace(circuit,
                           {name: tolerance for name in _UA741_PASSIVES})
    return circuit, spec, space


@dataclasses.dataclass
class MonteCarloEnsembleResult:
    """Vectorized ensemble engine vs the rebuild-per-sample baseline.

    Two arms over the *same* sampled element values:

    * the rebuild baseline — one circuit copy + MNA build + production
      :class:`~repro.analysis.ac.ACAnalysis` sweep per sample,
    * the vectorized LAPACK engine; ``speedup`` is baseline time over this
      arm's time, and ``batch_invariant`` asserts it returns bit-identical
      responses to the same LAPACK solver applied one sample at a time.
    """

    circuit_name: str
    dimension: int
    num_samples: int
    num_frequencies: int
    num_axes: int
    rebuild_seconds: float
    vectorized_seconds: float
    #: Worst relative deviation of the LAPACK arm vs the rebuild baseline
    #: (different factorization arithmetic, so ~1e-12, not 0).
    lapack_relative_deviation: float
    #: Vectorized LAPACK responses == one-sample-at-a-time LAPACK responses.
    batch_invariant: bool

    @property
    def speedup(self) -> float:
        """Wall-clock ratio rebuild / vectorized (LAPACK arm)."""
        if self.vectorized_seconds == 0.0:
            return float("inf")
        return self.rebuild_seconds / self.vectorized_seconds

    def describe(self) -> str:
        """One line for the experiment table."""
        return (
            f"{self.circuit_name:>12} (n={self.dimension:>3}, "
            f"M={self.num_samples:>4}, F={self.num_frequencies:>4}, "
            f"E={self.num_axes:>3}): "
            f"rebuild {self.rebuild_seconds:6.2f} s, "
            f"vectorized {self.vectorized_seconds:6.2f} s "
            f"(speedup {self.speedup:4.1f}x), "
            f"lapack dev {self.lapack_relative_deviation:.2e}, "
            f"batch-invariant {'ok' if self.batch_invariant else 'NO'}"
        )


def run_montecarlo_ensemble(num_samples=256, num_points=200, tolerance=0.05,
                            seed=42, circuits=None,
                            f_min=1.0, f_max=1e8,
                            repeats=3) -> List[MonteCarloEnsembleResult]:
    """Compare the vectorized ensemble engine against per-sample rebuilds.

    Every circuit's tolerance ensemble is evaluated both ways over identical
    sampled values (see :class:`MonteCarloEnsembleResult`).  The vectorized
    LAPACK arm takes the best wall-clock of ``repeats`` runs; the slow
    rebuild runs once (its several-second duration is stable).

    Parameters
    ----------
    circuits:
        Optional list of ``(name, (circuit, spec, space))`` triples;
        defaults to the µA741 macro with ±5 % tolerances on its discrete
        passives (:func:`ua741_tolerance_space`).
    """
    from ..montecarlo import ensemble_sweep, rebuild_sweep

    if circuits is None:
        circuits = [("ua741", ua741_tolerance_space(tolerance))]
    frequencies = np.logspace(np.log10(f_min), np.log10(f_max), num_points)
    results = []
    for name, (circuit, spec, space) in circuits:
        values = space.sample_values(num_samples, seed=seed)

        vectorized_seconds = float("inf")
        vectorized = None
        for __ in range(repeats):
            start = time.perf_counter()
            vectorized = ensemble_sweep(circuit, spec, frequencies, space,
                                        values=values)
            vectorized_seconds = min(vectorized_seconds,
                                     time.perf_counter() - start)

        start = time.perf_counter()
        rebuild = rebuild_sweep(circuit, spec, frequencies, space,
                                values=values, solver="lu")
        rebuild_seconds = time.perf_counter() - start

        one_at_a_time = rebuild_sweep(circuit, spec, frequencies, space,
                                      values=values, solver="lapack")

        scale = np.maximum(np.abs(rebuild.responses), np.finfo(float).tiny)
        lapack_deviation = float(np.max(
            np.abs(vectorized.responses - rebuild.responses) / scale))
        results.append(MonteCarloEnsembleResult(
            circuit_name=name,
            dimension=system_dimension(circuit),
            num_samples=num_samples,
            num_frequencies=num_points,
            num_axes=len(space),
            rebuild_seconds=rebuild_seconds,
            vectorized_seconds=vectorized_seconds,
            lapack_relative_deviation=lapack_deviation,
            batch_invariant=bool(np.array_equal(vectorized.responses,
                                                one_at_a_time.responses)),
        ))
    return results


# --------------------------------------------------------------------------- #
# Supervised parallel ensemble — multiprocess driver vs single-process
# --------------------------------------------------------------------------- #


@dataclasses.dataclass
class ParallelEnsembleResult:
    """Supervised multiprocess ensemble vs the single-process resilient run.

    Both arms evaluate the *same* up-front sampled values with quarantine
    on; ``bit_identical`` asserts the supervised driver's whole contract —
    responses, quarantined indices and the fixed-shard-order statistics
    stream all match the ``workers=1`` reference exactly.  Throughputs are
    in ensemble sample·frequency points per second, the unit a production
    tolerance run is provisioned by.
    """

    circuit_name: str
    dimension: int
    num_samples: int
    num_frequencies: int
    num_axes: int
    shard_size: int
    workers: int
    single_seconds: float
    parallel_seconds: float
    redispatches: int
    quarantined: int
    #: Responses, quarantined indices and statistics of the multiprocess
    #: arm match the workers=1 reference bit for bit.
    bit_identical: bool

    @property
    def sample_points(self) -> int:
        return self.num_samples * self.num_frequencies

    @property
    def single_throughput(self) -> float:
        """Single-process sample·points per second."""
        return self.sample_points / self.single_seconds

    @property
    def parallel_throughput(self) -> float:
        """Multiprocess sample·points per second."""
        return self.sample_points / self.parallel_seconds

    @property
    def speedup(self) -> float:
        """Wall-clock ratio single-process / multiprocess."""
        if self.parallel_seconds == 0.0:
            return float("inf")
        return self.single_seconds / self.parallel_seconds

    def describe(self) -> str:
        """One line for the experiment table."""
        return (
            f"{self.circuit_name:>12} (n={self.dimension:>3}, "
            f"M={self.num_samples:>6}, F={self.num_frequencies:>3}, "
            f"shard={self.shard_size}): "
            f"single {self.single_seconds:6.2f} s "
            f"({self.single_throughput:9.0f} pts/s), "
            f"{self.workers} workers {self.parallel_seconds:6.2f} s "
            f"({self.parallel_throughput:9.0f} pts/s, "
            f"speedup {self.speedup:4.2f}x), "
            f"redispatches {self.redispatches}, "
            f"quarantined {self.quarantined}, "
            f"bit-identical {'ok' if self.bit_identical else 'NO'}"
        )


def run_parallel_ensemble(num_samples=100_000, num_points=8, tolerance=0.05,
                          seed=42, shard_size=1024, workers=None,
                          f_min=1.0, f_max=1e8) -> ParallelEnsembleResult:
    """Throughput and bit-parity of the supervised multiprocess driver.

    The µA741 tolerance ensemble is drawn once and evaluated twice with
    quarantine on: sequentially in-process (``workers=1``) and through the
    supervised multiprocess driver.  On a single-core box the parallel arm
    only pays its supervision overhead; either way the bit-parity gate — the
    actual ISSUE 9 contract — is asserted on the full production shape.
    """
    import os as _os

    from ..montecarlo import parallel_ensemble_sweep

    circuit, spec, space = ua741_tolerance_space(tolerance)
    frequencies = np.logspace(np.log10(f_min), np.log10(f_max), num_points)
    values = space.sample_values(num_samples, seed=seed)
    if workers is None:
        workers = max(2, min(4, _os.cpu_count() or 1))

    start = time.perf_counter()
    single = parallel_ensemble_sweep(circuit, spec, frequencies, space,
                                     values=values, shard_size=shard_size,
                                     workers=1)
    single_seconds = time.perf_counter() - start

    start = time.perf_counter()
    parallel = parallel_ensemble_sweep(circuit, spec, frequencies, space,
                                       values=values, shard_size=shard_size,
                                       workers=workers)
    parallel_seconds = time.perf_counter() - start

    statistics_identical = all(
        np.array_equal(getattr(single.parallel.statistics, field),
                       getattr(parallel.parallel.statistics, field))
        for field in ("sum_db", "sumsq_db", "min_db", "max_db"))
    bit_identical = (
        np.array_equal(single.responses, parallel.responses, equal_nan=True)
        and single.report.quarantined == parallel.report.quarantined
        and single.parallel.statistics.count == parallel.parallel.statistics.count
        and statistics_identical)
    return ParallelEnsembleResult(
        circuit_name="ua741",
        dimension=system_dimension(circuit),
        num_samples=num_samples,
        num_frequencies=num_points,
        num_axes=len(space),
        shard_size=shard_size,
        workers=parallel.parallel.workers,
        single_seconds=single_seconds,
        parallel_seconds=parallel_seconds,
        redispatches=parallel.parallel.redispatches,
        quarantined=len(parallel.report.quarantined),
        bit_identical=bool(bit_identical),
    )


# --------------------------------------------------------------------------- #
# Streaming ensemble — O(F)-memory estimators at 10^6 samples + IS yield
# --------------------------------------------------------------------------- #


@dataclasses.dataclass
class StreamingEnsembleResult:
    """The ``store_responses=False`` estimator pipeline at production scale.

    Three gates in one experiment:

    * **memory** — the headline streaming sweep folds every response row
      into O(F) accumulators and drops it; ``traced_peak_mb`` is the
      tracemalloc high-water of the sweep itself (the up-front sample draw
      is excluded — it is O(M·axes) by design and reusable), ``rss_peak_mb``
      the process-lifetime RSS including any worker children;
    * **parity** — on a prefix of the same draw, sequential streaming and
      the supervised multiprocess driver produce bit-identical accumulator
      state (sums, extrema, histogram, weight moments);
    * **importance sampling** — the shifted-proposal yield estimate agrees
      with plain Monte Carlo within combined standard errors on a
      moderate-failure spec, with a healthy failure-region ESS.
    """

    circuit_name: str
    dimension: int
    num_samples: int
    num_frequencies: int
    num_axes: int
    shard_size: int
    streaming_seconds: float
    #: tracemalloc peak of the streaming fold, in MiB (sample draw excluded).
    traced_peak_mb: float
    #: what a materialized (M, F) complex response block alone would need.
    materialized_mb: float
    #: ru_maxrss of the process (+ children), in MiB.
    rss_peak_mb: float
    memory_ceiling_mb: float
    parity_samples: int
    #: Full accumulator state identical: sequential vs multiprocess driver.
    bit_identical: bool
    plain_failure: float
    plain_standard_error: float
    weighted_failure: float
    weighted_standard_error: float
    failure_ess: float
    importance_degenerate: bool

    @property
    def sample_points(self) -> int:
        return self.num_samples * self.num_frequencies

    @property
    def throughput(self) -> float:
        """Streaming sample·points per second."""
        return self.sample_points / self.streaming_seconds

    @property
    def within_ceiling(self) -> bool:
        """The streaming fold stayed under the hard tracemalloc ceiling."""
        return self.traced_peak_mb <= self.memory_ceiling_mb

    @property
    def is_consistent(self) -> bool:
        """|p_IS − p_MC| within 4 combined standard errors."""
        combined = math.hypot(self.plain_standard_error,
                              self.weighted_standard_error)
        return abs(self.weighted_failure - self.plain_failure) \
            <= 4.0 * combined

    def describe(self) -> str:
        """One line for the experiment table."""
        return (
            f"{self.circuit_name:>12} (n={self.dimension:>3}, "
            f"M={self.num_samples:>7}, F={self.num_frequencies:>3}, "
            f"shard={self.shard_size}): "
            f"streaming {self.streaming_seconds:7.2f} s "
            f"({self.throughput:9.0f} pts/s), "
            f"peak {self.traced_peak_mb:6.1f} MiB "
            f"(materialized {self.materialized_mb:7.1f} MiB, "
            f"ceiling {self.memory_ceiling_mb:.0f}, "
            f"rss {self.rss_peak_mb:.0f}), "
            f"bit-identical {'ok' if self.bit_identical else 'NO'}, "
            f"IS p={self.weighted_failure:.3e}±{self.weighted_standard_error:.1e} "
            f"vs MC p={self.plain_failure:.3e}±{self.plain_standard_error:.1e} "
            f"(ESS {self.failure_ess:.0f}, "
            f"consistent {'ok' if self.is_consistent else 'NO'})"
        )


def run_streaming_ensemble(num_samples=1_000_000, num_points=8,
                           tolerance=0.05, seed=42, shard_size=2048,
                           memory_ceiling_mb=256.0, parity_samples=4096,
                           yield_samples=2000, f_min=1.0,
                           f_max=1e8) -> StreamingEnsembleResult:
    """O(F)-memory 10⁶-sample µA741 ensemble plus the IS yield cross-check.

    The headline arm streams ``num_samples`` µA741 tolerance samples through
    per-shard accumulators under ``tracemalloc``, never materializing the
    ``(M, F)`` response block; the parity arm re-runs a prefix through the
    supervised multiprocess driver and asserts bit-identical accumulator
    state; the yield arm compares the screening-aimed importance-sampled
    failure estimate against plain Monte Carlo on a moderate-failure spec,
    where both estimators resolve the answer and a discrepancy is
    statistically meaningful.
    """
    import resource
    import tracemalloc

    from ..analysis.montecarlo import (YieldSpec, importance_yield,
                                       monte_carlo_analysis, yield_analysis)
    from ..montecarlo import ensemble_sweep, parallel_ensemble_sweep

    circuit, spec, space = ua741_tolerance_space(tolerance)
    frequencies = np.logspace(np.log10(f_min), np.log10(f_max), num_points)

    # -- headline: the big streaming fold under a memory microscope -------- #
    # The draw happens outside the traced region: it is O(M·axes), reusable
    # input, and exactly what the streaming contract does NOT cover.
    values = space.sample_values(num_samples, seed=seed)
    tracemalloc.start()
    start = time.perf_counter()
    streamed = ensemble_sweep(circuit, spec, frequencies, space,
                              values=values, store_responses=False,
                              shard_size=shard_size)
    streaming_seconds = time.perf_counter() - start
    __, traced_peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert streamed.responses is None
    assert streamed.statistics.count == num_samples

    # -- parity: sequential vs multiprocess accumulator bits --------------- #
    prefix = values[:parity_samples]
    sequential = ensemble_sweep(circuit, spec, frequencies, space,
                                values=prefix, store_responses=False,
                                shard_size=shard_size)
    parallel = parallel_ensemble_sweep(circuit, spec, frequencies, space,
                                       values=prefix, store_responses=False,
                                       shard_size=shard_size, workers=2)
    bit_identical = (
        sequential.statistics.count == parallel.statistics.count
        and all(np.array_equal(getattr(sequential.statistics, field),
                               getattr(parallel.statistics, field))
                for field in ("sum_db", "sumsq_db", "min_db", "max_db",
                              "histogram")))

    # -- yield: importance sampling vs plain Monte Carlo ------------------- #
    plain = monte_carlo_analysis(circuit, spec, frequencies, space,
                                 samples=yield_samples, seed=seed + 1)
    magnitudes = plain.ensemble.magnitudes_db()
    pivot = int(np.argmax(magnitudes.std(axis=0)))
    column = magnitudes[:, pivot]
    threshold = float(column.mean() - 1.2 * column.std())
    yield_spec = YieldSpec(name="gain", minimum_gain_db=threshold,
                           at_frequency=float(frequencies[pivot]))
    plain_yield = yield_analysis(plain, yield_spec)
    plain_failure = 1.0 - plain_yield.fraction
    plain_se = math.sqrt(max(plain_failure * (1.0 - plain_failure), 0.0)
                         / plain_yield.total)
    weighted = importance_yield(circuit, spec, frequencies, yield_spec,
                                space, samples=yield_samples, seed=seed + 2,
                                magnitude=1.5, shard_size=shard_size)
    diagnostics = weighted.failure_diagnostics()

    usage = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
             + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return StreamingEnsembleResult(
        circuit_name="ua741",
        dimension=system_dimension(circuit),
        num_samples=num_samples,
        num_frequencies=num_points,
        num_axes=len(space),
        shard_size=shard_size,
        streaming_seconds=streaming_seconds,
        traced_peak_mb=traced_peak / 2**20,
        materialized_mb=num_samples * num_points * 16 / 2**20,
        rss_peak_mb=usage / 1024.0,  # ru_maxrss is KiB on Linux
        memory_ceiling_mb=memory_ceiling_mb,
        parity_samples=parity_samples,
        bit_identical=bool(bit_identical),
        plain_failure=plain_failure,
        plain_standard_error=plain_se,
        weighted_failure=weighted.failure_probability,
        weighted_standard_error=weighted.failure_standard_error,
        failure_ess=diagnostics.ess,
        importance_degenerate=diagnostics.degenerate,
    )


# --------------------------------------------------------------------------- #
# Compiled transfer model — coefficient-tensor serving vs the matrix engine
# --------------------------------------------------------------------------- #


@dataclasses.dataclass
class CompiledModelResult:
    """Compiled coefficient-tensor serving vs the matrix ensemble engine.

    Both arms evaluate the *same* sampled element values over the same
    frequency grid on the µA741 behavioral macro:

    * the matrix arm — :func:`~repro.montecarlo.ensemble_sweep` with the
      LAPACK solver, one stacked factorization per (sample, frequency),
    * the compiled arm — :func:`~repro.montecarlo.compiled_ensemble_sweep`
      served warm from a session-cached
      :class:`~repro.symbolic.compile.CompiledTransferModel`: zero matrix
      solves, pure coefficient-tensor broadcasts.

    ``speedup`` is matrix over warm-serve wall clock (best of ``repeats``
    each); ``relative_deviation`` is the worst response-scale relative
    difference between the arms.  ``session_compiles`` counts symbolic →
    tensor lowerings the session performed across the cold call plus every
    warm repeat — the compile-once acceptance bar is exactly 1.
    """

    circuit_name: str
    dimension: int
    num_samples: int
    num_frequencies: int
    num_axes: int
    #: Source (numerator + denominator) terms and folded incidence groups.
    num_terms: int
    num_groups: int
    #: Symbolic generation + lowering, paid once per session fingerprint.
    compile_seconds: float
    matrix_seconds: float
    serve_seconds: float
    relative_deviation: float
    session_compiles: int

    @property
    def speedup(self) -> float:
        """Wall-clock ratio matrix / compiled warm serve."""
        if self.serve_seconds == 0.0:
            return float("inf")
        return self.matrix_seconds / self.serve_seconds

    def describe(self) -> str:
        """One line for the experiment table."""
        return (
            f"{self.circuit_name:>12} (n={self.dimension:>3}, "
            f"M={self.num_samples:>4}, F={self.num_frequencies:>4}, "
            f"E={self.num_axes:>3}, terms={self.num_terms}, "
            f"groups={self.num_groups}): "
            f"matrix {self.matrix_seconds:6.3f} s, "
            f"serve {self.serve_seconds:6.4f} s "
            f"(speedup {self.speedup:5.1f}x, "
            f"compile {self.compile_seconds:5.2f} s, "
            f"compiles {self.session_compiles}), "
            f"deviation {self.relative_deviation:.2e}"
        )


def run_compiled_model(num_samples=256, num_points=200, tolerance=0.05,
                       seed=42, f_min=1.0, f_max=1e8,
                       repeats=3) -> CompiledModelResult:
    """Compare compiled coefficient-tensor serving against the matrix engine.

    The workload is the µA741 behavioral macro with ±``tolerance`` on its
    twelve :data:`~repro.circuits.ua741.UA741_MACRO_TOLERANCED` axes.  The
    matrix arm takes the best of ``repeats`` LAPACK ensemble sweeps; the
    compiled arm pays one cold call (symbolic generation + lowering, timed
    as ``compile_seconds``), then takes the best of ``repeats`` warm serves
    from the same :class:`~repro.engine.session.AnalysisSession`.
    """
    from ..circuits.ua741 import build_ua741_macro
    from ..montecarlo import ParameterSpace, ensemble_sweep
    from ..montecarlo.compiled import compiled_ensemble_sweep

    circuit, spec = build_ua741_macro(tolerance=tolerance)
    space = ParameterSpace(circuit)
    frequencies = np.logspace(np.log10(f_min), np.log10(f_max), num_points)
    values = space.sample_values(num_samples, seed=seed)

    matrix_seconds = float("inf")
    matrix = None
    for __ in range(repeats):
        start = time.perf_counter()
        matrix = ensemble_sweep(circuit, spec, frequencies, space,
                                values=values)
        matrix_seconds = min(matrix_seconds, time.perf_counter() - start)

    session = AnalysisSession()
    start = time.perf_counter()
    compiled = compiled_ensemble_sweep(circuit, spec, frequencies, space,
                                       values=values, session=session)
    cold_seconds = time.perf_counter() - start

    serve_seconds = float("inf")
    for __ in range(repeats):
        start = time.perf_counter()
        compiled = compiled_ensemble_sweep(circuit, spec, frequencies, space,
                                           values=values, session=session)
        serve_seconds = min(serve_seconds, time.perf_counter() - start)

    scale = np.maximum(np.abs(matrix.responses), np.finfo(float).tiny)
    deviation = float(np.max(
        np.abs(compiled.responses - matrix.responses) / scale))

    model = session.compiled_transfer(
        circuit, spec,
        free_symbols=[name for name in space.names])
    return CompiledModelResult(
        circuit_name="ua741-macro",
        dimension=system_dimension(circuit),
        num_samples=num_samples,
        num_frequencies=num_points,
        num_axes=len(space),
        num_terms=sum(model.term_count()),
        num_groups=sum(model.group_count()),
        compile_seconds=max(cold_seconds - serve_seconds, 0.0),
        matrix_seconds=matrix_seconds,
        serve_seconds=serve_seconds,
        relative_deviation=deviation,
        session_compiles=session.stats()["compiled"]["compiles"],
    )


# --------------------------------------------------------------------------- #
# Post-layout sparse-engine scaling (generator circuits, PR 6)
# --------------------------------------------------------------------------- #


@dataclasses.dataclass
class ScalingPoint:
    """One generator circuit's dense-vs-sparse sweep measurement."""

    family: str
    circuit_name: str
    dimension: int
    nnz: int
    dense_seconds: float
    sparse_seconds: float
    natural_fill: int
    ordered_fill: int
    max_norm_deviation: float

    @property
    def speedup(self) -> float:
        """Wall-clock ratio dense / sparse (>1: sparse wins)."""
        if self.sparse_seconds == 0.0:
            return float("inf")
        return self.dense_seconds / self.sparse_seconds

    def describe(self) -> str:
        """One line for the scaling table."""
        return (
            f"{self.family:>4} n={self.dimension:>5} nnz={self.nnz:>6}: "
            f"dense {self.dense_seconds * 1e3:8.1f} ms, "
            f"sparse {self.sparse_seconds * 1e3:8.1f} ms "
            f"({self.speedup:5.2f}x), fill {self.natural_fill:>6} natural "
            f"/ {self.ordered_fill:>6} ordered, "
            f"dev {self.max_norm_deviation:.2e}"
        )


@dataclasses.dataclass
class ScalingCurveResult:
    """Dense-vs-sparse sweep timings over the generator-circuit families.

    The post-layout scaling experiment: per family and size, one frequency
    sweep through the dense batched path and one through the ordered sparse
    refactorization path, with solution agreement (per-frequency deviation
    normalized by the dense solution norm) and symbolic fill-in under the
    natural versus fill-reducing column order.
    """

    points: List["ScalingPoint"]
    num_frequencies: int
    reduced: bool

    def family_points(self, family) -> List["ScalingPoint"]:
        """The curve of one family, in increasing dimension."""
        return sorted((p for p in self.points if p.family == family),
                      key=lambda p: p.dimension)

    def crossover_dimension(self, family="mesh") -> Optional[int]:
        """Smallest measured dimension where the sparse path wins."""
        for point in self.family_points(family):
            if point.sparse_seconds < point.dense_seconds:
                return point.dimension
        return None

    @property
    def max_deviation(self) -> float:
        """Worst dense/sparse deviation across every measured point."""
        return max(point.max_norm_deviation for point in self.points)

    def describe(self) -> str:
        """The scaling table plus per-family crossover dimensions."""
        lines = [point.describe() for point in self.points]
        for family in sorted({point.family for point in self.points}):
            crossover = self.crossover_dimension(family)
            where = f"n={crossover}" if crossover else "not reached"
            lines.append(f"{family:>4}: sparse crossover at {where}")
        return "\n".join(lines)


def _scaling_fill(system, s, column_order):
    """Symbolic fill-in of one factorization under ``column_order``."""
    from ..linalg.lu import sparse_lu

    return sparse_lu(system.assemble(s), column_order=column_order).fill_in


def run_scaling_curve(reduced=False, families=None, num_frequencies=8,
                      f_min=1.0, f_max=1e8,
                      targets=None) -> ScalingCurveResult:
    """Time dense vs ordered-sparse sweeps over the generator families.

    Every generator circuit is swept over ``num_frequencies`` log-spaced
    points twice — once through the dense batched path, once through the
    sparse refactorization path along the AMD elimination order — and the
    solutions compared.  ``reduced=True`` (CI smoke, also forced by
    ``REPRO_BENCH_REDUCED=1`` in :mod:`benchmarks.bench_scaling`) caps the
    curve at ~256 unknowns; the full curve reaches past 10³ where the dense
    stack's O(n³) factor cost dominates.

    Parameters
    ----------
    families:
        Optional iterable of family names (default: all of
        :data:`repro.circuits.generators.GENERATOR_FAMILIES`).
    targets:
        Optional explicit target dimensions, overriding the
        ``reduced``-selected curve (the tests use tiny targets).

    Returns
    -------
    ScalingCurveResult
    """
    from ..circuits.generators import GENERATOR_FAMILIES, build_generator
    from ..engine.sweep import SweepEngine
    from ..linalg.ordering import fill_reducing_order
    from ..mna.builder import build_mna_system

    if families is None:
        families = tuple(GENERATOR_FAMILIES)
    if targets is None:
        targets = (66, 130, 258) if reduced else (66, 130, 258, 514, 1026)
    frequencies = np.logspace(np.log10(f_min), np.log10(f_max),
                              num_frequencies)
    s = 2j * np.pi * frequencies
    points = []
    for family in families:
        for target in targets:
            circuit, _spec = build_generator(family, target, seed=target)
            system = build_mna_system(circuit)
            keys, _constant, _dynamic = system.merged_sparse_structure()

            start = time.perf_counter()
            dense = SweepEngine(system, method="dense").solve_sweep(
                s, system.rhs)
            dense_seconds = time.perf_counter() - start

            start = time.perf_counter()
            sparse = SweepEngine(system, method="sparse").solve_sweep(
                s, system.rhs)
            sparse_seconds = time.perf_counter() - start

            deviation = float(np.max(
                np.abs(dense - sparse)
                / np.linalg.norm(dense, axis=1, keepdims=True)))
            order = fill_reducing_order(system.dimension, keys)
            points.append(ScalingPoint(
                family=family,
                circuit_name=circuit.name,
                dimension=system.dimension,
                nnz=len(keys),
                dense_seconds=dense_seconds,
                sparse_seconds=sparse_seconds,
                natural_fill=_scaling_fill(
                    system, s[0], list(range(system.dimension))),
                ordered_fill=_scaling_fill(system, s[0], order),
                max_norm_deviation=deviation,
            ))
    return ScalingCurveResult(points=points,
                              num_frequencies=num_frequencies,
                              reduced=reduced)
