"""Parameter space of a toleranced circuit.

A :class:`ParameterSpace` fixes *which* element values vary and *how*: each
axis is one element carrying a :class:`~repro.netlist.elements.Tolerance`
(attached with ``element.with_tolerance(...)``), and the space maps tolerance
metadata to concrete value vectors:

* :meth:`ParameterSpace.sample_values` — Monte Carlo draws from a seeded
  :class:`numpy.random.Generator` (deterministic per seed),
* :meth:`ParameterSpace.corner_values` — the deterministic tolerance-band
  corners (full factorial for small spaces, axis extremes plus the
  one-at-a-time corners for large ones),
* :meth:`ParameterSpace.apply` — one perturbed :class:`Circuit` per value
  vector, the rebuild-per-sample reference the vectorized engine is checked
  against.

Every sampler returns actual element *values* (ohms, farads, siemens, …),
not multipliers, so the vectorized engine and the rebuild path consume the
same numbers to the last bit.
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import Dict, List, Tuple

import numpy as np

from ..errors import NetlistError, ValidationError
from . import qmc
from ..netlist.elements import (
    Capacitor,
    Conductor,
    Inductor,
    Resistor,
    Tolerance,
    VCCS,
)

__all__ = ["ParameterSpace"]

#: Sampling point sets :meth:`ParameterSpace.sample_multipliers` accepts.
_SAMPLING_METHODS = ("random", "sobol", "lhs")


def _validate_count(count) -> int:
    """Sample count as a positive ``int``, or a typed :class:`ValidationError`.

    Rejects non-integral and non-positive counts up front so the failure
    carries the caller's value instead of surfacing deep inside a sampler
    as an opaque shape or arithmetic error.
    """
    try:
        value = int(count)
    except (TypeError, ValueError):
        raise ValidationError(
            f"sample count must be an integer, got {count!r}") from None
    if value != count:
        raise ValidationError(
            f"sample count must be an integer, got {count!r}")
    if value <= 0:
        raise ValidationError(
            f"sample count must be positive, got {value}")
    return value

#: Element types whose value the space may vary (the admittance-stamp set the
#: screening engine supports, plus inductors which stamp a branch equation).
_VARIABLE_TYPES = (Resistor, Conductor, Capacitor, Inductor, VCCS)

#: Full-factorial corner enumeration is capped at 2**12 = 4096 circuits;
#: larger spaces fall back to axis extremes + one-at-a-time corners.
_FULL_FACTORIAL_LIMIT = 12


def _element_value(element) -> float:
    """The varied parameter of one element (gm for VCCS, value otherwise)."""
    return element.gm if isinstance(element, VCCS) else element.value


@dataclasses.dataclass(frozen=True)
class _Axis:
    """One varying element: its name, nominal value and tolerance."""

    name: str
    nominal: float
    tolerance: Tolerance


class ParameterSpace:
    """The tolerance axes of one circuit.

    Parameters
    ----------
    circuit:
        The circuit at its design point.
    tolerances:
        Optional mapping of element name to :class:`Tolerance` (or plain
        fraction) overriding / augmenting the tolerances carried by the
        elements themselves.  With no mapping, the space consists of exactly
        the elements whose ``tolerance`` attribute is set.

    Raises
    ------
    NetlistError
        When the space is empty, or an axis names an element whose type the
        engines cannot vary (sources and non-VCCS controlled sources).
    """

    def __init__(self, circuit, tolerances=None):
        self.circuit = circuit
        axes: List[_Axis] = []
        overrides: Dict[str, Tolerance] = {}
        for name, tolerance in (tolerances or {}).items():
            if not isinstance(tolerance, Tolerance):
                tolerance = Tolerance(float(tolerance))
            overrides[str(name).lower()] = tolerance
        for element in circuit:
            tolerance = overrides.pop(element.name.lower(),
                                      element.tolerance)
            if tolerance is None:
                continue
            if not isinstance(element, _VARIABLE_TYPES):
                raise NetlistError(
                    f"element {element.name!r} of type "
                    f"{type(element).__name__} cannot carry a tolerance axis"
                )
            axes.append(_Axis(element.name, _element_value(element),
                              tolerance))
        if overrides:
            missing = ", ".join(sorted(overrides))
            raise NetlistError(f"tolerance on unknown element(s): {missing}")
        if not axes:
            raise NetlistError(
                "parameter space is empty: no element carries a tolerance "
                "(attach one with element.with_tolerance(...))"
            )
        self.axes: Tuple[_Axis, ...] = tuple(axes)

    # ------------------------------------------------------------------ #

    @property
    def names(self) -> List[str]:
        """Names of the varying elements, in circuit order."""
        return [axis.name for axis in self.axes]

    @property
    def nominal_values(self) -> np.ndarray:
        """Nominal element values, one per axis."""
        return np.array([axis.nominal for axis in self.axes])

    def __len__(self):
        return len(self.axes)

    def key(self) -> Tuple:
        """Hashable content key (for :class:`~repro.engine.session.AnalysisSession`)."""
        return tuple((axis.name, axis.nominal, axis.tolerance.fraction,
                      axis.tolerance.distribution) for axis in self.axes)

    # ------------------------------------------------------------------ #
    # samplers
    # ------------------------------------------------------------------ #

    def sample_multipliers(self, count, seed=0, method="random") -> np.ndarray:
        """``(count, len(space))`` relative multipliers, seeded + deterministic.

        ``method`` selects the point set:

        * ``"random"`` (default) — pseudo-random draws from one seeded
          :class:`numpy.random.Generator`, the historical behaviour bit for
          bit;
        * ``"sobol"`` — a digitally-shifted Sobol' sequence
          (:func:`~repro.montecarlo.qmc.sobol_uniforms`);
        * ``"lhs"`` — jittered Latin-hypercube strata
          (:func:`~repro.montecarlo.qmc.latin_hypercube_uniforms`).

        All methods honour the same seeded-determinism contract (same
        ``count``/``seed``/``method`` → same bits) and map uniforms through
        the per-axis distribution identically: gaussian axes produce
        ``1 + (fraction/3)·N(0,1)`` (the band is the 3-sigma point), uniform
        axes flat across ``1 ± fraction``, corner axes the two band edges.
        Multipliers are floored at ``fraction/100`` above zero so a many-sigma
        gaussian outlier can never flip an element value's sign.

        Raises
        ------
        ValidationError
            For an unknown ``method`` or a non-positive / non-integral
            ``count`` — validated up front, before any sampler runs.
        """
        count = _validate_count(count)
        if method not in _SAMPLING_METHODS:
            raise ValidationError(
                f"unknown sampling method {method!r}: "
                "expected 'random', 'sobol' or 'lhs'")
        if method == "random":
            rng = np.random.default_rng(seed)
            columns = []
            for axis in self.axes:
                fraction = axis.tolerance.fraction
                kind = axis.tolerance.distribution
                if kind == "gaussian":
                    column = (1.0
                              + (fraction / 3.0) * rng.standard_normal(count))
                elif kind == "uniform":
                    column = 1.0 + fraction * rng.uniform(-1.0, 1.0, count)
                else:  # corner
                    column = 1.0 + fraction * rng.choice([-1.0, 1.0], count)
                columns.append(np.maximum(column, fraction / 100.0))
            return np.column_stack(columns)
        if method == "sobol":
            uniforms = qmc.sobol_uniforms(count, len(self.axes), seed)
        else:
            uniforms = qmc.latin_hypercube_uniforms(count, len(self.axes),
                                                    seed)
        columns = []
        for position, axis in enumerate(self.axes):
            fraction = axis.tolerance.fraction
            kind = axis.tolerance.distribution
            u = uniforms[:, position]
            if kind == "gaussian":
                column = (1.0
                          + (fraction / 3.0) * qmc.inverse_normal_cdf(u))
            elif kind == "uniform":
                column = 1.0 + fraction * (2.0 * u - 1.0)
            else:  # corner
                column = 1.0 + fraction * np.where(u < 0.5, -1.0, 1.0)
            columns.append(np.maximum(column, fraction / 100.0))
        return np.column_stack(columns)

    def sample_values(self, count, seed=0, method="random") -> np.ndarray:
        """``(count, len(space))`` sampled element values (seeded, deterministic)."""
        return self.nominal_values[None, :] * self.sample_multipliers(
            count, seed, method)

    # ------------------------------------------------------------------ #
    # importance sampling
    # ------------------------------------------------------------------ #

    def _per_axis(self, value, label, default) -> np.ndarray:
        """Broadcast a scalar or ``{axis name: value}`` dict over the axes."""
        if isinstance(value, dict):
            lookup = {str(name).lower(): float(entry)
                      for name, entry in value.items()}
            unknown = set(lookup) - {axis.name.lower() for axis in self.axes}
            if unknown:
                raise ValidationError(
                    f"{label} names unknown axis(es): "
                    f"{', '.join(sorted(unknown))}")
            return np.array([lookup.get(axis.name.lower(), default)
                             for axis in self.axes])
        return np.full(len(self.axes), float(value))

    def importance_sample(self, count, seed=0, *, shift=0.0, scale=1.0,
                          mixture=0.0) -> Tuple[np.ndarray, np.ndarray]:
        """Draw from a shifted / defensive-mixture proposal with weights.

        Rare-failure yield estimation: plain Monte Carlo at failure
        probability ``p`` needs ``≫ 1/p`` samples to see a single failure.
        This draws the same ``(count, len(space))`` value matrix from a
        *proposal* distribution pushed toward the failure region and returns
        the per-sample likelihood ratios ``w = p(x)/q(x)`` that make the
        weighted estimators unbiased under the *nominal* tolerance model —
        feed both into the streaming ensemble drivers
        (``store_responses=False, weights=..., yield_specs=...``).

        Per-axis proposals (``shift`` / ``scale`` are scalars applied to
        every axis, or ``{element name: value}`` dicts):

        * **gaussian** axes sample the tolerance z-score from
          ``(1-mixture)·N(shift, scale²) + mixture·N(0, 1)`` — the defensive
          nominal component bounds the weights when the shift overshoots.
          Weights use log-domain likelihood ratios, so many-axis products
          cannot underflow pairwise.
        * **uniform** axes translate the band-unit draw by ``shift``;
          samples landing outside the nominal ``±1`` band get weight 0
          (they are impossible under the target).
        * **corner** axes keep the nominal two-point draw, weight 1.

        Weights are computed from the raw z-scores *before* the
        ``fraction/100`` sign-protection floor: the floor is a deterministic
        map applied identically under target and proposal, so
        ``E_q[w·f(floor(x))] = E_p[f(floor(x))]`` still holds.

        Returns
        -------
        (values, weights):
            ``values`` — ``(count, len(space))`` element values;
            ``weights`` — ``(count,)`` likelihood ratios (mean ≈ 1 for a
            healthy proposal).

        Raises
        ------
        ValidationError
            For a non-positive / non-integral ``count``, ``scale <= 0``,
            ``mixture`` outside ``[0, 1)``, or a shift / scale dict naming
            an unknown axis.
        """
        count = _validate_count(count)
        shifts = self._per_axis(shift, "shift", 0.0)
        scales = self._per_axis(scale, "scale", 1.0)
        if np.any(scales <= 0.0):
            raise ValidationError(
                f"proposal scale must be positive, got {scales.min()}")
        mixture = float(mixture)
        if not 0.0 <= mixture < 1.0:
            raise ValidationError(
                f"mixture must be in [0, 1), got {mixture}")
        rng = np.random.default_rng(seed)
        log_weights = np.zeros(count)
        columns = []
        for position, axis in enumerate(self.axes):
            fraction = axis.tolerance.fraction
            kind = axis.tolerance.distribution
            mu = shifts[position]
            sigma = scales[position]
            if kind == "gaussian":
                shifted = mu + sigma * rng.standard_normal(count)
                if mixture > 0.0:
                    nominal = rng.standard_normal(count)
                    from_nominal = rng.uniform(size=count) < mixture
                    z = np.where(from_nominal, nominal, shifted)
                else:
                    z = shifted
                # The 1/sqrt(2π) normalizer is common to every component
                # and cancels in log_p - log_q, so it is omitted throughout.
                log_p = -0.5 * z ** 2
                log_q = (-0.5 * ((z - mu) / sigma) ** 2 - np.log(sigma))
                if mixture > 0.0:
                    log_q = np.logaddexp(np.log1p(-mixture) + log_q,
                                         np.log(mixture) - 0.5 * z ** 2)
                log_weights += log_p - log_q
                column = 1.0 + (fraction / 3.0) * z
            elif kind == "uniform":
                shifted = mu + rng.uniform(-1.0, 1.0, count)
                if mixture > 0.0:
                    nominal = rng.uniform(-1.0, 1.0, count)
                    from_nominal = rng.uniform(size=count) < mixture
                    u = np.where(from_nominal, nominal, shifted)
                else:
                    u = shifted
                # Band-unit densities are 1/2 on each support; the sample
                # always lies in at least one component's support, so the
                # proposal density is strictly positive at every draw.
                inside_target = np.abs(u) <= 1.0
                inside_shifted = np.abs(u - mu) <= 1.0
                density_q = (0.5 * (1.0 - mixture) * inside_shifted
                             + 0.5 * mixture * inside_target)
                ratio = np.where(inside_target,
                                 0.5 / np.maximum(density_q, 1e-300), 0.0)
                with np.errstate(divide="ignore"):
                    log_weights += np.log(ratio)
                column = 1.0 + fraction * u
            else:  # corner — two-point support; shifts do not apply
                column = 1.0 + fraction * rng.choice([-1.0, 1.0], count)
            columns.append(np.maximum(column, fraction / 100.0))
        multipliers = np.column_stack(columns)
        weights = np.exp(log_weights)
        return self.nominal_values[None, :] * multipliers, weights

    def corner_multipliers(self) -> np.ndarray:
        """Deterministic tolerance-band corner multipliers.

        Up to 12 axes: the full ``2**E`` factorial (low corner first).
        Beyond that: the all-low / all-high extremes plus every one-at-a-time
        corner — ``2·E + 2`` rows.
        """
        fractions = np.array([axis.tolerance.fraction for axis in self.axes])
        count = len(self.axes)
        if count <= _FULL_FACTORIAL_LIMIT:
            signs = np.array(list(itertools.product((-1.0, 1.0),
                                                    repeat=count)))
        else:
            rows = [-np.ones(count), np.ones(count)]
            for position in range(count):
                for sign in (-1.0, 1.0):
                    row = np.zeros(count)
                    row[position] = sign
                    rows.append(row)
            signs = np.array(rows)
        return 1.0 + signs * fractions[None, :]

    def corner_values(self) -> np.ndarray:
        """Element values at the deterministic tolerance-band corners."""
        return self.nominal_values[None, :] * self.corner_multipliers()

    # ------------------------------------------------------------------ #
    # the rebuild reference
    # ------------------------------------------------------------------ #

    def apply(self, values, name=None):
        """One perturbed circuit with the space's elements set to ``values``.

        This is the rebuild-per-sample reference path: a single circuit copy
        plus one element replacement per axis, exactly what a caller without
        the vectorized engine would run per Monte Carlo sample.
        """
        values = np.asarray(values, dtype=float)
        if values.shape != (len(self.axes),):
            raise NetlistError(
                f"expected {len(self.axes)} values, got shape {values.shape}"
            )
        perturbed = self.circuit.copy(name or f"{self.circuit.name}-sample")
        for axis, value in zip(self.axes, values):
            element = perturbed[axis.name]
            if isinstance(element, VCCS):
                replacement = dataclasses.replace(element, gm=float(value))
            else:
                replacement = dataclasses.replace(element, value=float(value))
            perturbed.replace(replacement)
        return perturbed

    def __repr__(self):
        return (f"ParameterSpace({self.circuit.name!r}, axes={len(self.axes)}, "
                f"elements={self.names[:4]}{'...' if len(self.axes) > 4 else ''})")
