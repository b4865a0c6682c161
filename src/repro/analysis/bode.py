"""Bode-plot utilities: magnitude / phase extraction and stability margins."""

from __future__ import annotations

import dataclasses
import math
from typing import Optional, Tuple

import numpy as np

__all__ = [
    "BodeData",
    "bode_from_response",
    "bode_sweep",
    "unity_gain_crossover",
    "phase_margin_deg",
    "gain_margin_db",
]


@dataclasses.dataclass
class BodeData:
    """Magnitude / phase data over a frequency grid."""

    frequencies: np.ndarray
    magnitude_db: np.ndarray
    phase_deg: np.ndarray

    def __post_init__(self):
        self.frequencies = np.asarray(self.frequencies, dtype=float)
        self.magnitude_db = np.asarray(self.magnitude_db, dtype=float)
        self.phase_deg = np.asarray(self.phase_deg, dtype=float)

    def at(self, frequency) -> Tuple[float, float]:
        """Log-interpolated ``(magnitude_db, phase_deg)`` at ``frequency``."""
        log_f = math.log10(frequency)
        log_grid = np.log10(self.frequencies)
        magnitude = float(np.interp(log_f, log_grid, self.magnitude_db))
        phase = float(np.interp(log_f, log_grid, self.phase_deg))
        return magnitude, phase


def bode_from_response(frequencies, response) -> BodeData:
    """Build :class:`BodeData` from a complex frequency response."""
    response = np.asarray(response, dtype=complex)
    magnitude = np.abs(response)
    magnitude[magnitude == 0.0] = np.finfo(float).tiny
    phase = np.degrees(np.unwrap(np.angle(response)))
    return BodeData(
        frequencies=np.asarray(frequencies, dtype=float),
        magnitude_db=20.0 * np.log10(magnitude),
        phase_deg=phase,
    )


def bode_sweep(circuit, output, frequencies, method="auto") -> BodeData:
    """Batched AC sweep of ``circuit`` straight to :class:`BodeData`.

    Convenience wrapper: the MNA system is assembled once and the whole grid
    is solved through the batched sweep engine
    (:func:`~repro.analysis.ac.ac_sweep`) before the magnitude / phase
    extraction.
    """
    from .ac import ac_sweep

    return bode_from_response(
        frequencies, ac_sweep(circuit, output, frequencies, method=method)
    )


def unity_gain_crossover(data: BodeData) -> Optional[float]:
    """Frequency where the magnitude crosses 0 dB (None if it never does)."""
    magnitude = data.magnitude_db
    for index in range(len(magnitude) - 1):
        if magnitude[index] >= 0.0 and magnitude[index + 1] < 0.0:
            x0 = math.log10(data.frequencies[index])
            x1 = math.log10(data.frequencies[index + 1])
            y0, y1 = magnitude[index], magnitude[index + 1]
            if y0 == y1:
                return data.frequencies[index]
            t = (0.0 - y0) / (y1 - y0)
            return 10.0 ** (x0 + t * (x1 - x0))
    return None


def phase_margin_deg(data: BodeData) -> Optional[float]:
    """Phase margin: ``180° + phase`` at the unity-gain crossover."""
    crossover = unity_gain_crossover(data)
    if crossover is None:
        return None
    __, phase = data.at(crossover)
    return 180.0 + phase


def gain_margin_db(data: BodeData) -> Optional[float]:
    """Gain margin: ``-magnitude`` where the phase crosses −180°."""
    phase = data.phase_deg
    for index in range(len(phase) - 1):
        if (phase[index] + 180.0) * (phase[index + 1] + 180.0) <= 0.0:
            if phase[index] == phase[index + 1]:
                magnitude, __ = data.at(data.frequencies[index])
                return -magnitude
            t = (-180.0 - phase[index]) / (phase[index + 1] - phase[index])
            log_f = (math.log10(data.frequencies[index])
                     + t * (math.log10(data.frequencies[index + 1])
                            - math.log10(data.frequencies[index])))
            magnitude, __ = data.at(10.0**log_f)
            return -magnitude
    return None
