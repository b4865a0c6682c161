"""Plain-text table rendering in the paper's layouts."""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..xfloat import XFloat

__all__ = [
    "format_table1",
    "format_adaptive_iterations",
    "format_coefficient_table",
    "format_bode_comparison",
    "format_sweep_report",
]


def _complex_cell(value) -> str:
    value = complex(value)
    return f"{value.real:+.4e} {value.imag:+.1e}j"


def format_table1(result) -> str:
    """Render the Table 1 reproduction (unscaled vs scaled OTA coefficients)."""
    lines = [
        "Table 1 — OTA differential gain coefficients",
        f"  (a) interpolation points on the unit circle, no scaling; "
        f"(b) frequency scale factor {result.frequency_scale:g}",
        f"{'s^i':>5} | {'(a) numerator':>26} | {'(a) denominator':>26} | "
        f"{'(b) numerator':>26} | {'(b) denominator':>26}",
    ]
    unscaled_n = result.unscaled_numerator.normalized_complex()
    unscaled_d = result.unscaled_denominator.normalized_complex()
    scaled_n = result.scaled_numerator.normalized_complex()
    scaled_d = result.scaled_denominator.normalized_complex()
    for power in range(result.degree_bound + 1):
        marker_a = "*" if (result.unscaled_denominator.region is not None
                           and result.unscaled_denominator.region.contains(power)) else " "
        marker_b = "*" if (result.scaled_denominator.region is not None
                           and result.scaled_denominator.region.contains(power)) else " "
        lines.append(
            f"{power:>5} | {_complex_cell(unscaled_n[power]):>26} | "
            f"{_complex_cell(unscaled_d[power]):>25}{marker_a} | "
            f"{_complex_cell(scaled_n[power]):>26} | "
            f"{_complex_cell(scaled_d[power]):>25}{marker_b}"
        )
    lines.append("  (* = inside the valid region of the denominator)")
    return "\n".join(lines)


def format_adaptive_iterations(adaptive_result) -> str:
    """Render the Tables 2–3 style iteration sequence of an adaptive run."""
    lines = [
        f"adaptive scaling for the {adaptive_result.kind} "
        f"(degree bound {adaptive_result.degree_bound})",
        f"{'iter':>4} | {'direction':>9} | {'K':>4} | {'valid region':>14} | "
        f"{'new':>4} | {'f':>11} | {'g':>11} | {'time [s]':>8}",
    ]
    for record in adaptive_result.iterations:
        region = ("—" if record.region_start is None
                  else f"[{record.region_start}..{record.region_end}]")
        lines.append(
            f"{record.index:>4} | {record.direction:>9} | {record.num_points:>4} | "
            f"{region:>14} | {len(record.new_indices):>4} | "
            f"{record.factors.frequency:>11.4g} | "
            f"{record.factors.conductance:>11.4g} | "
            f"{record.elapsed_seconds:>8.3f}"
        )
    return "\n".join(lines)


def format_coefficient_table(coefficients: Sequence[XFloat], kind="denominator",
                             status: Optional[Sequence[str]] = None,
                             max_rows: Optional[int] = None) -> str:
    """Render denormalized coefficients (one row per power of ``s``)."""
    lines = [f"{kind} coefficients", f"{'s^i':>5} | {'coefficient':>16} | status"]
    count = len(coefficients) if max_rows is None else min(len(coefficients), max_rows)
    for power in range(count):
        value = coefficients[power]
        label = "" if status is None else status[power]
        cell = "0" if value.is_zero() else value.format()
        lines.append(f"{power:>5} | {cell:>16} | {label}")
    if max_rows is not None and len(coefficients) > max_rows:
        lines.append(f"  … ({len(coefficients) - max_rows} more rows)")
    return "\n".join(lines)


def format_bode_comparison(fig2_result, rows=12) -> str:
    """Render the Fig. 2 overlay as a table of magnitudes / phases."""
    frequencies = fig2_result.frequencies
    interp_mag, sim_mag = fig2_result.magnitude_db()
    interp_phase = np.degrees(np.unwrap(np.angle(fig2_result.interpolated_response)))
    sim_phase = np.degrees(np.unwrap(np.angle(fig2_result.simulated_response)))
    indices = np.linspace(0, len(frequencies) - 1, rows).astype(int)
    lines = [
        "Fig. 2 — µA741 voltage gain: interpolated coefficients vs electrical simulator",
        f"{'f [Hz]':>12} | {'interp [dB]':>12} | {'simul [dB]':>12} | "
        f"{'interp [deg]':>13} | {'simul [deg]':>13}",
    ]
    for index in indices:
        lines.append(
            f"{frequencies[index]:>12.4g} | {interp_mag[index]:>12.3f} | "
            f"{sim_mag[index]:>12.3f} | {interp_phase[index]:>13.2f} | "
            f"{sim_phase[index]:>13.2f}"
        )
    lines.append("  " + fig2_result.comparison.summary())
    return "\n".join(lines)


def format_sweep_report(report, max_rows=20) -> str:
    """Render a resilience :class:`~repro.engine.resilience.SweepReport`.

    One header line (the report's own :meth:`summary`), the accepted-stage
    histogram, then one row per recovery / quarantined failure naming the
    index, the accepted or last stage, and the reason.
    """
    lines = [report.summary()]
    stages = " ".join(f"{stage}={count}"
                      for stage, count in report.stage_counts.items())
    lines.append(f"  accepted per stage: {stages}")
    rows = []
    for record in report.recoveries:
        condition = ("—" if record.condition is None
                     else f"{record.condition:.2e}")
        rows.append(f"{record.index:>6} | {'recovered':>11} | "
                    f"{record.stage:>11} | residual {record.residual:.2e}, "
                    f"condition {condition}")
    for record in report.failures:
        rows.append(f"{record.index:>6} | {'quarantined':>11} | "
                    f"{'—':>11} | {record.reason}")
    for index, condition in report.degraded:
        rows.append(f"{index:>6} | {'degraded':>11} | {'—':>11} | "
                    f"condition estimate {condition:.2e} over limit")
    if rows:
        lines.append(f"{report.kind:>6} | {'outcome':>11} | "
                     f"{'stage':>11} | detail")
        lines.extend(rows[:max_rows])
        if len(rows) > max_rows:
            lines.append(f"  … ({len(rows) - max_rows} more rows)")
    return "\n".join(lines)
