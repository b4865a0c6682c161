"""Circuit library used by the tests, examples and paper-reproduction benches.

Every builder returns ``(circuit, spec)`` — a small-signal
:class:`~repro.netlist.circuit.Circuit` plus the
:class:`~repro.nodal.reduce.TransferSpec` of the network function studied in
the corresponding experiment:

* :func:`~repro.circuits.rc_ladder.build_rc_ladder` — RC ladders with
  analytically known coefficients (test oracle),
* :func:`~repro.circuits.ota.build_positive_feedback_ota` — the Fig. 1
  positive-feedback OTA (Table 1 experiments),
* :func:`~repro.circuits.ua741.build_ua741` — the µA741 operational amplifier
  small-signal macro (Tables 2–3 and Fig. 2),
* :func:`~repro.circuits.ua741.build_ua741_macro` — the behavioral µA741
  macromodel at symbolic-analysis scale (the compiled-model benchmark),
* :func:`~repro.circuits.miller_ota.build_miller_ota` — a two-stage Miller
  OTA (SDG / SBG examples),
* :func:`~repro.circuits.cascode.build_cascode_amplifier` — a telescopic
  cascode stage,
* :func:`~repro.circuits.filters.build_sallen_key_lowpass` /
  :func:`~repro.circuits.filters.build_tow_thomas_biquad` — active RC filters
  exercising VCCS-based macromodels,
* :func:`~repro.circuits.generators.build_rc_mesh` /
  :func:`~repro.circuits.generators.build_clock_tree` /
  :func:`~repro.circuits.generators.build_coupled_bus` — seeded post-layout
  scale RC generators (10²–10⁴ unknowns) for the sparse-engine scaling and
  parity harness, with :func:`~repro.circuits.generators.build_generator`
  picking family shapes by target unknown count.
"""

from .rc_ladder import build_rc_ladder, rc_ladder_denominator_coefficients
from .ota import build_positive_feedback_ota
from .ua741 import build_ua741, build_ua741_macro
from .miller_ota import build_miller_ota
from .cascode import build_cascode_amplifier
from .filters import build_sallen_key_lowpass, build_tow_thomas_biquad
from .generators import (GENERATOR_FAMILIES, build_clock_tree,
                         build_coupled_bus, build_generator, build_rc_mesh)

__all__ = [
    "build_rc_ladder",
    "rc_ladder_denominator_coefficients",
    "build_positive_feedback_ota",
    "build_ua741",
    "build_ua741_macro",
    "build_miller_ota",
    "build_cascode_amplifier",
    "build_sallen_key_lowpass",
    "build_tow_thomas_biquad",
    "build_rc_mesh",
    "build_clock_tree",
    "build_coupled_bus",
    "build_generator",
    "GENERATOR_FAMILIES",
]
