"""Golden-snapshot regression suite over the library circuits.

Committed JSON snapshots under ``tests/golden/`` pin, per circuit:

* the complex AC response over a fixed log grid (floats stored via
  ``float.hex()``, so the files round-trip exactly),
* SDG statistics (term totals, kept terms at ε = 0.1 and a content hash of
  the kept multiset) and SBG outcomes (removed element names) for the
  circuits whose exact symbolic expansion is test-budget feasible.

The suite turns the bit-parity claims of CHANGES.md into enforced checks
instead of anecdotes:

* against the snapshots, responses must match to a symmetric 1e-9 relative
  bound always, and **bit-for-bit** when ``REPRO_GOLDEN_EXACT=1`` (exactness
  across machines additionally depends on the BLAS/libm build, hence the
  opt-in; on the machine that wrote the snapshots it must hold),
* independently of any snapshot, the batched and per-point sampler paths
  are asserted bit-identical on every library circuit at test time.

Regenerate after an intentional numerical change with::

    PYTHONPATH=src python -m pytest tests/test_golden.py --update-golden
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib

import numpy as np
import pytest

from repro.analysis.ac import ACAnalysis
from repro.circuits import (
    build_cascode_amplifier,
    build_clock_tree,
    build_coupled_bus,
    build_miller_ota,
    build_positive_feedback_ota,
    build_rc_ladder,
    build_rc_mesh,
    build_sallen_key_lowpass,
    build_tow_thomas_biquad,
    build_ua741,
    build_ua741_macro,
)
from repro.interpolation.reference import generate_reference
from repro.linalg.config import dense_cutoff
from repro.netlist.transform import to_admittance_form
from repro.nodal.sampler import NetworkFunctionSampler
from repro.symbolic.sbg import simplification_before_generation
from repro.symbolic.sdg import simplification_during_generation
from scalar_oracle import oracle_sample

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"

#: The library circuits (the RC ladder represents its family), plus one
#: mid-size generator circuit per post-layout family — all three sit above
#: the default dense cutoff, so their snapshots pin the ordered sparse
#: dispatch path end to end.
LIBRARY_CIRCUITS = [
    ("rc_ladder_5", lambda: build_rc_ladder(5)),
    ("positive_feedback_ota", build_positive_feedback_ota),
    ("ua741", build_ua741),
    ("ua741_macro", build_ua741_macro),
    ("miller_ota", build_miller_ota),
    ("cascode", build_cascode_amplifier),
    ("sallen_key", build_sallen_key_lowpass),
    ("tow_thomas", build_tow_thomas_biquad),
    ("gen_rc_mesh_14", lambda: build_rc_mesh(14)),           # n = 198
    ("gen_clock_tree_7", lambda: build_clock_tree(7)),       # n = 257
    ("gen_coupled_bus_10x20", lambda: build_coupled_bus(10, 20)),  # n = 202
]

#: Circuits small enough for exact symbolic expansion + reference generation
#: inside the test budget (the µA741 pair is symbolically infeasible /
#: seconds-long and covered by benchmarks/bench_sdg.py).
SYMBOLIC_CIRCUITS = {"rc_ladder_5", "miller_ota", "cascode", "sallen_key",
                     "tow_thomas"}

BODE_FREQUENCIES = np.logspace(0.0, 8.0, 25)
SDG_EPSILON = 0.1
SBG_EPSILON = 0.05

_EXACT = os.environ.get("REPRO_GOLDEN_EXACT", "") not in ("", "0")


def _hex_pairs(values):
    return [[float(value.real).hex(), float(value.imag).hex()]
            for value in np.asarray(values, dtype=complex)]


def _from_hex_pairs(pairs):
    return np.array([complex(float.fromhex(real), float.fromhex(imag))
                     for real, imag in pairs])


def _term_multiset_hash(expression):
    """Stable content hash of a symbolic expression's term multiset."""
    digest = hashlib.sha256()
    for symbols, s_power in sorted((term.symbols, term.s_power)
                                   for term in expression.terms):
        digest.update(repr((symbols, s_power)).encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()


def _build_snapshot(name, builder):
    circuit, spec = builder()
    response = ACAnalysis(circuit, spec).frequency_response(BODE_FREQUENCIES)
    snapshot = {
        "bode": {
            "frequencies": [float(f).hex() for f in BODE_FREQUENCIES],
            "response": _hex_pairs(response),
        },
    }
    if name in SYMBOLIC_CIRCUITS:
        reference = generate_reference(circuit, spec)
        sdg = simplification_during_generation(circuit, spec, reference,
                                               epsilon=SDG_EPSILON)
        kept, total = sdg.total_terms()
        snapshot["sdg"] = {
            "epsilon": SDG_EPSILON,
            "kept_terms": kept,
            "total_terms": total,
            "numerator_hash": _term_multiset_hash(sdg.simplified.numerator),
            "denominator_hash": _term_multiset_hash(
                sdg.simplified.denominator),
        }
        sbg = simplification_before_generation(circuit, spec, reference,
                                               epsilon=SBG_EPSILON)
        snapshot["sbg"] = {
            "epsilon": SBG_EPSILON,
            "removed": list(sbg.removed_names),
            "rejected": list(sbg.rejected),
            "final_error": float(sbg.final_error).hex(),
        }
    return snapshot


def _assert_responses(stored, computed):
    reference = _from_hex_pairs(stored)
    if _EXACT:
        assert np.array_equal(reference, computed), (
            "bit-exact golden comparison failed (REPRO_GOLDEN_EXACT=1)")
    scale = np.maximum(np.maximum(np.abs(reference), np.abs(computed)),
                       np.finfo(float).tiny)
    deviation = float(np.max(np.abs(computed - reference) / scale))
    assert deviation <= 1e-9, f"response drifted by {deviation:.3e}"


@pytest.mark.parametrize("name,builder", LIBRARY_CIRCUITS)
def test_golden_snapshot(name, builder, request):
    path = GOLDEN_DIR / f"{name}.json"
    if request.config.getoption("--update-golden"):
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_text(json.dumps(_build_snapshot(name, builder), indent=1)
                        + "\n")
        pytest.skip(f"updated {path.name}")
    assert path.exists(), (
        f"missing golden snapshot {path.name}; run pytest with "
        "--update-golden to create it")
    stored = json.loads(path.read_text())

    circuit, spec = builder()
    grid = np.array([float.fromhex(f)
                     for f in stored["bode"]["frequencies"]])
    response = ACAnalysis(circuit, spec).frequency_response(grid)
    _assert_responses(stored["bode"]["response"], response)

    if name in SYMBOLIC_CIRCUITS:
        reference = generate_reference(circuit, spec)
        sdg = simplification_during_generation(
            circuit, spec, reference, epsilon=stored["sdg"]["epsilon"])
        kept, total = sdg.total_terms()
        assert kept == stored["sdg"]["kept_terms"], name
        assert total == stored["sdg"]["total_terms"], name
        assert (_term_multiset_hash(sdg.simplified.numerator)
                == stored["sdg"]["numerator_hash"]), name
        assert (_term_multiset_hash(sdg.simplified.denominator)
                == stored["sdg"]["denominator_hash"]), name

        sbg = simplification_before_generation(
            circuit, spec, reference, epsilon=stored["sbg"]["epsilon"])
        assert list(sbg.removed_names) == stored["sbg"]["removed"], name
        assert list(sbg.rejected) == stored["sbg"]["rejected"], name
        stored_error = float.fromhex(stored["sbg"]["final_error"])
        assert sbg.final_error == pytest.approx(stored_error, rel=1e-9,
                                                abs=1e-30), name


@pytest.mark.parametrize("name,builder", LIBRARY_CIRCUITS)
def test_batched_sampler_bit_parity(name, builder):
    """CHANGES.md parity claim, enforced: the batched sweep and the scalar
    per-point oracle agree bit-for-bit on every dense-dispatch library
    circuit (no stored floats involved).  Above the dense cutoff the batched
    sweep reuses the first point's pivot pattern while the oracle's
    ``sparse_lu`` re-pivots freshly at every frequency — deliberately
    different pivot sequences — so the generator circuits assert a tight
    relative bound instead."""
    circuit, spec = builder()
    admittance = to_admittance_form(circuit)
    sampler = NetworkFunctionSampler(admittance, spec)
    points = (2j * np.pi * np.logspace(1.0, 7.0, 7)).tolist()
    batched = sampler.sample_many(points)
    pointwise = [oracle_sample(sampler.formulation, point)
                 for point in points]
    exact = sampler.dimension <= dense_cutoff()
    for index, (fast, slow) in enumerate(zip(batched, pointwise)):
        if exact:
            assert fast.numerator == slow.numerator, (name, index)
            assert fast.denominator == slow.denominator, (name, index)
        else:
            assert fast.transfer() == pytest.approx(
                slow.transfer(), rel=1e-9), (name, index)
