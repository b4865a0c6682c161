"""Quick development smoke test of the core pipeline (not part of the suite)."""
import math
import time

from repro import (
    build_positive_feedback_ota,
    build_rc_ladder,
    build_ua741,
    generate_reference,
    interpolate_network_function,
)
from repro.circuits.rc_ladder import rc_ladder_denominator_coefficients
from repro.interpolation import ScaleFactors
from repro.nodal.sampler import NetworkFunctionSampler
from repro.netlist.transform import to_admittance_form


def check_rc_ladder():
    stages = 8
    resistances = [1e3 * (1 + 0.3 * i) for i in range(stages)]
    capacitances = [1e-9 / (1 + 0.5 * i) for i in range(stages)]
    circuit, spec = build_rc_ladder(stages, resistances, capacitances)
    expected = rc_ladder_denominator_coefficients(resistances, capacitances)
    reference = generate_reference(circuit, spec)
    print("RC ladder converged:", reference.converged)
    coeffs = reference.coefficients("denominator")
    d0 = float(coeffs[0])
    for i, e in enumerate(expected):
        got = float(coeffs[i]) / d0 if i < len(coeffs) else 0.0
        rel = abs(got - e) / abs(e)
        print(f"  d{i}: expected {e:.6e} got {got:.6e} rel {rel:.2e}")
    # AC check
    h = reference.transfer_function()
    f = 1e5
    val = h.evaluate(2j * math.pi * f)
    sampler = NetworkFunctionSampler(to_admittance_form(circuit), spec)
    direct = sampler.transfer_value(2j * math.pi * f)
    print("  H(j2pi 1e5): interp", val, "direct", direct)


def check_ota():
    circuit, spec = build_positive_feedback_ota()
    interp = interpolate_network_function(circuit, spec)
    den = interp.denominator
    print("OTA degree bound:", den.num_points - 1, "region:", den.region)
    print("  normalized coefficients (unscaled):")
    for i, v in enumerate(den.normalized_complex()):
        print(f"   s^{i}: {v:.4e}")
    scaled = interpolate_network_function(circuit, spec,
                                          factors=ScaleFactors(frequency=1e9))
    print("  scaled f=1e9 region:", scaled.denominator.region)
    reference = generate_reference(circuit, spec)
    print("  adaptive:", reference.summary())


def check_ua741():
    circuit, spec = build_ua741()
    print("uA741 elements:", len(circuit), "nodes:", len(circuit.nodes))
    start = time.perf_counter()
    reference = generate_reference(circuit, spec)
    elapsed = time.perf_counter() - start
    print("  adaptive done in", round(elapsed, 2), "s")
    print(reference.summary())
    den = reference.denominator
    for it in den.iterations:
        print(f"   iter {it.index} dir={it.direction} K={it.num_points} "
              f"region=[{it.region_start},{it.region_end}] new={len(it.new_indices)} "
              f"t={it.elapsed_seconds:.2f}s factors=({it.factors})")
    coeffs = reference.coefficients("denominator")
    for i in (0, 1, 5, 10, 20, 30, 40):
        if i < len(coeffs):
            print(f"   d{i} =", coeffs[i].format())
    # Bode check against direct AC
    sampler = NetworkFunctionSampler(to_admittance_form(circuit), spec)
    h = reference.transfer_function()
    for f in (1.0, 1e3, 1e6):
        interp = h.evaluate(2j * math.pi * f)
        direct = sampler.transfer_value(2j * math.pi * f)
        print(f"   f={f:g}: interp {abs(interp):.4e} direct {abs(direct):.4e}")


if __name__ == "__main__":
    check_rc_ladder()
    check_ota()
    check_ua741()
