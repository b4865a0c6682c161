"""The compiled sparse refactorization kernel against the scalar oracle.

:class:`~repro.linalg.lu.RefactorSchedule` replays a pivot order found by
:func:`~repro.linalg.lu.sparse_lu` on whole batches of matrices.  Pinned here:

* **tolerance-bounded** against the oracle — pivots, ``(mantissa, exponent)``
  and solutions agree with ``sparse_lu`` under the same ``column_order``
  within 1e-12, norm-relative, on the tree / bus / mesh generators and the
  property harness's sparse topologies;
* **bitwise** across batch splits — chunk sizes 1, 7, 37 and the whole sweep
  give identical results;
* **degraded members** — a zero or 1e-8-weak reused pivot is flagged; the
  sweep engine factors that point freshly (counted, identical to the oracle)
  and continues with the fresh pattern; a resilient sweep counts that pivot
  search on the fast stage;
* a matrix with an entry outside the compiled structure is **rejected**;
* **one schedule per pivot order** — ensemble samples whose pivot searches
  choose the same order share one compiled schedule.
"""

from __future__ import annotations

import numpy as np
import pytest

from strategies import random_sparse_topology

import repro.engine.sweep as sweep_module
from repro.circuits.generators import build_generator
from repro.circuits.rc_ladder import build_rc_ladder
from repro.engine.formulation import FormulationBase
from repro.engine.resilience import SweepReport
from repro.engine.sweep import SweepEngine
from repro.errors import LinAlgError
from repro.linalg.lu import (REFACTOR_STABILITY, LUFactorization,
                             RefactorSchedule, sparse_lu)
from repro.linalg.ordering import fill_reducing_order
from repro.linalg.sparse import SparseMatrix
from repro.montecarlo import ParameterSpace, ensemble_sweep
from repro.netlist.transform import to_admittance_form
from repro.nodal.admittance import build_nodal_formulation

CIRCUITS = [
    ("tree", lambda: build_generator("tree", 100, seed=3)),
    ("bus", lambda: build_generator("bus", 100, seed=4)),
    ("mesh", lambda: build_generator("mesh", 100, seed=5)),
] + [
    (f"topology-{seed}",
     lambda seed=seed: random_sparse_topology(seed, min_dimension=60,
                                              max_dimension=120))
    for seed in range(3)
]

#: Interpolation-style points: the unit circle the reference generator
#: samples, where the scaled nodal matrices are evaluated.
POINTS = np.exp(2j * np.pi * (np.arange(48) + 0.5) / 48)


def _sweep(build):
    """The scaled nodal formulation of a circuit plus its sweep values."""
    circuit, spec = build()
    formulation = build_nodal_formulation(to_admittance_form(circuit), spec)
    keys, constant, dynamic = formulation.merged_sparse_structure()
    values = constant[None, :] + POINTS[:, None] * dynamic[None, :]
    rhs = formulation.rhs_batch(POINTS)
    return formulation, keys, values, rhs


def _matrix(n, keys, row):
    return SparseMatrix.from_entries(n, n, zip(keys, row.tolist()))


def _relative(got, expected):
    return np.linalg.norm(got - expected) / np.linalg.norm(expected)


def _schedule(pattern, keys):
    """``pattern``'s pivot order compiled over ``keys``."""
    return RefactorSchedule(pattern.n, pattern.pivot_rows, pattern.pivot_cols,
                            keys)


def _compiled(formulation, keys, values):
    n = formulation.dimension
    order = fill_reducing_order(n, keys)
    pattern = sparse_lu(_matrix(n, keys, values[0]), column_order=order)
    schedule = _schedule(pattern, keys)
    return order, pattern, schedule, schedule.slots_of(keys)


@pytest.mark.parametrize("name,build", CIRCUITS)
def test_kernel_matches_scalar_oracle(name, build):
    formulation, keys, values, rhs = _sweep(build)
    n = formulation.dimension
    order, pattern, schedule, slots = _compiled(formulation, keys, values)
    factors = schedule.factor(values, slots)
    assert not factors.degraded.any()
    mantissas, exponents = factors.determinants_mantissa_exponent()
    solutions = factors.solve(rhs)
    for k in range(len(POINTS)):
        oracle = sparse_lu(_matrix(n, keys, values[k]), column_order=order)
        assert oracle.pivot_rows == pattern.pivot_rows, (name, k)
        assert _relative(factors.pivots[k], np.array(oracle.pivots)) <= 1e-12
        mantissa, exponent = oracle.determinant_mantissa_exponent()
        value = mantissas[k] * 10.0 ** float(exponents[k] - exponent)
        assert abs(value - mantissa) <= 1e-12 * abs(mantissa), (name, k)
        assert _relative(solutions[k], oracle.solve(rhs[k])) <= 1e-12


@pytest.mark.parametrize("name,build", CIRCUITS[:3])
def test_batch_splits_are_bitwise(name, build):
    formulation, keys, values, rhs = _sweep(build)
    __, ___, schedule, slots = _compiled(formulation, keys, values)
    whole = schedule.factor(values, slots)
    mantissas, exponents = whole.determinants_mantissa_exponent()
    solutions = whole.solve(rhs)
    for size in (1, 7, 37):
        parts = [schedule.factor(values[start:start + size], slots)
                 for start in range(0, len(POINTS), size)]
        assert np.array_equal(np.concatenate([part.lu for part in parts]),
                              whole.lu)
        determinants = [part.determinants_mantissa_exponent()
                        for part in parts]
        assert np.array_equal(
            np.concatenate([mantissa for mantissa, __ in determinants]),
            mantissas)
        assert np.array_equal(
            np.concatenate([exponent for __, exponent in determinants]),
            exponents)
        start = 0
        for part in parts:
            stop = start + part.batch
            assert np.array_equal(part.solve(rhs[start:stop]),
                                  solutions[start:stop])
            start = stop


@pytest.mark.parametrize("name,build", CIRCUITS[:3])
def test_engine_chunk_sizes_are_bitwise(monkeypatch, name, build):
    formulation, keys, values, __ = _sweep(build)
    schedule = _compiled(formulation, keys, values)[2]
    results = []
    for size in (1, 7, 37, len(POINTS)):
        monkeypatch.setattr(sweep_module, "_SPARSE_CHUNK_BYTES",
                            size * schedule.member_bytes)
        engine = SweepEngine(formulation, method="sparse")
        chunks = list(engine.sparse_factors(POINTS))
        assert max(chunk.batch for __, chunk in chunks) == min(
            size, len(POINTS) - 1)
        assert (engine.factorization_count, engine.refactorization_count) == (
            1, len(POINTS) - 1)
        rhs = np.arange(1, formulation.dimension + 1, dtype=complex)
        results.append(engine.solve_sweep(POINTS, rhs))
    for result in results[1:]:
        assert np.array_equal(result, results[0])


# --------------------------------------------------------------------------- #
# degraded reused pivots
# --------------------------------------------------------------------------- #


class _Pencil(FormulationBase):
    """``A(s) = G + s·C`` from explicit dense parts."""

    def __init__(self, constant, dynamic):
        self.dimension = constant.shape[0]
        self._parts = (SparseMatrix.from_dense(constant),
                       SparseMatrix.from_dense(dynamic))

    def sparse_parts(self):
        return self._parts


#: ``A[0, 0] = 1 − s``: the natural-order first pivot vanishes at ``s = 1``
#: and keeps 1e-10 of its column at ``s = 1 + 1e-10``.
_PENCIL = _Pencil(
    np.array([[1.0, 0.5, 0.0, 0.0],
              [0.5, 2.0, 0.3, 0.0],
              [0.0, 0.3, 3.0, 0.2],
              [0.0, 0.0, 0.2, 4.0]]),
    np.diag([-1.0, 0.1, 0.2, 0.3]))
_RHS = np.array([1.0, 2.0, 3.0, 4.0], dtype=complex)


@pytest.mark.parametrize("degraded_point", [1.0, 1.0 + 1e-10],
                         ids=["zero", "weak"])
@pytest.mark.parametrize("chunk", [1, 3, 8])
def test_degraded_member_refactors_freshly(monkeypatch, degraded_point,
                                           chunk):
    s = np.array([3.0, 2.0, degraded_point, 4.0, 5.0, 6.0, 7.0],
                 dtype=complex)
    keys, constant, dynamic = _PENCIL.merged_sparse_structure()
    n = _PENCIL.dimension
    order = [0, 1, 2, 3]
    pattern = sparse_lu(_matrix(n, keys, constant + s[0] * dynamic),
                        column_order=order)
    monkeypatch.setattr(sweep_module, "_SPARSE_CHUNK_BYTES",
                        chunk * _schedule(pattern, keys).member_bytes)

    # The pencil is built for the natural order.
    monkeypatch.setattr(sweep_module, "fill_reducing_order",
                        lambda n, keys: list(range(n)))
    engine = SweepEngine(_PENCIL, method="sparse")
    sweep = engine.factor_sweep(s)
    # Points 0 and 2 are pivot searches, the other five refactorizations.
    assert engine.factorization_count == 2
    assert engine.refactorization_count == len(s) - 2
    fresh = dict(sweep.factors)[2].factorization
    assert isinstance(fresh, LUFactorization)
    oracle = sparse_lu(_matrix(n, keys, constant + s[2] * dynamic),
                       column_order=order)
    assert fresh.pivot_rows == oracle.pivot_rows != pattern.pivot_rows
    assert fresh.pivots == oracle.pivots
    assert np.array_equal(fresh.solve(_RHS), oracle.solve(_RHS))

    solutions = sweep.solve(_RHS)
    for k, point in enumerate(s):
        expected = np.linalg.solve(
            _dense(keys, constant + point * dynamic, n), _RHS)
        assert _relative(solutions[k], expected) <= 1e-12


def test_resilient_sweep_serves_degraded_pivot_on_fast_stage(monkeypatch):
    # The ordered pivot search the engine runs at the degraded point 2 is
    # part of the fast stage: no recovery is recorded, and every solution
    # keeps the raise-mode loop's bits.
    s = np.array([3.0, 2.0, 1.0, 4.0, 5.0, 6.0, 7.0], dtype=complex)
    keys, constant, dynamic = _PENCIL.merged_sparse_structure()
    monkeypatch.setattr(sweep_module, "fill_reducing_order",
                        lambda n, keys: list(range(n)))
    expected = SweepEngine(_PENCIL, method="sparse").solve_sweep(s, _RHS)
    report = SweepReport(total=len(s))
    solutions = np.empty_like(expected)
    for start, x in SweepEngine(_PENCIL, method="sparse")._sparse_solutions(
            keys, constant, dynamic, s, _RHS, report,
            lambda k: (k, f"sweep point {k}")):
        solutions[start:start + len(x)] = x
    assert report.stage_counts["fast"] == len(s)
    assert report.recoveries == [] and report.failures == []
    assert np.array_equal(solutions, expected)


def _dense(keys, values, n):
    dense = np.zeros((n, n), dtype=complex)
    for (row, col), value in zip(keys, values):
        dense[row, col] = value
    return dense


@pytest.mark.parametrize("degraded_point,failure", [
    (1.0, "is zero"), (1.0 + 1e-10, "column magnitude")])
def test_kernel_flags_degraded_members(degraded_point, failure):
    keys, constant, dynamic = _PENCIL.merged_sparse_structure()
    n = _PENCIL.dimension
    s = np.array([3.0, degraded_point, 4.0], dtype=complex)
    values = constant[None, :] + s[:, None] * dynamic[None, :]
    pattern = sparse_lu(_matrix(n, keys, values[0]), column_order=range(n))
    schedule = _schedule(pattern, keys)
    factors = schedule.factor(values, schedule.slots_of(keys))
    assert factors.failed_step.tolist() == [-1, 0, -1]
    assert factors.healthy_prefix() == 1
    mantissas, exponents = factors.determinants_mantissa_exponent()
    assert mantissas[1] == 0 and exponents[1] == 0
    assert not factors.solve(_RHS)[1].any()
    # The reused (0, 0) pivot is exactly zero, or keeps 1e-10 of its column.
    pivot = abs(factors.pivots[1, 0])
    if failure == "is zero":
        assert pivot == 0
    else:
        assert 0 < pivot < REFACTOR_STABILITY * abs(values[1, keys.index(
            (1, 0))])


def test_entry_outside_compiled_structure_rejected():
    formulation, keys, values, __ = _sweep(CIRCUITS[0][1])
    schedule = _compiled(formulation, keys, values)[2]
    n = formulation.dimension
    outside = next((row, col) for row in range(n) for col in range(n)
                   if (row, col) not in schedule._slot)
    with pytest.raises(LinAlgError, match="outside the compiled structure"):
        schedule.slots_of(list(keys) + [outside])
    with pytest.raises(LinAlgError, match="values must be"):
        schedule.factor(values[:, :-1], schedule.slots_of(keys))


def test_ensemble_samples_share_one_schedule_per_order(monkeypatch):
    compiled = []
    original = RefactorSchedule.__init__

    def counting(self, *args, **kwargs):
        compiled.append(self)
        original(self, *args, **kwargs)

    monkeypatch.setattr(RefactorSchedule, "__init__", counting)
    circuit, spec = build_rc_ladder(4)
    names = [element.name for element in circuit
             if type(element).__name__ in ("Resistor", "Capacitor")][:5]
    space = ParameterSpace(circuit, {name: 0.1 for name in names})
    ensemble_sweep(circuit, spec, np.logspace(1, 7, 9), space, samples=8,
                   seed=3, method="sparse")
    assert len(compiled) == 1
