"""Post-layout-scale dispatch behavior: cutoff and crossover.

Companions to ``benchmarks/bench_scaling.py`` that must hold on every run
(no reduced mode): the ``REPRO_DENSE_CUTOFF`` override actually flips the
dense↔sparse dispatch and is snapshotted per engine construction, the
sparse path beats the dense path in wall-clock at n ≥ 512 on the RC mesh,
and the scaling-curve runner reports a consistent crossover.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.circuits import build_rc_mesh
from repro.engine.sweep import SweepEngine
from repro.mna.builder import build_mna_system


@pytest.fixture(scope="module")
def small_mesh():
    circuit, spec = build_rc_mesh(8)          # n = 66
    return build_mna_system(circuit), spec


class TestDenseCutoffDispatch:
    """REPRO_DENSE_CUTOFF flips dispatch, snapshotted at construction."""

    def test_env_override_flips_dispatch(self, small_mesh, monkeypatch):
        system, __ = small_mesh
        monkeypatch.setenv("REPRO_DENSE_CUTOFF", "100000")
        assert SweepEngine(system).is_dense
        monkeypatch.setenv("REPRO_DENSE_CUTOFF", "10")
        assert not SweepEngine(system).is_dense

    def test_cutoff_snapshot_at_construction(self, small_mesh, monkeypatch):
        system, __ = small_mesh
        monkeypatch.setenv("REPRO_DENSE_CUTOFF", "100000")
        engine = SweepEngine(system)
        assert engine.dense_cutoff == 100000
        # Changing the environment later must not flip a live engine...
        monkeypatch.setenv("REPRO_DENSE_CUTOFF", "10")
        assert engine.is_dense
        # ...while a freshly constructed engine reads the new value.
        assert not SweepEngine(system).is_dense

    def test_explicit_method_ignores_cutoff(self, small_mesh, monkeypatch):
        system, __ = small_mesh
        monkeypatch.setenv("REPRO_DENSE_CUTOFF", "10")
        assert SweepEngine(system, method="dense").is_dense
        monkeypatch.setenv("REPRO_DENSE_CUTOFF", "100000")
        assert not SweepEngine(system, method="sparse").is_dense

    def test_both_dispatches_solve_identical_grid(self, small_mesh,
                                                  monkeypatch):
        system, __ = small_mesh
        s = 2j * np.pi * np.logspace(2, 8, 5)
        monkeypatch.setenv("REPRO_DENSE_CUTOFF", "100000")
        dense = SweepEngine(system).solve_sweep(s, system.rhs)
        monkeypatch.setenv("REPRO_DENSE_CUTOFF", "10")
        sparse = SweepEngine(system).solve_sweep(s, system.rhs)
        norms = np.linalg.norm(dense, axis=1, keepdims=True)
        assert float(np.max(np.abs(dense - sparse) / norms)) <= 1e-10


class TestScalingCrossover:
    """The ordered sparse path wins in wall-clock at post-layout sizes."""

    def test_sparse_beats_dense_at_512(self):
        circuit, __ = build_rc_mesh(16, 32)   # n = 514
        system = build_mna_system(circuit)
        assert system.dimension >= 512
        s = 2j * np.pi * np.logspace(2.0, 8.0, 3)

        start = time.perf_counter()
        dense = SweepEngine(system, method="dense").solve_sweep(
            s, system.rhs)
        dense_seconds = time.perf_counter() - start

        start = time.perf_counter()
        sparse = SweepEngine(system, method="sparse").solve_sweep(
            s, system.rhs)
        sparse_seconds = time.perf_counter() - start

        norms = np.linalg.norm(dense, axis=1, keepdims=True)
        assert float(np.max(np.abs(dense - sparse) / norms)) <= 1e-8
        # The bench measures ~10x here; even a heavily loaded CI machine
        # has to show the crossover itself.
        assert sparse_seconds < dense_seconds, (sparse_seconds,
                                                dense_seconds)


class TestScalingCurveRunner:
    """The bench's experiment runner holds its invariants at tiny sizes."""

    def test_runner_invariants(self):
        from repro.reporting.experiments import run_scaling_curve

        result = run_scaling_curve(num_frequencies=3, targets=(20, 40))
        assert len(result.points) == 6        # 3 families x 2 targets
        assert result.max_deviation <= 1e-8, result.describe()
        for point in result.points:
            assert point.ordered_fill <= point.natural_fill, point.describe()
            assert point.speedup > 0.0
        for family in ("mesh", "tree", "bus"):
            curve = result.family_points(family)
            assert [p.family for p in curve] == [family] * 2
            assert curve[0].dimension <= curve[1].dimension
        mesh = result.family_points("mesh")
        crossover = result.crossover_dimension("mesh")
        assert crossover is None or crossover in {p.dimension for p in mesh}
        assert "crossover" in result.describe()
