"""Run every benchmark and append a perf-trajectory snapshot to BENCH.json.

Two layers:

* **Quantitative workloads** — the engine A/B experiments (batched sweep,
  rank-1 screening, analysis session, Monte Carlo, parallel and streaming
  ensembles, compiled model, sparse scaling) run
  through their :mod:`repro.reporting.experiments` runners and land in the
  snapshot as ``{workload, circuit, speedup, max_relative_deviation,
  seconds}`` records.  These are the library's perf trajectory: each PR's
  snapshot shows whether the speedups its benches assert still hold.
* **Scripted benches** — every other ``bench_*.py`` with a ``main()`` runs as
  a smoke check (pass/fail + wall time), so a regression in a
  paper-reproduction bench shows up here even between full pytest runs.

Modes::

    PYTHONPATH=src python benchmarks/run_all.py            # full trajectory
    PYTHONPATH=src python benchmarks/run_all.py --smoke    # CI: reduced
                                                           # workloads

``--smoke`` sets ``REPRO_BENCH_REDUCED=1`` and runs only the reduced
Monte Carlo, parallel, streaming, compiled-model and sparse-scaling
workloads — seconds instead of minutes, equivalence still asserted — so CI
keeps the trajectory file fresh without paying for the full suite.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
BENCH_JSON = BENCH_DIR.parent / "BENCH.json"


def _record(workload, circuit, workload_seconds, speedup, deviation,
            extra=None):
    record = {
        "workload": workload,
        "circuit": circuit,
        # Wall time of the whole workload run (shared by its circuits) —
        # per-circuit timings live in the speedup's underlying experiment.
        "workload_seconds": round(workload_seconds, 4),
        "speedup": round(speedup, 2),
        "max_relative_deviation": deviation,
    }
    if extra:
        record.update(extra)
    return record


def run_quantitative(smoke=False):
    """The engine A/B experiments; returns snapshot records."""
    from repro.reporting.experiments import (
        run_batch_sweep,
        run_compiled_model,
        run_montecarlo_ensemble,
        run_parallel_ensemble,
        run_scaling_curve,
        run_sensitivity_screening,
        run_session_workload,
    )

    records = []

    # Monte Carlo ensemble: reduced shape in smoke mode, with the
    # batch-invariance / 1e-9 equivalence gates asserted either way.
    samples, points = (24, 40) if smoke else (256, 200)
    start = time.perf_counter()
    for ensemble in run_montecarlo_ensemble(num_samples=samples,
                                            num_points=points,
                                            repeats=1 if smoke else 3):
        records.append(_record(
            "montecarlo_ensemble", ensemble.circuit_name,
            time.perf_counter() - start, ensemble.speedup,
            ensemble.lapack_relative_deviation,
            {"samples": ensemble.num_samples,
             "points": ensemble.num_frequencies,
             "tolerance_axes": ensemble.num_axes,
             "lapack_relative_deviation":
                 ensemble.lapack_relative_deviation,
             "batch_invariant": ensemble.batch_invariant}))
        print(ensemble.describe())
        assert ensemble.batch_invariant, ensemble.describe()
        assert ensemble.lapack_relative_deviation <= 1e-9, ensemble.describe()
        if not smoke:
            assert ensemble.speedup >= 5.0, ensemble.describe()

    # Supervised parallel ensemble: the multiprocess driver vs the
    # single-process resilient run, bit-parity gates asserted either way;
    # the wall-clock floor only applies on full runs with >= 4 CPUs.
    parallel_shape = (2048, 8, 256) if smoke else (100_000, 8, 1024)
    start = time.perf_counter()
    parallel = run_parallel_ensemble(num_samples=parallel_shape[0],
                                     num_points=parallel_shape[1],
                                     shard_size=parallel_shape[2])
    records.append(_record(
        "parallel_ensemble", parallel.circuit_name,
        time.perf_counter() - start, parallel.speedup,
        0.0 if parallel.bit_identical else float("inf"),
        {"samples": parallel.num_samples,
         "points": parallel.num_frequencies,
         "shard_size": parallel.shard_size,
         "workers": parallel.workers,
         "single_sample_points_per_second":
             round(parallel.single_throughput, 1),
         "parallel_sample_points_per_second":
             round(parallel.parallel_throughput, 1),
         "redispatches": parallel.redispatches,
         "quarantined": parallel.quarantined,
         "bit_identical": parallel.bit_identical}))
    print(parallel.describe())
    assert parallel.bit_identical, parallel.describe()
    assert parallel.redispatches == 0, parallel.describe()
    if not smoke and (os.cpu_count() or 1) >= 4:
        assert parallel.speedup >= 0.7, parallel.describe()

    # Streaming ensemble: O(F)-memory estimators under a hard tracemalloc
    # ceiling, multiprocess bit parity and the importance-sampled yield
    # cross-check — all gates asserted in smoke and full mode alike.
    from repro.reporting.experiments import run_streaming_ensemble

    streaming_shape = ((20_000, 8, 1024, 96.0, 800) if smoke
                       else (1_000_000, 8, 1024, 256.0, 2000))
    start = time.perf_counter()
    streaming = run_streaming_ensemble(num_samples=streaming_shape[0],
                                       num_points=streaming_shape[1],
                                       shard_size=streaming_shape[2],
                                       memory_ceiling_mb=streaming_shape[3],
                                       yield_samples=streaming_shape[4])
    records.append(_record(
        "streaming_ensemble", streaming.circuit_name,
        time.perf_counter() - start,
        streaming.materialized_mb / max(streaming.traced_peak_mb, 1e-9),
        0.0 if streaming.bit_identical else float("inf"),
        {"samples": streaming.num_samples,
         "points": streaming.num_frequencies,
         "shard_size": streaming.shard_size,
         "sample_points_per_second": round(streaming.throughput, 1),
         "traced_peak_mb": round(streaming.traced_peak_mb, 2),
         "materialized_mb": round(streaming.materialized_mb, 2),
         "rss_peak_mb": round(streaming.rss_peak_mb, 1),
         "memory_ceiling_mb": streaming.memory_ceiling_mb,
         "bit_identical": streaming.bit_identical,
         "plain_failure": streaming.plain_failure,
         "weighted_failure": streaming.weighted_failure,
         "failure_ess": round(streaming.failure_ess, 1),
         "is_consistent": streaming.is_consistent}))
    print(streaming.describe())
    assert streaming.within_ceiling, streaming.describe()
    assert streaming.bit_identical, streaming.describe()
    assert streaming.is_consistent, streaming.describe()

    # Compiled transfer model: tensor serving vs the matrix engine over the
    # same draws, with the parity and compile-once gates asserted either way.
    start = time.perf_counter()
    compiled = run_compiled_model(num_samples=samples, num_points=points,
                                  repeats=1 if smoke else 3)
    records.append(_record(
        "compiled_model", compiled.circuit_name,
        time.perf_counter() - start, compiled.speedup,
        compiled.relative_deviation,
        {"samples": compiled.num_samples,
         "points": compiled.num_frequencies,
         "tolerance_axes": compiled.num_axes,
         "terms": compiled.num_terms,
         "groups": compiled.num_groups,
         "compile_seconds": round(compiled.compile_seconds, 3),
         "serve_seconds": round(compiled.serve_seconds, 4),
         "session_compiles": compiled.session_compiles}))
    print(compiled.describe())
    assert compiled.relative_deviation <= 1e-9, compiled.describe()
    assert compiled.session_compiles == 1, compiled.describe()
    if not smoke:
        assert compiled.speedup >= 20.0, compiled.describe()

    # Generator-circuit scaling: dense vs ordered-sparse sweep timings with
    # the per-family crossover dimension and fill-in ablation in the record.
    start = time.perf_counter()
    scaling = run_scaling_curve(reduced=smoke)
    scaling_seconds = time.perf_counter() - start
    print(scaling.describe())
    assert scaling.max_deviation <= 1e-8, scaling.describe()
    for family in sorted({point.family for point in scaling.points}):
        curve = scaling.family_points(family)
        largest = curve[-1]
        records.append(_record(
            "sparse_scaling", family, scaling_seconds, largest.speedup,
            scaling.max_deviation,
            {"crossover_dimension": scaling.crossover_dimension(family),
             "curve": [{"dimension": point.dimension,
                        "nnz": point.nnz,
                        "dense_seconds": round(point.dense_seconds, 4),
                        "sparse_seconds": round(point.sparse_seconds, 4),
                        "natural_fill": point.natural_fill,
                        "ordered_fill": point.ordered_fill}
                       for point in curve]}))
        assert all(point.ordered_fill <= point.natural_fill
                   for point in curve), scaling.describe()
        if not smoke and family == "mesh":
            assert largest.dimension >= 1024 and largest.speedup >= 3.0, (
                scaling.describe())
    if smoke:
        return records

    for workload, runner in (("batch_sweep", run_batch_sweep),
                             ("sensitivity_screening",
                              run_sensitivity_screening),
                             ("session_workload", run_session_workload)):
        start = time.perf_counter()
        results = runner()
        elapsed = time.perf_counter() - start  # whole-workload wall time
        for result in results:
            records.append(_record(
                workload, result.circuit_name, elapsed, result.speedup,
                result.max_relative_deviation))
            print(result.describe())

    return records


def run_scripted():
    """Smoke-run every other bench with a main(); returns snapshot records."""
    import importlib

    records = []
    sys.path.insert(0, str(BENCH_DIR))
    skip = {"run_all", "conftest"}
    quantitative = {"bench_batch_sweep", "bench_sensitivity", "bench_session",
                    "bench_montecarlo", "bench_scaling",
                    "bench_compiled", "bench_parallel", "bench_streaming"}
    for path in sorted(BENCH_DIR.glob("bench_*.py")):
        module_name = path.stem
        if module_name in skip or module_name in quantitative:
            continue
        print(f"== {module_name}")
        start = time.perf_counter()
        try:  # import AND run recorded, not fatal to the trajectory
            module = importlib.import_module(module_name)
            main = getattr(module, "main", None)
            if main is None:
                continue
            main()
            status = "ok"
        except Exception as exc:
            status = f"failed: {type(exc).__name__}: {exc}"
        records.append({
            "workload": module_name,
            "workload_seconds": round(time.perf_counter() - start, 4),
            "status": status,
        })
    return records


def append_snapshot(records, mode):
    """Append one snapshot to BENCH.json (creating it when absent)."""
    trajectory = {"snapshots": []}
    if BENCH_JSON.exists():
        try:
            trajectory = json.loads(BENCH_JSON.read_text())
        except json.JSONDecodeError:
            # Never overwrite an unreadable trajectory: set it aside so the
            # accumulated history stays recoverable.
            backup = BENCH_JSON.with_suffix(".json.corrupt")
            BENCH_JSON.rename(backup)
            print(f"warning: {BENCH_JSON} was unreadable; moved to {backup}")
    trajectory.setdefault("snapshots", []).append({
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"),
        "mode": mode,
        "results": records,
    })
    BENCH_JSON.write_text(json.dumps(trajectory, indent=2) + "\n")
    print(f"wrote {BENCH_JSON} ({len(trajectory['snapshots'])} snapshots)")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="CI mode: reduced workloads only")
    parser.add_argument("--no-scripted", action="store_true",
                        help="skip the scripted paper-reproduction benches")
    args = parser.parse_args(argv)

    if args.smoke:
        os.environ["REPRO_BENCH_REDUCED"] = "1"
    records = run_quantitative(smoke=args.smoke)
    if not args.smoke and not args.no_scripted:
        records.extend(run_scripted())
    append_snapshot(records, "smoke" if args.smoke else "full")


if __name__ == "__main__":
    main()
