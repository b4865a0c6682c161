"""The per-layer metrics, their units, and the span each time is read from.

Every metric is per operation of the traced phase: per reference on the
``ref_*`` workloads, per ensemble call on the ``ensemble_*`` workloads.
Times are self times (see :mod:`spans`).  ``BENCHMARK.json`` lists the same
names, units and directions; the README's interaction table says which
end-to-end metric each one should move, on which workload.
"""

from __future__ import annotations

#: (metric, unit, better, span or None)
LAYERS = (
    ("entry.self_s", "s/op", "lower", "entry"),
    ("interpolation.adaptive_self_s", "s/op", "lower",
     "interpolation.adaptive"),
    ("interpolation.dft_s", "s/op", "lower", "interpolation.dft"),
    ("interpolation.region_s", "s/op", "lower", "interpolation.region"),
    ("interpolation.deflate_s", "s/op", "lower", "interpolation.deflate"),
    ("nodal.formulation_s", "s/op", "lower", "nodal.formulation"),
    ("nodal.sample_self_s", "s/op", "lower", "nodal.sample"),
    ("engine.sweep_self_s", "s/op", "lower", "engine.sweep"),
    ("linalg.sparse_lu_s", "s/op", "lower", "linalg.sparse_lu"),
    ("linalg.ordering_s", "s/op", "lower", "linalg.ordering"),
    ("linalg.dense_lu_s", "s/op", "lower", "linalg.dense_lu"),
    ("linalg.member_solve_s", "s/op", "lower", "linalg.member_solve"),
    ("linalg.batched_solve_s", "s/op", "lower", "linalg.batched_solve"),
    ("mna.build_s", "s/op", "lower", "mna.build"),
    ("montecarlo.ensemble_self_s", "s/op", "lower", "montecarlo.ensemble"),
    ("montecarlo.program_s", "s/op", "lower", "montecarlo.program"),
    ("montecarlo.stack_self_s", "s/op", "lower", "montecarlo.stack"),
    ("montecarlo.fold_s", "s/op", "lower", "montecarlo.fold"),
    ("montecarlo.merge_s", "s/op", "lower", "montecarlo.merge"),
    ("parallel.supervise_self_s", "s/op", "lower", "parallel.supervise"),
    ("checkpoint.save_s", "s/op", "lower", "checkpoint.save"),
    ("untraced_s", "s/op", "lower", None),
    ("traced_wall_s", "s/op", "lower", None),
    ("trace.overhead", "%", "lower", None),
    ("interpolation.iterations", "count/op", "lower", None),
    ("interpolation.points", "count/op", "lower", None),
    ("engine.factorizations", "count/op", "lower", None),
    ("engine.refactorizations", "count/op", "lower", None),
    ("engine.refactor_fallback_ratio", "ratio", "lower", None),
    ("linalg.sparse_lu_calls", "count/op", "lower", None),
    ("linalg.fill_in", "entries", "lower", None),
    ("montecarlo.program_builds", "count/op", "lower", None),
    ("montecarlo.quarantined", "count/op", "lower", None),
    ("parallel.shards", "count/op", "lower", None),
    ("parallel.redispatches", "count/op", "lower", None),
    ("checkpoint.bytes", "B/op", "lower", None),
)

#: span name -> per-layer time metric
LAYER_TIMES = {span: metric for metric, __, ___, span in LAYERS
               if span is not None}

#: counter name (see spans.COUNTERS) -> per-layer count metric, per operation
_PER_OPERATION_COUNTS = (
    "interpolation.iterations", "interpolation.points",
    "engine.factorizations", "engine.refactorizations",
    "linalg.sparse_lu_calls", "montecarlo.program_builds",
    "parallel.shards", "parallel.redispatches", "checkpoint.bytes",
)


def per_layer_record(self_seconds, covered, wall, totals, operations,
                     quarantined, overhead):
    """Every per-layer metric as ``{name: value}`` from one traced phase.

    ``self_seconds`` maps span names to self time, ``covered`` is the time
    under root spans, ``wall`` the traced phase's wall time, ``totals`` the
    recorder's counts over ``operations`` operations.
    """
    values = {metric: 0.0 for metric, *__ in LAYERS}
    for span, seconds in self_seconds.items():
        values[LAYER_TIMES[span]] += seconds / operations
    values["untraced_s"] = (wall - covered) / operations
    values["traced_wall_s"] = wall / operations
    values["trace.overhead"] = 100.0 * overhead
    for name in _PER_OPERATION_COUNTS:
        values[name] = totals[name] / operations
    values["montecarlo.quarantined"] = quarantined / operations
    points = totals["engine.factorizations"] + totals["engine.refactorizations"]
    values["engine.refactor_fallback_ratio"] = (
        totals["engine.factorizations"] / points if points else 0.0)
    fresh = totals["linalg.fresh_factorizations"]
    values["linalg.fill_in"] = (totals["linalg.fill_in_entries"] / fresh
                                if fresh else 0.0)
    return values
