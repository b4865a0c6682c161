"""Self-tests of the benchmark harness: statistics, span arithmetic, wrappers.

Run with ``PYTHONPATH=src python -m pytest perfbench/tests -q`` from the
repository root.
"""

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, BENCH)

import layers  # noqa: E402
import measure  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


# --------------------------------------------------------------------------- #
# percentile selection
# --------------------------------------------------------------------------- #


@pytest.mark.parametrize("count, percentile", [
    (19, None), (20, 50.0), (40, 75.0), (99, 75.0), (100, 90.0),
    (199, 90.0), (200, 95.0), (1000, 99.0), (10000, 99.9),
])
def test_tail_percentile_keeps_ten_samples_beyond(count, percentile):
    values = [float(value) for value in range(1, count + 1)]
    tail = measure.tail_percentile(values)
    if percentile is None:
        assert tail is None
        return
    assert tail[0] == percentile
    beyond = sum(1 for value in values if value > tail[1])
    assert beyond >= 10


def test_tail_percentile_value_is_nearest_rank():
    values = list(range(100, 0, -1))
    assert measure.tail_percentile(values) == (90.0, 90)


# --------------------------------------------------------------------------- #
# self time arithmetic
# --------------------------------------------------------------------------- #


def test_self_times_of_nested_spans():
    recorded = [
        ["root", 0.0, 10.0, None],
        ["a", 1.0, 4.0, 0],
        ["a.child", 2.0, 3.0, 1],
        ["b", 5.0, 9.0, 0],
        ["root", 12.0, 13.0, None],
    ]
    selfs, covered = spans.self_times(recorded)
    assert selfs == pytest.approx({"root": 4.0, "a": 2.0, "a.child": 1.0,
                                   "b": 4.0})
    assert covered == pytest.approx(11.0)
    assert sum(selfs.values()) == pytest.approx(covered)


def test_self_times_share_concurrent_leaves():
    # A parent waiting on two pool threads: while both run, each gets half.
    recorded = [
        ["parent", 0.0, 10.0, None],
        ["solve", 0.0, 10.0, 0],
        ["solve", 5.0, 10.0, 0],
        ["empty", 3.0, 3.0, 0],
    ]
    selfs, covered = spans.self_times(recorded)
    assert selfs == pytest.approx({"solve": 10.0})
    assert covered == pytest.approx(10.0)


def test_self_times_rejects_open_span():
    with pytest.raises(ValueError):
        spans.self_times([["root", 0.0, None, None]])


def test_recorder_parents_pool_threads_on_the_waiting_thread():
    import threading

    recorder = spans.Recorder()
    outer = recorder.open("outer")
    thread = threading.Thread(target=lambda: recorder.close(
        recorder.open("inner")))
    thread.start()
    thread.join(timeout=10)
    assert not thread.is_alive()
    recorder.close(outer)
    assert recorder.spans[1][0] == "inner"
    assert recorder.spans[1][3] == outer


def test_per_layer_record_adds_up_to_the_traced_wall():
    selfs = {"entry": 0.5, "interpolation.dft": 1.0, "linalg.sparse_lu": 2.0}
    totals = {name: 0 for name in spans.COUNTERS}
    totals.update({"engine.factorizations": 2, "engine.refactorizations": 6,
                   "linalg.fresh_factorizations": 2,
                   "linalg.fill_in_entries": 30})
    values = layers.per_layer_record(selfs, covered=3.5, wall=4.0,
                                     totals=totals, operations=2,
                                     quarantined=0, overhead=0.01)
    timed = sum(values[metric] for metric, unit, *__ in layers.LAYERS
                if unit == "s/op" and metric != "traced_wall_s")
    assert timed == pytest.approx(values["traced_wall_s"])
    assert values["untraced_s"] == pytest.approx(0.25)
    assert values["engine.refactor_fallback_ratio"] == pytest.approx(0.25)
    assert values["linalg.fill_in"] == pytest.approx(15.0)
    assert values["trace.overhead"] == pytest.approx(1.0)


# --------------------------------------------------------------------------- #
# failure accounting
# --------------------------------------------------------------------------- #


class _FlakyWorkload:
    """Operation 1 raises, operation 2 half fails, the rest succeed."""

    ops_per_round = 1
    block_rounds = 1

    def __init__(self):
        self.checked = []

    def make_input(self, index):
        return index

    def run(self, index):
        if index == 1:
            raise RuntimeError("boom")
        return index

    def units(self, index):
        return 4

    def outcome(self, index, result):
        return (2, 2) if index == 2 else (4, 0)

    def quarantined(self, result):
        return 2 if result == 2 else 0

    def check(self, index, result):
        self.checked.append(index)


def test_failed_ratio_counts_exceptions_and_partial_failures():
    flaky = _FlakyWorkload()
    phase = worker.closed_loop(flaky, operations=4)
    assert phase["done"] == 4 + 2 + 4
    assert phase["failed"] == 4 + 2
    assert phase["quarantined"] == 2
    assert phase["errors"] == ["RuntimeError: boom"]
    assert flaky.checked == [0, 2, 3]
    attempted = phase["done"] + phase["failed"]
    assert measure.failed_ratio(phase["failed"], attempted) == 6 / 16
    assert measure.failed_ratio(0, 0) == 0.0
    with pytest.raises(ValueError):
        measure.failed_ratio(5, 4)


def test_calibrated_latency_uses_the_kernel_on_either_side(monkeypatch):
    # Kernel times: 10 ms before operation 0, then 10, 30 and 20 ms after
    # operations 0, 1 and 2 — the host slowed down during operation 1.
    kernel = iter([0.010, 0.010, 0.030, 0.020])
    monkeypatch.setattr(worker, "kernel_seconds", lambda budget: next(kernel))
    phase = worker.closed_loop(_FlakyWorkload(), operations=3)
    latencies = [latency for latency, *__ in phase["ops"]]
    factors = [0.010, 0.020, 0.025]
    assert phase["calibrated"] == pytest.approx(
        [latency * worker.CALIBRATION_REF_S / factor
         for latency, factor in zip(latencies, factors)])
    assert [calibrated for __, calibrated, ___ in phase["ops"]] == (
        phase["calibrated"])


def test_end_to_end_uses_complete_blocks_of_consecutive_operations():
    # Two tree / bus / mesh rounds, then a round cut short by the clock.
    operations = [(1.0, 1), (2.0, 1), (3.0, 1),
                  (1.0, 1), (2.0, 1), (5.0, 1),
                  (1.0, 1), (2.0, 1)]
    blocks = measure.complete_blocks(operations, 3)
    assert blocks == [operations[0:3], operations[3:6]]
    summary = measure.end_to_end(operations, 3)
    assert summary["throughput_blocks"] == 2
    assert summary["block_rates"] == pytest.approx([3 / 6.0, 3 / 8.0])
    assert summary["throughput_per_s"] == pytest.approx(0.5 * (3 / 6.0
                                                               + 3 / 8.0))
    assert summary["latency_samples"] == 6
    assert summary["latency_s_p50"] == 2.0
    # Latency of a whole tree / bus / mesh round.
    rounds = measure.end_to_end(operations, 3, round_size=3)
    assert rounds["latency_samples"] == 2
    assert rounds["latency_s_p50"] == pytest.approx(7.0)
    assert rounds["throughput_per_s"] == summary["throughput_per_s"]


def test_end_to_end_without_a_complete_block_uses_every_operation():
    operations = [(2.0, 4), (1.0, 2)]
    assert measure.complete_blocks(operations, 3) == [operations]
    assert measure.end_to_end(operations, 3)["throughput_per_s"] == 2.0


# --------------------------------------------------------------------------- #
# every wrapper fires on its workload
# --------------------------------------------------------------------------- #


@pytest.fixture
def small_workloads(monkeypatch, tmp_path):
    """The workloads at sizes that run in seconds, on the same code paths."""
    monkeypatch.setattr(workloads, "POSTLAYOUT_DIMENSION", 40)
    monkeypatch.setattr(workloads, "ENSEMBLE_SAMPLES", 64)
    monkeypatch.setattr(workloads, "SHARD_SIZE", 32)
    monkeypatch.setenv("REPRO_MP_START", "fork")
    monkeypatch.chdir(tmp_path)
    return monkeypatch


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_wrapper_fires_on_its_workload(small_workloads, name):
    if name == "ref_postlayout":
        # Sends the small generator circuits down the sparse path, like n≈200.
        small_workloads.setenv("REPRO_DENSE_CUTOFF", "8")
    workload = workloads.WORKLOADS[name](seed=7)
    try:
        workload.setup()
        with spans.Tracer(workload.patches()) as tracer:
            phase = worker.closed_loop(workload,
                                       operations=workload.ops_per_round,
                                       recorder=tracer.recorder)
        ok, details = workload.verdict()
    finally:
        workload.close()
    assert tracer.silent() == []
    assert phase["failed"] == 0
    assert ok, details
    selfs, __ = spans.self_times(tracer.recorder.spans)
    assert set(selfs) <= set(layers.LAYER_TIMES)


# --------------------------------------------------------------------------- #
# BENCHMARK.json agrees with the harness
# --------------------------------------------------------------------------- #


def test_benchmark_json_matches_the_harness():
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json")) as handle:
        benchmark = json.load(handle)
    assert [entry["name"] for entry in benchmark["workloads"]] == list(
        run.WORKLOADS)
    assert sorted(run.WORKLOADS) == sorted(workloads.WORKLOADS)
    assert {entry["name"]: entry["unit"]
            for entry in benchmark["end_to_end"]} == run.END_TO_END_UNITS
    assert [(entry["name"], entry["unit"], entry["better"])
            for entry in benchmark["per_layer"]] == [
        (metric, unit, better) for metric, unit, better, *__ in layers.LAYERS]
