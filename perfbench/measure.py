"""Reductions of per-operation records into the end-to-end metrics."""

from __future__ import annotations

import math


def median(values):
    ordered = sorted(values)
    if not ordered:
        raise ValueError("median of no values")
    middle = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[middle]
    return 0.5 * (ordered[middle - 1] + ordered[middle])


def tail_percentile(values, ladder=(99.9, 99.0, 95.0, 90.0, 75.0, 50.0)):
    """``(percentile, value)`` of the highest ladder percentile that has at
    least ten samples beyond it (nearest-rank definition), or ``None``."""
    ordered = sorted(values)
    count = len(ordered)
    for percentile in ladder:
        rank = math.ceil(round(percentile * count / 100.0, 9))
        if rank >= 1 and count - rank >= 10:
            return percentile, ordered[rank - 1]
    return None


def failed_ratio(failed, attempted):
    """Units failed over units attempted (0 when nothing was attempted)."""
    if failed < 0 or failed > attempted:
        raise ValueError(f"failed={failed} outside 0..attempted={attempted}")
    return failed / attempted if attempted else 0.0


def complete_blocks(operations, size):
    """Consecutive ``size``-operation blocks of ``operations``.

    ``operations`` holds ``(latency, units)`` records in the order they ran.
    A trailing incomplete block is dropped; when no block is complete, all
    operations make one block.
    """
    count = len(operations) - len(operations) % size
    blocks = [operations[start:start + size] for start in range(0, count, size)]
    return blocks or [list(operations)]


def end_to_end(operations, size, round_size=1):
    """Throughput, median latency and tail latency of one closed loop.

    Throughput is the median over blocks of ``size`` consecutive operations
    of the block's completed units over its busy time, so a short burst of
    host noise moves one block, not the figure.  A block is a whole number
    of rounds, which keeps the mix of a multi-operation round fixed.  A
    latency is that of one round of ``round_size`` operations in the blocks.
    """
    blocks = complete_blocks(operations, size)
    rates = [sum(units for __, units in block)
             / sum(latency for latency, __ in block) for block in blocks]
    latencies = [sum(latency for latency, __ in block[start:start + round_size])
                 for block in blocks
                 for start in range(0, len(block), round_size)]
    tail = tail_percentile(latencies)
    return {
        "throughput_per_s": median(rates),
        "throughput_blocks": len(blocks),
        "block_rates": rates,
        "latency_s_p50": median(latencies),
        "latency_tail": (None if tail is None else
                         {"percentile": tail[0], "value_s": tail[1]}),
        "latency_samples": len(latencies),
    }
