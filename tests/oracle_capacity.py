"""Exact server capacity by unbounded-knapsack dynamic programming.

The independent oracle the greedy solver (``cascsim.server.compute_capacity_greedy``)
is compared against. It works on a 1 ms grid and rounds every latency up to
the grid, so it is exact only for tables whose latencies are integral; the
tables the tests draw (``conftest.random_monotone_table``) are.
"""

from __future__ import annotations

from math import ceil, floor

from cascsim.server import BatchLatencyTable, CapacityResult


def compute_capacity_exact(table: BatchLatencyTable, slo_ms: float) -> CapacityResult:
    """Most samples the table's usable batch sizes clear within ``slo_ms``."""
    horizon = int(floor(slo_ms))
    costs = {b: int(ceil(table.entries[b])) for b in table.effective_sizes}

    best = [0] * (horizon + 1)
    choice = [0] * (horizon + 1)
    for t in range(1, horizon + 1):
        best[t] = best[t - 1]
        choice[t] = 0
        for b in table.effective_sizes:
            cost = costs[b]
            if cost <= t and best[t - cost] + b > best[t]:
                best[t] = best[t - cost] + b
                choice[t] = b

    counts: dict[int, int] = {}
    t = horizon
    time_used = 0
    while t > 0 and best[t] > 0:
        b = choice[t]
        if b == 0:
            t -= 1
            continue
        counts[b] = counts.get(b, 0) + 1
        time_used += costs[b]
        t -= costs[b]
    schedule = tuple(sorted(counts.items(), reverse=True))
    return CapacityResult(best[horizon], schedule, float(time_used))
