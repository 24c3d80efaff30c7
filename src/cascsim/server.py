"""Shared server model: batch-latency profile, batch-size selection, and capacity solvers.

Capacity is the largest number of samples the server can push through within
one latency budget, choosing batch sizes from its profile. Computing it is an
unbounded knapsack over batch sizes; a greedy largest-batch-first pass is
optimal whenever the profile's throughput grows with batch size, and an exact
dynamic program over a 1 ms time grid serves as the independent check.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, floor, isfinite
from typing import Optional

from .errors import ConfigError

BATCH_POOL = (1, 2, 4, 8, 16, 32, 64)

DP_GRID_LIMIT_MS = 60_000


class BatchLatencyTable:
    """Per-batch-size inference latency profile of the server model.

    Keys must come from the batch pool and include 1. max_effective_batch caps
    the sizes the server will actually use (larger batches can stop paying off
    on real hardware). Throughput must be non-decreasing across the present
    sizes up to that cap.
    """

    __slots__ = ("entries", "max_effective_batch", "effective_sizes")

    def __init__(self, entries: dict[int, float], max_effective_batch: Optional[int] = None,
                 path: str = "batch_latency_table", max_path: str = "max_effective_batch"):
        """``entries`` maps batch sizes to latencies in ms. Configs and the CLI read
        them from JSON with ``config.read_batch_table``; a failed check raises
        ConfigError at ``path`` (``path.<size>`` for one entry) or ``max_path``."""
        for size, latency in entries.items():
            if size not in BATCH_POOL:
                raise ConfigError(f"{path}.{size}", f"batch size not in pool {BATCH_POOL}")
            if not (isfinite(latency) and latency > 0.0):
                raise ConfigError(f"{path}.{size}",
                                  f"latency must be positive and finite, got {latency}")
        if 1 not in entries:
            raise ConfigError(path, "must contain batch size 1")
        if max_effective_batch is None:
            max_effective_batch = max(entries)
        if max_effective_batch not in entries:
            raise ConfigError(max_path, f"{max_effective_batch} has no latency entry")
        clean = {size: float(latency) for size, latency in entries.items()}

        sizes = tuple(sorted(b for b in clean if b <= max_effective_batch))
        for small, big in zip(sizes, sizes[1:]):
            if big / clean[big] < small / clean[small]:
                raise ConfigError(f"{path}.{big}",
                                  f"throughput must not decrease from batch {small} to {big}")

        self.entries = dict(sorted(clean.items()))
        self.max_effective_batch = max_effective_batch
        self.effective_sizes = sizes

    def latency(self, batch_size: int) -> float:
        return self.entries[batch_size]

    @property
    def peak_throughput(self) -> float:
        """Best attainable service rate in samples/s over the usable sizes."""
        return max(1000.0 * b / self.entries[b] for b in self.effective_sizes)

    def to_dict(self) -> dict:
        return {str(b): self.entries[b] for b in self.entries}

    def __eq__(self, other):
        return (isinstance(other, BatchLatencyTable)
                and self.entries == other.entries
                and self.max_effective_batch == other.max_effective_batch)

    def __repr__(self):
        return f"BatchLatencyTable({self.entries}, max_effective_batch={self.max_effective_batch})"


@dataclass(frozen=True, slots=True)
class CapacityResult:
    """Outcome of a capacity computation.

    schedule lists (batch size, repetitions) pairs; capacity is the total
    sample count and time_used_ms the summed batch latency, which never
    exceeds the budget it was computed for.
    """

    capacity: int
    schedule: tuple[tuple[int, int], ...]
    time_used_ms: float


def select_batch_size(queue_length: int, table: BatchLatencyTable) -> Optional[int]:
    """Largest usable batch size covered by the current queue; None when empty."""
    best = None
    for b in table.effective_sizes:
        if b <= queue_length:
            best = b
        else:
            break
    return best


def compute_capacity_greedy(table: BatchLatencyTable, slo_ms: float) -> CapacityResult:
    """Greedy capacity: repeat the largest batch size as often as the budget allows,
    then fall through to smaller sizes with whatever time remains."""
    if slo_ms <= 0:
        raise ConfigError("slo_ms", f"must be positive, got {slo_ms}")
    remaining = float(slo_ms)
    schedule = []
    capacity = 0
    for b in reversed(table.effective_sizes):
        latency = table.latency(b)
        n = int(floor(remaining / latency))
        # guard against float division landing a hair above an exact multiple
        while n > 0 and n * latency > remaining:
            n -= 1
        if n > 0:
            schedule.append((b, n))
            capacity += b * n
            remaining -= n * latency
    return CapacityResult(capacity, tuple(schedule), float(slo_ms) - remaining)


def compute_capacity_exact(table: BatchLatencyTable, slo_ms: float,
                           grid_limit_ms: int = DP_GRID_LIMIT_MS) -> CapacityResult:
    """Exact capacity by unbounded-knapsack dynamic programming.

    Works on a 1 ms grid; latencies are rounded up to the grid, so it is exact
    whenever the table's latencies are integral. Intended as the independent
    oracle for the greedy solver.
    """
    if slo_ms <= 0:
        raise ConfigError("slo_ms", f"must be positive, got {slo_ms}")
    if slo_ms > grid_limit_ms:
        raise ConfigError("slo_ms", f"{slo_ms} exceeds the exact grid limit {grid_limit_ms} ms")

    horizon = int(floor(slo_ms))
    costs = {b: int(ceil(table.latency(b))) for b in table.effective_sizes}

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
