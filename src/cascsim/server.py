"""Shared server model: batch-latency profile, batch-size selection, and capacity.

Capacity is the largest number of samples the server can push through within
one latency budget, choosing batch sizes from its profile. Computing it is an
unbounded knapsack over batch sizes; a greedy largest-batch-first pass is
optimal whenever the profile's throughput grows with batch size, as every table
must; the test suite checks it against an exact dynamic program.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from math import floor, inf, isfinite
from typing import Optional

from .errors import ConfigError

BATCH_POOL = (1, 2, 4, 8, 16, 32, 64)
# the largest count a float holds exactly: past it, alpha * capacity is not exact
MAX_EXACT_COUNT = 2 ** 53


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

    @property
    def peak_throughput(self) -> float:
        """Best attainable service rate in samples/s over the usable sizes."""
        return max(1000.0 * b / self.entries[b] for b in self.effective_sizes)

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
    k = bisect_right(table.effective_sizes, queue_length)
    return table.effective_sizes[k - 1] if k else None


def compute_capacity_greedy(table: BatchLatencyTable, slo_ms: float) -> CapacityResult:
    """Greedy capacity: repeat the largest batch size as often as the budget allows,
    then fall through to smaller sizes with whatever time remains. A capacity above
    ``MAX_EXACT_COUNT`` (2**53) is a ConfigError at ``slo_ms``."""
    if not 0.0 < slo_ms < inf:  # NaN fails too
        raise ConfigError("slo_ms", f"must be finite and positive, got {slo_ms}")
    remaining = float(slo_ms)
    schedule = []
    capacity = 0
    for b in reversed(table.effective_sizes):
        latency = table.entries[b]
        quotient = remaining / latency
        if quotient > MAX_EXACT_COUNT:  # inf too: a latency too small to count at all
            raise ConfigError("slo_ms", f"{slo_ms} ms holds more than 2**53 batches of size "
                                        f"{b} at {latency} ms, past exact float counting")
        n = int(floor(quotient))
        # guard against float division landing a hair above an exact multiple
        while n > 0 and n * latency > remaining:
            n -= 1
        if n > 0:
            schedule.append((b, n))
            capacity += b * n
            remaining -= n * latency
    if capacity > MAX_EXACT_COUNT:
        raise ConfigError("slo_ms", f"{slo_ms} ms holds {capacity} samples, more than 2**53, "
                                    "past exact float counting")
    return CapacityResult(capacity, tuple(schedule), float(slo_ms) - remaining)

