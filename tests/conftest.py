"""Shared fixtures and generators for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from cascsim.server import BATCH_POOL, BatchLatencyTable
from cascsim.trace import TraceSet


def make_trace(bvsb, light, heavy) -> TraceSet:
    return TraceSet(np.asarray(bvsb, dtype=float),
                    np.asarray(light, dtype=bool),
                    np.asarray(heavy, dtype=bool))


def random_trace(rng: np.random.Generator, n: int) -> TraceSet:
    return make_trace(rng.random(n), rng.random(n) < rng.random(),
                      rng.random(n) < rng.random())


def random_monotone_table(rng: np.random.Generator,
                          max_latency: int = 500) -> BatchLatencyTable:
    """Random batch table with integer latencies and non-decreasing throughput.

    Size 1 is always present; each further pool size is included with
    probability 3/4 and its latency drawn so throughput never decreases.
    """
    sizes = [1]
    for b in BATCH_POOL[1:]:
        if rng.random() < 0.75:
            sizes.append(b)
    entries = {1: int(rng.integers(1, max_latency + 1))}
    prev = 1
    for b in sizes[1:]:
        # throughput monotone: latency(b) <= latency(prev) * b / prev
        upper = min(max_latency, (entries[prev] * b) // prev)
        entries[b] = int(rng.integers(1, upper + 1))
        prev = b
    max_eff = int(rng.choice(sizes))
    return BatchLatencyTable(entries, max_eff)


@pytest.fixture
def spec_table() -> BatchLatencyTable:
    """The worked capacity example table."""
    return BatchLatencyTable({1: 10, 2: 12, 4: 16, 8: 24, 16: 40}, 16)


def small_config(*, groups, table_entries, max_eff=None, kind="static", threshold=0.5,
                 uplink=0.0, downlink=0.0, slos=(100.0, 200.0), sched_overrides=None,
                 start_phase="aligned", trace_count=100):
    """Minimal experiment config for engine tests.

    groups is a list of (tier_name, count, t_inf_ms). Traces are usually
    passed to run_simulation explicitly, so the synthetic parameters here are
    placeholders sized by trace_count.
    """
    from cascsim.config import ExperimentConfig, FleetGroup, NetworkModel, SchedulerSpec
    from cascsim.scheduler import SchedulerConfig, Tier
    from cascsim.trace import SyntheticTraceParams

    fleet = tuple(
        FleetGroup(tier=Tier(tier), count=count, t_inf_ms=t_inf,
                   synthetic=SyntheticTraceParams(0.75, 0.9, 0.4, count=trace_count))
        for tier, count, t_inf in groups
    )
    sched_cfg = SchedulerConfig(**(sched_overrides or {}))
    return ExperimentConfig(
        fleet=fleet,
        server_table=BatchLatencyTable(table_entries, max_eff),
        scheduler=SchedulerSpec(kind=kind, config=sched_cfg, initial_threshold=threshold),
        network=NetworkModel(uplink_ms=uplink, downlink_ms=downlink),
        slos_ms=tuple(slos),
        seeds=(1,),
        start_phase=start_phase,
    )
