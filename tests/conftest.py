"""Shared fixtures and generators for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from cascsim.cascade import forwards
from cascsim.server import BATCH_POOL, BatchLatencyTable
from cascsim.trace import TraceSet


def log_lines(report) -> list[str]:
    """A report's event log, read once, as lines without their newlines."""
    return "".join(report.event_log).splitlines()


def replay_decisions(cfg, traces, events) -> list[bool]:
    """Replay a log's decisions, in line order, and check each against the keep/forward
    rule: a device's threshold is its initial one until its latest earlier
    ``threshold_applied`` line. Returns whether each decision forwarded."""
    initial = cfg.resolve_initial_thresholds()
    current = [initial[group] for group in cfg.device_groups()]
    forwarded = []
    for event in events:
        payload = event.payload
        if event.kind == "threshold_applied":
            current[payload["device"]] = payload["threshold"]
        elif event.kind == "device_sample_done":
            device, i = payload["device"], payload["sample"]
            forwarded.append(bool(forwards(traces[device].bvsb[i], current[device])))
            assert payload["decision"] == ("forward" if forwarded[-1] else "keep_local"), event
    return forwarded


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
    from cascsim.config import ExperimentConfig, FleetGroup, NetworkModel
    from cascsim.scheduler import SchedulerConfig, Tier
    from cascsim.trace import SyntheticTraceParams

    fleet = tuple(
        FleetGroup(tier=Tier(tier), count=count, t_inf_ms=t_inf,
                   synthetic=SyntheticTraceParams(0.75, 0.9, 0.4, count=trace_count))
        for tier, count, t_inf in groups
    )
    return ExperimentConfig(
        fleet=fleet,
        server_table=BatchLatencyTable(table_entries, max_eff),
        scheduler=SchedulerConfig(kind=kind, initial_threshold=threshold,
                                  **(sched_overrides or {})),
        network=NetworkModel(uplink_ms=uplink, downlink_ms=downlink),
        slos_ms=tuple(slos),
        seeds=(1,),
        start_phase=start_phase,
    )


def random_traces(rng: np.random.Generator, devices: int, n: int,
                  quantized: bool = False) -> dict[int, TraceSet]:
    """A random trace of ``n`` samples for each device id."""
    scores = [rng.random(n) for _ in range(devices)]
    if quantized:  # many identical scores: decisions flip exactly at threshold steps
        scores = [np.round(s * 4) / 4 for s in scores]
    return {i: make_trace(scores[i], rng.random(n) < 0.7, rng.random(n) < 0.8)
            for i in range(devices)}


def random_integral_config(rng: np.random.Generator):
    """A random small fleet on an integral time grid, where same-instant events
    abound, and its traces: ``(config, traces)``."""
    groups = [(("low", "mid", "high")[i % 3], int(rng.integers(1, 4)),
               float(rng.choice([5, 10, 15, 20, 40]))) for i in range(rng.integers(1, 6))]
    lat1 = float(rng.choice([5, 10, 20]))
    table = {1: lat1, 2: 2 * lat1 - float(rng.choice([0, 2, 4]))}
    table[4] = 2 * table[2] - float(rng.choice([0, 4]))
    cfg = small_config(
        groups=groups, table_entries=table, kind=str(rng.choice(["static", "multitasc"])),
        threshold=float(rng.choice([0.3, 0.6, 1.0])),
        uplink=float(rng.choice([0, 5, 10, groups[0][2]])),
        downlink=float(rng.choice([0, 5, 100, 200, 250])),
        start_phase=str(rng.choice(["aligned", "staggered"])),
        sched_overrides=dict(tick_period_ms=float(rng.choice([50, 100, 200])),
                             alpha=float(rng.choice([0.5, 0.83])),
                             flush_factor=float(rng.choice([1.0, 2.0])),
                             update_fraction=float(rng.choice([0.2, 0.5, 1.0]))))
    devices = sum(count for _, count, _ in groups)
    return cfg, random_traces(rng, devices, int(rng.integers(1, 200)),
                              quantized=bool(rng.random() < 0.5))
