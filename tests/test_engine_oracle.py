"""The epoch-stepped engine against the per-event oracle: identical reports,
per-sample columns and event logs, byte for byte.

The presets run with shortened traces at device counts on both sides of
saturation; the small configs are built to put many events at the same
instant, where only the tie rule decides the order (which batch a request
joins, which threshold a sample sees, what a tick observes).
"""

from dataclasses import replace

import numpy as np
import pytest

from cascsim.config import load_config, preset_names
from cascsim.engine import run_simulation
from cascsim.metrics import SampleColumns

import oracle_engine
from conftest import make_trace, random_integral_config, random_traces, small_config

SEEDS = (1, 2, 3)
TRACE_COUNT = 300
# (fewest, most) devices per preset: underutilized and overloaded static servers
PRESET_COUNTS = {
    "homog_efflite0_inceptionv3": (10, 50),
    "homog_efflite0_efficientnetb3": (10, 50),
    "heterog_inceptionv3": (9, 45),
    "heterog_efficientnetb3": (9, 45),
}


def oracle_run(cfg, traces, seed):
    if traces is None:
        traces = cfg.build_traces(seed)
    return oracle_engine._Run(cfg, traces, seed, collect_event_log=True).run()


def assert_identical(cfg, traces=None, seed=0):
    expected = oracle_run(cfg, traces, seed)
    actual = run_simulation(cfg, traces, seed=seed, collect_event_log=True)
    assert actual.to_json() == expected.to_json()
    # the engine emits rows in decision order, the oracle in finalization order
    e_rows, a_rows = (np.lexsort((r.samples.sample_index, r.samples.device_id))
                      for r in (expected, actual))
    for name in SampleColumns.__slots__:
        e = getattr(expected.samples, name)[e_rows]
        a = getattr(actual.samples, name)[a_rows]
        assert a.dtype == e.dtype and np.array_equal(a, e), name
    text = "".join(actual.event_log)
    assert text == "".join(line + "\n" for line in expected.event_log)
    actual.event_log = text.splitlines()  # callers read the lines again
    return actual


def shortened(preset: str, kind: str):
    cfg = load_config(preset)
    return replace(cfg, scheduler=replace(cfg.scheduler, kind=kind), fleet=tuple(
        replace(g, synthetic=replace(g.synthetic, count=TRACE_COUNT)) for g in cfg.fleet))


def test_every_preset_is_covered():
    assert sorted(PRESET_COUNTS) == preset_names()


@pytest.mark.parametrize("preset", sorted(PRESET_COUNTS))
@pytest.mark.parametrize("kind", ["static", "multitasc"])
def test_presets_match_oracle_across_saturation(preset, kind):
    states = set()
    for devices in PRESET_COUNTS[preset]:
        cfg = shortened(preset, kind).with_device_count(devices)
        for seed in SEEDS:
            states.add(assert_identical(cfg, seed=seed).server_state)
    if kind == "static":
        assert states == {"underutilized", "overloaded"}


def test_flush_round_trip_config_matches_oracle():
    cfg = small_config(groups=[("mid", 3, 43.0)], table_entries={1: 40.0}, kind="multitasc",
                       threshold=1.0, uplink=0.0, downlink=0.0, start_phase="aligned",
                       trace_count=400)
    traces = {i: make_trace([0.5] * 400, [True] * 400, [i % 2 == 0] * 400) for i in range(3)}
    report = assert_identical(cfg, traces)
    assert any('"flush": "entered"' in line for line in report.event_log)


TIE_CONFIGS = {
    "aligned_zero_links": dict(groups=[("low", 2, 20.0), ("mid", 2, 40.0), ("high", 2, 40.0)],
                               table_entries={1: 10.0, 2: 15.0, 4: 20.0}, uplink=0.0,
                               downlink=0.0),
    "t_inf_equals_uplink": dict(groups=[("mid", 3, 5.0), ("high", 3, 10.0)],
                                table_entries={1: 5.0, 2: 8.0, 4: 10.0}, uplink=5.0,
                                downlink=5.0),
    "downlink_beyond_tick": dict(groups=[("mid", 4, 20.0)], table_entries={1: 10.0, 2: 15.0},
                                 uplink=5.0, downlink=200.0),
    "downlink_equals_tick": dict(groups=[("mid", 4, 20.0)], table_entries={1: 10.0, 2: 15.0},
                                 uplink=5.0, downlink=100.0, start_phase="staggered"),
}


@pytest.mark.parametrize("name", sorted(TIE_CONFIGS))
@pytest.mark.parametrize("kind", ["static", "multitasc"])
def test_tie_heavy_configs_match_oracle(name, kind):
    params = dict(threshold=0.6, start_phase="aligned", kind=kind,
                  sched_overrides=dict(tick_period_ms=100.0))
    params.update(TIE_CONFIGS[name])
    cfg = small_config(**params)
    devices = sum(count for _, count, _ in params["groups"])
    rng = np.random.default_rng(sorted(TIE_CONFIGS).index(name))
    assert_identical(cfg, random_traces(rng, devices, 300))


def times_of(report, kind: str) -> set[str]:
    return {line.split("\t", 1)[0] for line in report.event_log
            if line.split("\t", 3)[2] == kind}


@pytest.mark.parametrize("block", range(4))
def test_random_integral_configs_match_oracle(block):
    """Random small fleets on an integral time grid, where same-instant events abound.

    Some batch completes at the instant a request arrives, so the match covers the
    engine's exact-tie path (which requests a completing batch finds queued), not
    only its binary search."""
    tied = 0
    for trial in range(block * 25, block * 25 + 25):
        report = assert_identical(*random_integral_config(np.random.default_rng(trial)))
        tied += bool(times_of(report, "batch_complete") & times_of(report, "request_arrival"))
    assert tied


@pytest.mark.parametrize("trial, response_first", [(3, True), (37, False)])
def test_the_last_tick_follows_the_last_response(trial, response_first):
    """A run ends at the first tick that every response precedes. In these trials
    the last response and a tick fall at the same instant: in trial 3 the
    response goes first, so that tick is the last; in trial 37 the tick goes
    first, so one more tick follows."""
    report = assert_identical(*random_integral_config(np.random.default_rng(trial)))
    rows = [line.split("\t", 3) for line in report.event_log]
    last_response = max(i for i, row in enumerate(rows) if row[2] == "response_arrival")
    ticks = [i for i, row in enumerate(rows) if row[2] == "scheduler_tick"]
    [tied] = [i for i in ticks if rows[i][0] == rows[last_response][0]]
    assert (last_response < tied) == response_first
    assert len(ticks) - 1 - ticks.index(tied) == (0 if response_first else 1)
