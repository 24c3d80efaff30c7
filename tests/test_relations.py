"""Relations between whole runs. They check the engine without a second
implementation of its tie rule: an inert controller runs as the static
baseline, scaling every time input by a power of two scales every output
time by exactly that factor and changes nothing else, and a higher fixed
threshold forwards no smaller share of samples."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cascsim.config import load_config, preset_names
from cascsim.engine import parse_event_log_line, run_simulation
from cascsim.metrics import SampleColumns
from cascsim.server import BatchLatencyTable

from conftest import log_lines, random_integral_config


def with_scheduler(cfg, kind, **tuning):
    return replace(cfg, scheduler=replace(cfg.scheduler, kind=kind, **tuning))


def preset(name, per_group, kind, trace_count=None):
    """A shipped preset with ``per_group`` devices per fleet group, optionally with
    shorter synthetic traces."""
    cfg = load_config(name)
    cfg = with_scheduler(cfg.with_device_count(per_group * len(cfg.fleet)), kind)
    if trace_count is None:
        return cfg
    return replace(cfg, fleet=tuple(replace(g, synthetic=replace(g.synthetic, count=trace_count))
                                    for g in cfg.fleet))


def time_scaled(cfg, factor):
    """``cfg`` with every time input multiplied by ``factor``."""
    table, net, sched = cfg.server_table, cfg.network, cfg.scheduler
    return replace(
        cfg,
        fleet=tuple(replace(g, t_inf_ms=g.t_inf_ms * factor) for g in cfg.fleet),
        server_table=BatchLatencyTable({b: t * factor for b, t in table.entries.items()},
                                       table.max_effective_batch),
        network=replace(net, uplink_ms=net.uplink_ms * factor,
                        downlink_ms=net.downlink_ms * factor),
        slos_ms=tuple(s * factor for s in cfg.slos_ms),
        scheduler=replace(sched, tick_period_ms=sched.tick_period_ms * factor,
                          slo_ms=sched.slo_ms * factor))


@pytest.mark.parametrize("name", preset_names())
def test_inert_controller_runs_as_static(name):
    """No fractional updates and a flush no queue reaches: multitasc gives static's
    report in every field but the scheduler kind, sample for sample."""
    static = run_simulation(preset(name, 4, "static"), seed=1)
    inert = run_simulation(with_scheduler(preset(name, 4, "multitasc"), "multitasc",
                                          update_fraction=0.0, margin=0.0, flush_factor=1e9),
                           seed=1)
    a, b = static.to_dict(), inert.to_dict()
    assert (a.pop("scheduler_kind"), b.pop("scheduler_kind")) == ("static", "multitasc")
    assert a == b
    for column in SampleColumns.__slots__:
        assert np.array_equal(getattr(static.samples, column),
                              getattr(inert.samples, column)), column


def test_zero_fraction_and_margin_alone_do_not_make_it_static():
    """Without the unreachable flush factor, the flush still acts on a saturated server."""
    cfg = preset("homog_efflite0_inceptionv3", 48, "multitasc")
    static = run_simulation(with_scheduler(cfg, "static"), seed=1)
    zeroed = run_simulation(with_scheduler(cfg, "multitasc", update_fraction=0.0, margin=0.0),
                            seed=1)
    assert zeroed.slo_satisfaction != static.slo_satisfaction


def log_columns(report):
    """Time and kind of every event-log line."""
    events = [parse_event_log_line(line) for line in log_lines(report)]
    return np.array([e.time_ms for e in events]), [e.kind for e in events]


def assert_scaled_by_four(base, scaled):
    """Every output time of ``scaled`` is 4 times ``base``'s; nothing else moves."""
    for column in ("start_ms", "completion_ms", "latency_ms"):
        assert np.array_equal(getattr(base.samples, column) * 4,
                              getattr(scaled.samples, column)), column
    for column in ("device_id", "sample_index", "served", "correct"):
        assert np.array_equal(getattr(base.samples, column),
                              getattr(scaled.samples, column)), column
    assert scaled.makespan_ms == base.makespan_ms * 4
    assert list(scaled.slo_satisfaction.values()) == list(base.slo_satisfaction.values())
    assert scaled.samples_served == base.samples_served

    base_time, base_kind = log_columns(base)
    time, kind = log_columns(scaled)
    assert np.array_equal(base_time * 4, time)
    assert kind == base_kind


@pytest.mark.parametrize("kind", ("multitasc", "static"))
@pytest.mark.parametrize("name", preset_names())
def test_power_of_two_time_scaling(name, kind):
    """Times scale by exactly 4 in binary floating point; what they decide does not move.
    48 devices saturate every preset's server, so the controller acts."""
    cfg = preset(name, 48 // len(load_config(name).fleet), kind, trace_count=400)
    assert_scaled_by_four(run_simulation(cfg, seed=1, collect_event_log=True),
                          run_simulation(time_scaled(cfg, 4.0), seed=1, collect_event_log=True))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(trial=st.integers(0, 2**32 - 1))
def test_power_of_two_time_scaling_on_random_integral_configs(trial):
    """The same relation on the oracle test's random small fleets, whose integral
    time grid puts many events at one instant: scaling keeps every tie as it was."""
    cfg, traces = random_integral_config(np.random.default_rng(trial))
    assert_scaled_by_four(run_simulation(cfg, traces, collect_event_log=True),
                          run_simulation(time_scaled(cfg, 4.0), traces, collect_event_log=True))


@settings(derandomize=True, max_examples=100, deadline=None)
@given(name=st.sampled_from(preset_names()), thresholds=st.lists(st.floats(0.0, 1.0),
                                                                  min_size=2, max_size=2),
       seed=st.integers(0, 1000))
def test_raising_a_fixed_threshold_never_lowers_forward_rate(name, thresholds, seed):
    """``forwards`` is monotone in the threshold, and a static run never moves it."""
    cfg = preset(name, 2, "static", trace_count=300)
    rates = [run_simulation(replace(cfg, scheduler=replace(cfg.scheduler, initial_threshold=t,
                                                           calibration=None)),
                            seed=seed).forward_rate
             for t in sorted(thresholds)]
    assert rates[0] <= rates[1]
