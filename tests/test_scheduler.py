import pytest

from cascsim.cascade import Threshold
from cascsim.engine import parse_event_log_line, run_simulation
from cascsim.errors import ConfigError
from cascsim.scheduler import (
    DeviceState,
    Direction,
    FlushTransition,
    SchedulerConfig,
    SchedulerState,
    Tier,
    flush_check,
    scheduler_tick,
    select_update_targets,
    threshold_change,
)

from conftest import small_config


def cfg(**overrides) -> SchedulerConfig:
    c = SchedulerConfig(**overrides)
    c.validate()
    return c


def fleet(low=0, mid=0, high=0, threshold=0.5, t_inf=43.0):
    devices = []
    device_id = 0
    for tier, count in ((Tier.LOW, low), (Tier.MID, mid), (Tier.HIGH, high)):
        for _ in range(count):
            devices.append(DeviceState(device_id, tier, Threshold(threshold)))
            device_id += 1
    return devices


class TestConfig:
    def test_defaults(self):
        c = SchedulerConfig()
        assert (c.update_fraction, c.margin, c.window, c.alpha, c.beta,
                c.tick_period_ms) == (0.20, 0.05, 5, 0.83, 0.125, 2000.0)

    def test_beta_must_be_below_alpha(self):
        with pytest.raises(ConfigError, match=r"^scheduler\.beta: "):
            cfg(alpha=0.5, beta=0.5)

    def test_degenerate_zero_fraction_and_margin_allowed(self):
        cfg(update_fraction=0.0, margin=0.0)

    @pytest.mark.parametrize("bad", [
        dict(update_fraction=1.5),
        dict(margin=-0.1),
        dict(window=0),
        dict(tick_period_ms=0),
        dict(flush_factor=0),
        dict(slo_ms=-1),
    ])
    def test_invalid_values_rejected(self, bad):
        with pytest.raises(ConfigError) as info:
            cfg(**bad)
        assert info.value.field == f"scheduler.{next(iter(bad))}"


class TestThresholdChange:
    def test_decrease_when_both_exceed_alpha_band(self):
        # alpha * 36 = 29.88
        assert threshold_change(32, 40, 36, cfg()) == -0.05

    def test_increase_when_both_within_beta_band(self):
        # beta * 36 = 4.5
        assert threshold_change(4, 3, 36, cfg()) == 0.05

    def test_hold_when_conditions_split(self):
        assert threshold_change(32, 3, 36, cfg()) == 0.0

    def test_boundary_equality_on_alpha_holds(self):
        # QL exactly at alpha * C does not satisfy the strict inequality
        c = cfg(alpha=0.75, beta=0.125)
        assert threshold_change(80, 75, 100, c) == 0.0

    def test_boundary_equality_on_beta_raises(self):
        # b_bar exactly at beta * C satisfies the inclusive comparison
        c = cfg(alpha=0.75, beta=0.125)
        assert threshold_change(12.5, 12, 100, c) == 0.05

    def test_zero_capacity_with_pending_queue_decreases(self):
        assert threshold_change(1.0, 5, 0, cfg()) == -0.05

    def test_negative_capacity_rejected(self):
        with pytest.raises(ConfigError):
            threshold_change(1.0, 5, -1, cfg())


class TestSelectUpdateTargets:
    def test_decrease_prioritizes_high_tier(self):
        devices = fleet(low=4, mid=3, high=3)
        got = select_update_targets(devices, Direction.DECREASE, cfg())
        high_ids = [d.device_id for d in devices if d.tier is Tier.HIGH]
        assert got == high_ids[:2]

    def test_increase_prioritizes_low_tier(self):
        devices = fleet(low=4, mid=3, high=3)
        got = select_update_targets(devices, Direction.INCREASE, cfg())
        assert got == [0, 1]

    def test_singleton_fleet_selects_itself(self):
        devices = fleet(mid=1)
        for direction in Direction:
            assert select_update_targets(devices, direction, cfg()) == [0]

    def test_count_is_ceiling_of_fraction(self):
        # 0.2 * 15 is 3.0000000000000004 in floats; the ceiling must stay 3
        devices = fleet(mid=15)
        got = select_update_targets(devices, Direction.DECREASE, cfg())
        assert len(got) == 3

    def test_least_recently_updated_breaks_within_tier(self):
        devices = fleet(high=4)
        last = {0: 3, 1: 1, 2: 2, 3: 1}
        got = select_update_targets(devices, Direction.DECREASE, cfg(update_fraction=0.5), last)
        assert got == [1, 3]  # stalest first, id ascending on ties

    def test_never_updated_devices_go_first(self):
        devices = fleet(mid=3)
        got = select_update_targets(devices, Direction.INCREASE,
                                    cfg(update_fraction=0.4), {0: 5, 2: 1})
        assert got == [1, 2]

    def test_empty_fleet_rejected(self):
        with pytest.raises(ConfigError):
            select_update_targets([], Direction.DECREASE, cfg())


class TestFlush:
    def test_entry_zeroes_and_saves(self):
        devices = fleet(mid=3, threshold=0.62)
        state = SchedulerState(window=5)
        got = flush_check(state, queue_length=80, capacity=36, cfg=cfg(flush_factor=2.0),
                          devices=devices)
        assert got is FlushTransition.ENTERED
        assert state.flush_active
        assert all(d.threshold.value == 0.0 for d in devices)
        assert state.saved_thresholds == {0: Threshold(0.62), 1: Threshold(0.62),
                                          2: Threshold(0.62)}

    def test_exit_restores_saved(self):
        devices = fleet(mid=2, threshold=0.4)
        state = SchedulerState(window=5)
        flush_check(state, 80, 36, cfg(), devices)
        got = flush_check(state, 4, 36, cfg(), devices)  # beta * 36 = 4.5
        assert got is FlushTransition.EXITED
        assert not state.flush_active
        assert state.saved_thresholds is None
        assert all(d.threshold.value == 0.4 for d in devices)

    def test_no_transition_in_between(self):
        devices = fleet(mid=2)
        state = SchedulerState(window=5)
        assert flush_check(state, 30, 36, cfg(), devices) is FlushTransition.NONE

    def test_round_trip_restores_exact_thresholds(self):
        import numpy as np
        rng = np.random.default_rng(3)
        devices = fleet(low=3, mid=3, high=3)
        values = {}
        for d in devices:
            d.threshold = Threshold(float(rng.random()))
            values[d.device_id] = d.threshold.value
        state = SchedulerState(window=5)
        assert flush_check(state, 1000, 36, cfg(), devices) is FlushTransition.ENTERED
        assert flush_check(state, 0, 36, cfg(), devices) is FlushTransition.EXITED
        assert {d.device_id: d.threshold.value for d in devices} == values


class TestSchedulerTick:
    def run_tick(self, devices, state, queue_length, b_values, capacity=36, config=None):
        config = config or cfg()
        for b in b_values:
            state.record_batch(b)
        return scheduler_tick(devices, state, queue_length, capacity, config)

    def test_hold_branch_returns_no_updates(self):
        devices = fleet(mid=5)
        state = SchedulerState(window=5)
        assert self.run_tick(devices, state, queue_length=3, b_values=[32]) == []

    def test_decrease_clamps_at_zero(self):
        devices = fleet(mid=5, threshold=0.03)
        state = SchedulerState(window=5)
        updates = self.run_tick(devices, state, queue_length=40, b_values=[32, 32])
        assert len(updates) == 1
        assert updates[0].threshold.value == 0.0
        assert updates[0].reason == "decrease"

    def test_increase_moves_by_margin(self):
        devices = fleet(mid=5, threshold=0.50)
        state = SchedulerState(window=5)
        updates = self.run_tick(devices, state, queue_length=0, b_values=[1])
        assert len(updates) == 1
        assert updates[0].threshold.value == pytest.approx(0.55)

    def test_exact_fraction_updated_outside_flush(self):
        devices = fleet(low=4, mid=4, high=2)
        state = SchedulerState(window=5)
        updates = self.run_tick(devices, state, queue_length=40, b_values=[32, 32])
        assert len(updates) == 2  # ceil(0.2 * 10)

    def test_flush_preempts_threshold_logic(self):
        devices = fleet(mid=4, threshold=0.8)
        state = SchedulerState(window=5)
        updates = self.run_tick(devices, state, queue_length=100, b_values=[32])
        assert {u.reason for u in updates} == {"flush_enter"}
        assert len(updates) == 4
        assert all(u.threshold.value == 0.0 for u in updates)
        # while flushed and still congested above the exit band: hold
        assert self.run_tick(devices, state, queue_length=50, b_values=[32]) == []
        # decongested: restore
        updates = self.run_tick(devices, state, queue_length=2, b_values=[1])
        assert {u.reason for u in updates} == {"flush_exit"}
        assert all(u.threshold.value == 0.8 for u in updates)

    def test_deterministic_for_fixed_inputs(self):
        def build():
            devices = fleet(low=3, mid=3, high=3, threshold=0.6)
            state = SchedulerState(window=5)
            for b in (32, 16, 32):
                state.record_batch(b)
            return devices, state
        d1, s1 = build()
        d2, s2 = build()
        u1 = scheduler_tick(d1, s1, 40, 36, cfg())
        u2 = scheduler_tick(d2, s2, 40, 36, cfg())
        assert u1 == u2

    def test_updates_recorded_as_last_update_tick(self):
        devices = fleet(high=4, threshold=0.6)
        state = SchedulerState(window=5)
        first = self.run_tick(devices, state, queue_length=40, b_values=[32, 32])
        second = self.run_tick(devices, state, queue_length=40, b_values=[])
        assert [u.device_id for u in first] == [0]
        assert [u.device_id for u in second] == [1]  # least recently updated next


class TestBaseline:
    def test_never_updates(self):
        """Under queue pressure that moves the adaptive loop's thresholds, a
        static run applies no update and decides every sample at its initial
        threshold."""
        logs = {}
        for kind in ("static", "multitasc"):
            config = small_config(groups=[("mid", 5, 10.0)], table_entries={1: 15, 2: 20},
                                  kind=kind, threshold=0.62, trace_count=300,
                                  sched_overrides=dict(tick_period_ms=100.0))
            report = run_simulation(config, seed=1, collect_event_log=True)
            logs[kind] = [parse_event_log_line(line) for line in report.event_log]
        assert any(e.kind == "threshold_applied" for e in logs["multitasc"])
        static = logs["static"]
        ticks = [e for e in static if e.kind == "scheduler_tick"]
        assert ticks and all(e.payload["updates"] == [] for e in ticks)
        assert max(e.payload["queue_len"] for e in ticks) > ticks[0].payload["capacity"]
        assert not any(e.kind == "threshold_applied" for e in static)
        assert {e.payload["threshold"] for e in static
                if e.kind == "device_sample_done"} == {0.62}


class TestStateAccounting:
    def test_b_bar_is_bounded_window_mean(self):
        state = SchedulerState(window=3)
        assert state.b_bar == 0.0
        for b in (8, 16, 32, 64):
            state.record_batch(b)
        assert list(state.recent_batches) == [16, 32, 64]
        assert state.b_bar == pytest.approx((16 + 32 + 64) / 3)
