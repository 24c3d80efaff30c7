import json
from importlib import resources
from math import ceil

import numpy as np
import pytest

from cascsim.config import config_from_dict
from cascsim.engine import parse_event_log_line, run_simulation
from cascsim.errors import ConfigError
from cascsim.scheduler import (
    TIER_LEVEL,
    SchedulerConfig,
    SchedulerState,
    Tier,
    scheduler_tick,
    select_update_targets,
    threshold_change,
)

from cascsim.server import BatchLatencyTable, compute_capacity_greedy

from conftest import log_lines, replay_decisions, small_config


def cfg(**overrides) -> SchedulerConfig:
    c = SchedulerConfig(kind="multitasc", initial_threshold=0.5, **overrides)
    c.validate()
    return c


def fleet(low=0, mid=0, high=0, threshold=0.5):
    """Controller state of a fleet numbered low tier first, then mid, then high."""
    levels = [TIER_LEVEL[Tier.LOW]] * low + [TIER_LEVEL[Tier.MID]] * mid \
        + [TIER_LEVEL[Tier.HIGH]] * high
    return SchedulerState([threshold] * len(levels), levels)


def never(n):
    return np.full(n, -1)


class TestConfig:
    def test_defaults(self):
        c = SchedulerConfig(kind="multitasc")
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
        """No capacity below 0 reaches the change rule: the greedy solver refuses a
        budget that is not positive and counts up from 0 for one below every batch."""
        table = BatchLatencyTable({1: 15.0, 2: 20.0})
        for slo_ms in (0.0, -1.0, float("nan")):
            with pytest.raises(ConfigError) as err:
                compute_capacity_greedy(table, slo_ms)
            assert err.value.field == "slo_ms"
        assert compute_capacity_greedy(table, 10.0).capacity == 0


class TestSelectUpdateTargets:
    def test_decrease_prioritizes_high_tier(self):
        state = fleet(low=4, mid=3, high=3)
        got = select_update_targets(state.levels, state.last_update, True, cfg())
        assert got.tolist() == [7, 8]  # ceil(0.2 * 10) of the high ids 7, 8, 9

    def test_increase_prioritizes_low_tier(self):
        state = fleet(low=4, mid=3, high=3)
        got = select_update_targets(state.levels, state.last_update, False, cfg())
        assert got.tolist() == [0, 1]

    def test_singleton_fleet_selects_itself(self):
        state = fleet(mid=1)
        for decrease in (True, False):
            assert select_update_targets(state.levels, never(1), decrease, cfg()).tolist() == [0]

    def test_count_is_ceiling_of_fraction(self):
        # 0.2 * 15 is 3.0000000000000004 in floats; the ceiling must stay 3
        state = fleet(mid=15)
        assert len(select_update_targets(state.levels, never(15), True, cfg())) == 3

    def test_least_recently_updated_breaks_within_tier(self):
        state = fleet(high=4)
        got = select_update_targets(state.levels, np.array([3, 1, 2, 1]), True,
                                    cfg(update_fraction=0.5))
        assert got.tolist() == [1, 3]  # stalest first, id ascending on ties

    def test_never_updated_devices_go_first(self):
        state = fleet(mid=3)
        got = select_update_targets(state.levels, np.array([5, -1, 1]), False,
                                    cfg(update_fraction=0.4))
        assert got.tolist() == [1, 2]

    def test_empty_fleet_rejected(self):
        """The controller always has a device to pick: a config document with an empty
        fleet list is refused, and so is a rescale of a fleet to no device."""
        text = resources.files("cascsim").joinpath(
            "presets", "homog_efflite0_inceptionv3.json").read_text("utf-8")
        doc = json.loads(text)
        config_from_dict(doc)
        with pytest.raises(ConfigError) as err:
            config_from_dict({**doc, "fleet": []})
        assert err.value.field == "fleet"
        with pytest.raises(ConfigError) as err:
            config_from_dict(doc).with_device_count(0)
        assert err.value.field == "--devices"

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_sorted_reference(self, seed):
        """Randomized fleets against a plain ``sorted`` of (priority, last update, id)."""
        rng = np.random.default_rng(seed)
        for _ in range(25):
            n = int(rng.integers(1, 61))
            tiers = [list(Tier)[i] for i in rng.integers(0, 3, n)]
            last_update = rng.integers(-1, 6, n)
            decrease = bool(rng.integers(2))
            fraction = float(rng.choice([0.0, 1.0, rng.random()]))
            # throttling reaches high-tier devices first, relaxing low-tier ones
            order = ((Tier.HIGH, Tier.MID, Tier.LOW) if decrease
                     else (Tier.LOW, Tier.MID, Tier.HIGH))
            expected = sorted(range(n),
                              key=lambda d: (order.index(tiers[d]), last_update[d], d))
            count = ceil(fraction * n - 1e-9)
            got = select_update_targets(np.array([TIER_LEVEL[t] for t in tiers]), last_update,
                                        decrease, cfg(update_fraction=fraction))
            assert got.tolist() == expected[:count]


class TestFlush:
    def test_entry_zeroes_and_saves(self):
        state = fleet(mid=3, threshold=0.62)
        ids, reason = scheduler_tick(state, b_bar=0.0, queue_length=80, capacity=36,
                                     cfg=cfg(flush_factor=2.0))
        assert reason == "flush_enter"
        assert ids.tolist() == [0, 1, 2]
        assert state.flush_active
        assert state.thresholds.tolist() == [0.0, 0.0, 0.0]
        assert state.saved.tolist() == [0.62, 0.62, 0.62]

    def test_exit_restores_saved(self):
        state = fleet(mid=2, threshold=0.4)
        scheduler_tick(state, 0.0, 80, 36, cfg())
        ids, reason = scheduler_tick(state, 0.0, 4, 36, cfg())  # beta * 36 = 4.5
        assert reason == "flush_exit"
        assert ids.tolist() == [0, 1]
        assert not state.flush_active
        assert state.saved is None
        assert state.thresholds.tolist() == [0.4, 0.4]

    def test_no_transition_in_between(self):
        state = fleet(mid=2)
        # b_bar between the bands: the change rule holds too
        ids, reason = scheduler_tick(state, 10.0, 30, 36, cfg())
        assert (ids.tolist(), reason) == ([], "hold")
        assert not state.flush_active

    def test_round_trip_restores_exact_thresholds(self):
        rng = np.random.default_rng(3)
        values = rng.random(9).tolist()
        state = SchedulerState(values, [0, 0, 0, 1, 1, 1, 2, 2, 2])
        assert scheduler_tick(state, 0.0, 1000, 36, cfg())[1] == "flush_enter"
        assert scheduler_tick(state, 0.0, 0, 36, cfg())[1] == "flush_exit"
        assert state.thresholds.tolist() == values


class TestSchedulerTick:
    def run_tick(self, state, queue_length, b_bar, capacity=36, config=None):
        """One tick; returns its updates as (device id, new threshold, reason)."""
        config = config or cfg()
        ids, reason = scheduler_tick(state, b_bar, queue_length, capacity, config)
        return [(d, v, reason) for d, v in zip(ids.tolist(), state.thresholds[ids].tolist())]

    def test_hold_branch_returns_no_updates(self):
        state = fleet(mid=5)
        assert self.run_tick(state, queue_length=3, b_bar=32) == []

    def test_decrease_clamps_at_zero(self):
        state = fleet(mid=5, threshold=0.03)
        updates = self.run_tick(state, queue_length=40, b_bar=32)
        assert updates == [(0, 0.0, "decrease")]

    def test_increase_moves_by_margin(self):
        state = fleet(mid=5, threshold=0.50)
        updates = self.run_tick(state, queue_length=0, b_bar=1)
        assert len(updates) == 1
        assert updates[0][1] == pytest.approx(0.55)
        assert updates[0][2] == "increase"

    def test_exact_fraction_updated_outside_flush(self):
        state = fleet(low=4, mid=4, high=2)
        updates = self.run_tick(state, queue_length=40, b_bar=32)
        assert len(updates) == 2  # ceil(0.2 * 10)

    def test_flush_preempts_threshold_logic(self):
        state = fleet(mid=4, threshold=0.8)
        updates = self.run_tick(state, queue_length=100, b_bar=32)
        assert updates == [(d, 0.0, "flush_enter") for d in range(4)]
        # while flushed and still congested above the exit band: hold
        assert self.run_tick(state, queue_length=50, b_bar=32) == []
        # decongested: restore
        updates = self.run_tick(state, queue_length=2, b_bar=(32 + 32 + 1) / 3)
        assert updates == [(d, 0.8, "flush_exit") for d in range(4)]

    def test_deterministic_for_fixed_inputs(self):
        def build():
            return fleet(low=3, mid=3, high=3, threshold=0.6)
        s1, s2 = build(), build()
        u1 = self.run_tick(s1, 40, (32 + 16 + 32) / 3)
        u2 = self.run_tick(s2, 40, (32 + 16 + 32) / 3)
        assert u1 == u2
        assert s1.last_update.tolist() == s2.last_update.tolist()

    def test_updates_recorded_as_last_update_tick(self):
        state = fleet(high=4, threshold=0.6)
        first = self.run_tick(state, queue_length=40, b_bar=32)
        second = self.run_tick(state, queue_length=40, b_bar=32)
        assert [u[0] for u in first] == [0]
        assert [u[0] for u in second] == [1]  # least recently updated next
        assert state.last_update.tolist() == [1, 2, -1, -1]


class TestBaseline:
    def test_never_updates(self):
        """Under queue pressure that moves the adaptive loop's thresholds, a
        static run applies no update and decides every sample at its initial
        threshold."""
        logs, configs = {}, {}
        for kind in ("static", "multitasc"):
            config = small_config(groups=[("mid", 5, 10.0)], table_entries={1: 15, 2: 20},
                                  kind=kind, threshold=0.62, trace_count=300,
                                  sched_overrides=dict(tick_period_ms=100.0))
            report = run_simulation(config, seed=1, collect_event_log=True)
            logs[kind] = [parse_event_log_line(line) for line in log_lines(report)]
            configs[kind] = config
        assert any(e.kind == "threshold_applied" for e in logs["multitasc"])
        static = logs["static"]
        ticks = [e for e in static if e.kind == "scheduler_tick"]
        assert ticks and all(e.payload["updates"] == [] for e in ticks)
        assert max(e.payload["queue_len"] for e in ticks) > ticks[0].payload["capacity"]
        assert not any(e.kind == "threshold_applied" for e in static)
        cfg = configs["static"]
        assert len(replay_decisions(cfg, cfg.build_traces(1), static)) == 5 * 300


class TestStateAccounting:
    def test_change_rule_reads_the_b_bar_argument(self):
        """Same state and queue, only b_bar differs: the tick follows it."""
        reasons = {}
        for b_bar in (0.0, 10.0, 32.0):
            for queue_length in (0, 40):
                state = fleet(mid=1)
                reasons[b_bar, queue_length] = scheduler_tick(state, b_bar, queue_length, 36,
                                                              cfg())[1]
        # alpha * 36 = 29.88, beta * 36 = 4.5
        assert reasons == {(0.0, 0): "increase", (10.0, 0): "hold", (32.0, 0): "hold",
                           (0.0, 40): "hold", (10.0, 40): "hold", (32.0, 40): "decrease"}
