"""Threshold control loop: reactive change rule, fractional updates, tier
prioritization, and the emergency flush. The static baseline runs no loop.

Every tick the controller compares the recent average batch size and the queue
length against weighted fractions of the server's capacity. Sustained pressure
on both lowers thresholds (fewer forwards); slack on both raises them. Only a
fraction of the fleet is touched per tick so each adjustment has time to act,
and the tier ordering decides who gets touched first.
"""

from __future__ import annotations

import enum
import sys
from collections import deque
from dataclasses import dataclass
from math import ceil, inf
from typing import Optional

from .cascade import Threshold
from .errors import ConfigError


class Tier(enum.Enum):
    LOW = "low"
    MID = "mid"
    HIGH = "high"


# Update order per direction: when throttling, devices with stronger local
# models lose server access first; when relaxing, weaker ones regain it first.
_DECREASE_PRIORITY = (Tier.HIGH, Tier.MID, Tier.LOW)
_INCREASE_PRIORITY = (Tier.LOW, Tier.MID, Tier.HIGH)


class Direction(enum.Enum):
    DECREASE = "decrease"
    INCREASE = "increase"


class FlushTransition(enum.Enum):
    ENTERED = "entered"
    EXITED = "exited"
    NONE = "none"


@dataclass(frozen=True)
class SchedulerConfig:
    """Control-loop parameters.

    Defaults: a fifth of the fleet moves per tick, by 0.05, judged against a
    5-batch window with pressure weights 0.83 / 0.125, every 2 seconds.
    update_fraction and margin of exactly 0 are permitted as an explicit
    degenerate configuration that reduces the loop to the static baseline.
    """

    update_fraction: float = 0.20
    margin: float = 0.05
    window: int = 5
    alpha: float = 0.83
    beta: float = 0.125
    tick_period_ms: float = 2000.0
    flush_factor: float = 2.0
    slo_ms: float = 100.0

    def validate(self) -> None:
        """Raise ConfigError at ``scheduler.<field>`` for the first value out of range
        (NaN fails every comparison, so each rule also rejects it)."""
        for name, ok, rule in (
                ("update_fraction", 0.0 <= self.update_fraction <= 1.0, "in [0, 1]"),
                ("margin", 0.0 <= self.margin <= 1.0, "in [0, 1]"),
                ("window", 1 <= self.window <= sys.maxsize, f"in [1, {sys.maxsize}]"),
                ("alpha", 0.0 < self.alpha < inf, "finite and positive"),
                ("beta", 0.0 < self.beta < self.alpha, f"positive and below alpha ({self.alpha})"),
                ("tick_period_ms", 0.0 < self.tick_period_ms < inf, "finite and positive"),
                ("flush_factor", 0.0 < self.flush_factor < inf, "finite and positive"),
                ("slo_ms", 0.0 < self.slo_ms < inf, "finite and positive")):
            if not ok:
                raise ConfigError(f"scheduler.{name}",
                                  f"must be {rule}, got {getattr(self, name)}")


@dataclass
class DeviceState:
    """Controller-side view of one device: the threshold last commanded to it."""

    device_id: int
    tier: Tier
    threshold: Threshold


class SchedulerState:
    """Mutable controller state carried across ticks."""

    __slots__ = ("recent_batches", "flush_active", "saved_thresholds",
                 "last_update_tick", "tick_ordinal")

    def __init__(self, window: int):
        self.recent_batches: deque[int] = deque(maxlen=window)
        self.flush_active = False
        self.saved_thresholds: Optional[dict[int, Threshold]] = None
        self.last_update_tick: dict[int, int] = {}
        self.tick_ordinal = 0

    @property
    def b_bar(self) -> float:
        """Mean of the recorded recent batch sizes; 0 before any batch ran."""
        if not self.recent_batches:
            return 0.0
        return sum(self.recent_batches) / len(self.recent_batches)

    def record_batch(self, batch_size: int) -> None:
        self.recent_batches.append(batch_size)


@dataclass(frozen=True, slots=True)
class ThresholdUpdate:
    device_id: int
    threshold: Threshold
    reason: str  # "decrease", "increase", "flush_enter", "flush_exit"


def threshold_change(b_bar: float, queue_length: int, capacity: int,
                     cfg: SchedulerConfig) -> float:
    """Signed threshold change for this tick: -margin, 0, or +margin.

    Lowers thresholds only when both the batch-size average and the queue
    length exceed alpha * capacity; raises them only when both sit at or below
    beta * capacity. Anything in between holds steady.
    """
    if capacity < 0:
        raise ConfigError("capacity", f"must be non-negative, got {capacity}")
    high = cfg.alpha * capacity
    low = cfg.beta * capacity
    if b_bar > high and queue_length > high:
        return -cfg.margin
    if b_bar <= low and queue_length <= low:
        return cfg.margin
    return 0.0


def select_update_targets(devices: list[DeviceState], direction: Direction,
                          cfg: SchedulerConfig,
                          last_update_tick: Optional[dict[int, int]] = None) -> list[int]:
    """Pick ceil(update_fraction * fleet size) devices to update this tick.

    Candidates are ordered by tier priority for the direction, then least
    recently updated first, then ascending device id; the prefix is taken.
    """
    if not devices:
        raise ConfigError("devices", "must be a non-empty list")
    if last_update_tick is None:
        last_update_tick = {}
    priority = _DECREASE_PRIORITY if direction is Direction.DECREASE else _INCREASE_PRIORITY
    rank = {tier: i for i, tier in enumerate(priority)}
    # tiny epsilon so float noise in fraction * count cannot bump the ceiling
    count = ceil(cfg.update_fraction * len(devices) - 1e-9)
    ordered = sorted(devices, key=lambda d: (rank[d.tier],
                                             last_update_tick.get(d.device_id, -1),
                                             d.device_id))
    return [d.device_id for d in ordered[:count]]


def flush_check(state: SchedulerState, queue_length: int, capacity: int,
                cfg: SchedulerConfig, devices: list[DeviceState]) -> FlushTransition:
    """Enter or exit the emergency flush, mutating thresholds in place.

    Entry: queue beyond flush_factor * capacity; every threshold is saved and
    zeroed so no device forwards. Exit: queue back at or below beta * capacity;
    the saved thresholds are restored unchanged.
    """
    if not state.flush_active and queue_length > cfg.flush_factor * capacity:
        state.saved_thresholds = {d.device_id: d.threshold for d in devices}
        for d in devices:
            d.threshold = Threshold(0.0)
        state.flush_active = True
        return FlushTransition.ENTERED
    if state.flush_active and queue_length <= cfg.beta * capacity:
        saved = state.saved_thresholds or {}
        for d in devices:
            if d.device_id in saved:
                d.threshold = saved[d.device_id]
        state.flush_active = False
        state.saved_thresholds = None
        return FlushTransition.EXITED
    return FlushTransition.NONE


def scheduler_tick(devices: list[DeviceState], state: SchedulerState,
                   queue_length: int, capacity: int,
                   cfg: SchedulerConfig) -> list[ThresholdUpdate]:
    """One control-loop invocation; returns the threshold updates to deliver."""
    state.tick_ordinal += 1
    transition = flush_check(state, queue_length, capacity, cfg, devices)
    if transition is FlushTransition.ENTERED:
        return [ThresholdUpdate(d.device_id, d.threshold, "flush_enter") for d in devices]
    if transition is FlushTransition.EXITED:
        return [ThresholdUpdate(d.device_id, d.threshold, "flush_exit") for d in devices]
    if state.flush_active:
        return []

    tc = threshold_change(state.b_bar, queue_length, capacity, cfg)
    if tc == 0.0:
        return []
    direction = Direction.DECREASE if tc < 0 else Direction.INCREASE
    targets = select_update_targets(devices, direction, cfg, state.last_update_tick)
    by_id = {d.device_id: d for d in devices}
    updates = []
    for device_id in targets:
        device = by_id[device_id]
        device.threshold = Threshold(device.threshold.value + tc)
        state.last_update_tick[device_id] = state.tick_ordinal
        updates.append(ThresholdUpdate(device_id, device.threshold, direction.value))
    return updates
