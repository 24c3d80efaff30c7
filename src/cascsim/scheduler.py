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
from dataclasses import dataclass
from math import ceil, inf
from typing import Optional

import numpy as np

from .cascade import CalibrationSpec
from .errors import ConfigError

SCHEDULER_KINDS = ("multitasc", "static")


class Tier(enum.Enum):
    LOW = "low"
    MID = "mid"
    HIGH = "high"


# Tier as a level: throttling moves the highest levels first (devices with
# stronger local models lose server access first); relaxing the lowest first.
TIER_LEVEL = {tier: level for level, tier in enumerate(Tier)}


@dataclass(frozen=True)
class SchedulerConfig:
    """The ``scheduler`` section: the kind ("multitasc" runs the control loop, "static"
    keeps the initial thresholds), exactly one threshold source (a fixed
    ``initial_threshold`` or a per-group ``calibration``) and the loop's parameters.

    Defaults: a fifth of the fleet moves per tick, by 0.05, judged against a
    5-batch window with pressure weights 0.83 / 0.125, every 2 seconds.
    update_fraction and margin of exactly 0 stop the fractional updates but not
    the emergency flush: the run equals the static baseline's only when
    flush_factor is also above any queue length the run can reach.
    """

    kind: str
    initial_threshold: Optional[float] = None
    calibration: Optional[CalibrationSpec] = None
    update_fraction: float = 0.20
    margin: float = 0.05
    window: int = 5
    alpha: float = 0.83
    beta: float = 0.125
    tick_period_ms: float = 2000.0
    flush_factor: float = 2.0
    slo_ms: float = 100.0

    def validate(self) -> None:
        """Raise ConfigError at ``scheduler.<field>`` for the first fault: the kind, a
        tuning value out of range (NaN fails every comparison, so each rule also
        rejects it), then the threshold source."""
        if self.kind not in SCHEDULER_KINDS:
            raise ConfigError("scheduler.kind",
                              f"must be one of {SCHEDULER_KINDS}, got {self.kind!r}")
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
        if (self.initial_threshold is None) == (self.calibration is None):
            raise ConfigError("scheduler",
                              "exactly one of initial_threshold or calibration is required")
        if self.initial_threshold is not None and not 0.0 <= self.initial_threshold <= 1.0:
            raise ConfigError("scheduler.initial_threshold",
                              f"must be in [0, 1], got {self.initial_threshold}")
        if self.calibration is not None:
            self.calibration.validate()


class SchedulerState:
    """Controller state carried across ticks, as arrays in device-id order.

    ``thresholds`` are the values last commanded, ``levels`` the tier levels,
    ``last_update`` the ordinal of each device's last fractional update (-1:
    never) and ``saved`` the thresholds a flush zeroed (None outside a flush).
    """

    __slots__ = ("thresholds", "levels", "last_update", "saved", "tick_ordinal")

    def __init__(self, thresholds, levels):
        self.thresholds = np.array(thresholds, dtype=np.float64)
        self.levels = np.array(levels, dtype=np.int64)
        self.last_update = np.full(self.thresholds.size, -1, dtype=np.int64)
        self.saved: Optional[np.ndarray] = None
        self.tick_ordinal = 0

    @property
    def flush_active(self) -> bool:
        return self.saved is not None


def threshold_change(b_bar: float, queue_length: int, capacity: int,
                     cfg: SchedulerConfig) -> float:
    """Signed threshold change for this tick: -margin, 0, or +margin.

    Lowers thresholds only when both the batch-size average and the queue
    length exceed alpha * capacity; raises them only when both sit at or below
    beta * capacity. Anything in between holds steady.
    """
    high = cfg.alpha * capacity
    low = cfg.beta * capacity
    if b_bar > high and queue_length > high:
        return -cfg.margin
    if b_bar <= low and queue_length <= low:
        return cfg.margin
    return 0.0


def select_update_targets(levels: np.ndarray, last_update: np.ndarray, decrease: bool,
                          cfg: SchedulerConfig) -> np.ndarray:
    """Ids of the ceil(update_fraction * fleet size) devices to update this tick.

    Devices are ordered by tier level (highest first when decreasing, lowest
    first when increasing), then least recently updated first, then ascending
    id (``lexsort`` is stable); the prefix is taken.
    """
    # tiny epsilon so float noise in fraction * count cannot bump the ceiling
    count = ceil(cfg.update_fraction * len(levels) - 1e-9)
    return np.lexsort((last_update, -levels if decrease else levels))[:count]


def scheduler_tick(state: SchedulerState, b_bar: float, queue_length: int, capacity: int,
                   cfg: SchedulerConfig) -> tuple[np.ndarray, str]:
    """One control-loop invocation, mutating ``state``. ``b_bar`` is the mean size of
    the last ``cfg.window`` batches launched (0 before any batch ran).

    Returns the ids of the devices whose commanded threshold changed, in
    delivery order (the new values are ``state.thresholds[ids]``), and the
    tick's reason: "flush_enter", "flush_exit", "decrease", "increase" or
    "hold". Flush entry: queue beyond flush_factor * capacity; every threshold
    is saved and zeroed so no device forwards. Exit: queue back at or below
    beta * capacity; the saved thresholds are restored unchanged. Nothing
    else moves during a flush.
    """
    state.tick_ordinal += 1
    if state.saved is None and queue_length > cfg.flush_factor * capacity:
        state.saved = state.thresholds.copy()
        state.thresholds[:] = 0.0
        return np.arange(state.thresholds.size), "flush_enter"
    if state.saved is not None:
        if queue_length > cfg.beta * capacity:
            return np.arange(0), "hold"
        state.thresholds[:] = state.saved
        state.saved = None
        return np.arange(state.thresholds.size), "flush_exit"

    tc = threshold_change(b_bar, queue_length, capacity, cfg)
    if tc == 0.0:
        return np.arange(0), "hold"
    ids = select_update_targets(state.levels, state.last_update, tc < 0, cfg)
    state.thresholds[ids] = np.clip(state.thresholds[ids] + tc, 0.0, 1.0)
    state.last_update[ids] = state.tick_ordinal
    return ids, "decrease" if tc < 0 else "increase"
