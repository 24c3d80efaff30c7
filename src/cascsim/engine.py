"""Deterministic epoch-stepped engine binding devices, network, server, and scheduler.

Devices run open loop: each starts its next local inference as soon as the
previous one finishes and never blocks on the server. At every local
completion the device's applied threshold decides whether the sample is final
or becomes a server request. The server runs one batch at a time, always
taking the largest batch size covered by its queue. The control loop fires on
a fixed period and its threshold updates reach devices after the downlink delay.

The run is defined as a discrete-event simulation: each event's handler may
schedule (push) further events, and events are processed in order of time,
ties broken by push sequence. The engine computes exactly that run without
stepping through samples one by one:

- A device's decisions depend only on its trace and its applied threshold,
  and thresholds change only when a threshold update is applied. Every local
  completion time has a closed form, ``offset + i*t_inf + t_inf`` with
  ``offset = (device_id / n) * t_inf`` when staggered, so all of them are laid
  out once, in processing order, as numpy columns. They depend on the fleet,
  its traces and the start phase, never on the scheduler, so they form a
  read-only ``DeviceLayout`` that runs of every scheduler on the same fleet
  and seed share.
- The Python loop steps only over the control events (scheduler ticks and
  threshold applications) and the server's batch launches and completions.
  Before each control event, numpy decides every sample that completes ahead
  of it against the thresholds in force and appends the forwarded ones to the
  request stream, arriving at ``completion + uplink``.
- The server's FIFO queue is a range of that stream: a batch completion counts
  the requests that arrived before it with a binary search. The batch size for
  each queue length is looked up in a table built once per run.
- A run ends when every sample is final: each device works through its whole
  trace, the server empties its queue, and the last tick is the first one
  that finds every sample decided, every request launched and every batch's
  response in (its threshold updates still land). Before the loop, the run
  bounds its latest event time from the fleet, network, batch table and tick
  period; a bound that is not finite, or more than ``sys.maxsize`` tick
  periods, is a ``ConfigError``.
- The run records each fact once: the request stream (arrival time, completion
  position); per batch its launch, size, completion, response time and the
  request that launched it, if any; per tick its queue length, ``b_bar``, flush
  state and ``[device, value, reason]`` updates, with one threshold application
  time per update. When the loop ends each record but the ticks' becomes one
  numpy array, which every reader reads as it is. Counts are derived where they
  are read: samples kept are the decided ones less the requests, samples served
  the summed batch sizes.
- Reports are computed from the per-sample columns, one row per sample,
  counted once per device: the run's and each tier's figures come from those
  counts. The event log, when asked for, is streamed after the run from the
  columns and the per-batch and per-tick records, formatted chunk by chunk as
  it is read.

Tie rule. A heap keyed on (time, push counter) processes a run of equal times
as follows: the initial pushes (each device's first completion by device id,
then the first tick) first, by position, and every other event after its
pusher's processing place, by its position among that pusher's pushes.
``processing_order`` applies the rule to whole columns: to every local
completion when the device layout is built, and to every event of a finished
run, from ``_Run.push_table``, when the event log is streamed (in its two steps,
``time_order`` and ``apply_tie_rule``, so the event times are dropped before the
push table is made). It orders every independent run, one where no member's
pusher is in a run of equal times, with one lexsort, and walks only the runs
with a pusher inside a run. Mid-run, the loop walks the rule only at exactly
equal times: when a request arrives at the
instant a batch completes, or a server event falls at the instant of the next
control event. It then decides the tie by walking up both events' pushers while
the times stay equal (``_Run.precedes``). The event log lists the events in that
order, so it is identical to a heap-driven loop's, byte for byte.
"""

from __future__ import annotations

import json
import sys
from bisect import bisect_left
from math import inf, isclose, isfinite
from typing import NamedTuple, Optional, Sequence

import numpy as np

from . import metrics as metrics_mod
from .cascade import forwards
from .config import ExperimentConfig
from .errors import ConfigError, InvariantError
from .metrics import MetricsReport, SampleColumns
from .scheduler import TIER_LEVEL, SchedulerState, scheduler_tick
from .server import compute_capacity_greedy, select_batch_size
from .trace import TraceSet

EVENT_DEVICE_SAMPLE_DONE = "device_sample_done"
EVENT_REQUEST_ARRIVAL = "request_arrival"
EVENT_BATCH_COMPLETE = "batch_complete"
EVENT_SCHEDULER_TICK = "scheduler_tick"
EVENT_THRESHOLD_APPLIED = "threshold_applied"
EVENT_RESPONSE_ARRIVAL = "response_arrival"
EVENT_RUN_END = "run_end"

SERVER_UNDERUTILIZED = "underutilized"
SERVER_EQUILIBRIUM = "equilibrium"
SERVER_OVERLOADED = "overloaded"

# Event streams: local sample completions, request arrivals, batch completions,
# response arrivals, scheduler ticks and threshold applications. An event is
# referenced as (stream, index); within a stream, index order is processing order.
SD, RA, BC, RESP, TICK, TA = range(6)

_COUNT_BLOCK = 1 << 16  # rows per step of a per-device count


class LogEvent(NamedTuple):
    """One parsed event-log line."""

    time_ms: float
    kind: str
    payload: dict


def parse_event_log_line(line: str) -> LogEvent:
    """Parse one exported event-log line (tab-separated time, kind, JSON payload)."""
    time_str, kind, payload = line.split("\t", 2)
    return LogEvent(float(time_str), kind, json.loads(payload))


def estimate_arrival_rate(devices: Sequence[tuple[float, float]]) -> float:
    """Aggregate request rate in requests/s from (forward probability, local
    latency ms) pairs: each device contributes its forwarding share of one
    inference per local-latency interval."""
    total = 0.0
    for p, t_inf_ms in devices:
        total += p / (t_inf_ms / 1000.0)
    return total


def classify_server_state(arrival_rate: float, server_throughput: float) -> str:
    """Compare arrival rate against attainable throughput (1e-9 relative tolerance)."""
    if isclose(arrival_rate, server_throughput, rel_tol=1e-9):
        return SERVER_EQUILIBRIUM
    if arrival_rate < server_throughput:
        return SERVER_UNDERUTILIZED
    return SERVER_OVERLOADED


def check_run_invariants(*, total: int, decided: int, local: int, served: int,
                         batch_sizes: np.ndarray, max_batch: int, latency: dict[int, float],
                         downlink: float, batch_launch: np.ndarray, batch_done: np.ndarray,
                         batch_response: np.ndarray, stream_times: Sequence[np.ndarray],
                         queue_area: float, queue_waits: np.ndarray) -> None:
    """Raise InvariantError unless a finished run is self-consistent.

    Checks sample conservation (every one of the ``total`` samples decided,
    then kept or served), batch sizes within [1, max_batch], one batch at a
    time on the server (each launches no earlier than the previous one
    completes), event times that never decrease along each stream, each batch
    completing exactly ``latency[size]`` after its launch and its response
    arriving exactly ``downlink`` after that (the same float sums the run
    made), no negative queue wait, and Little's identity: the area under the
    queue length curve equals the summed queue waits of the requests (relative
    1e-9).
    """
    if decided != total or local + served != total:
        raise InvariantError(f"sample conservation violated: total {total}, decided "
                             f"{decided}, local {local}, served {served}")
    if batch_sizes.size and (batch_sizes.min() < 1 or batch_sizes.max() > max_batch):
        raise InvariantError(f"batch size outside [1, {max_batch}]: "
                             f"{batch_sizes.min()}..{batch_sizes.max()}")
    if (batch_launch[1:] < batch_done[:-1]).any():
        raise InvariantError("a batch launches before the previous one completes")
    for times in (*stream_times, batch_launch, batch_done):
        if times.size > 1 and not (times[1:] >= times[:-1]).all():
            raise InvariantError("processed event times decrease")
    table = np.full(max(latency) + 1, np.nan)  # a size without a latency matches no time
    table[list(latency)] = list(latency.values())
    if (batch_launch + table[batch_sizes] != batch_done).any():
        raise InvariantError("a batch completes other than latency[size] after its launch")
    if batch_response.shape != batch_done.shape or (batch_done + downlink != batch_response).any():
        raise InvariantError("a batch's response arrives other than downlink after it completes")
    if queue_waits.size and queue_waits.min() < 0:
        raise InvariantError(f"negative queue wait {queue_waits.min()!r}")
    waits = float(queue_waits.sum())
    if not isclose(queue_area, waits, rel_tol=1e-9, abs_tol=1e-9):
        raise InvariantError(f"queue area {queue_area!r} != summed queue waits {waits!r}")


def processing_order(times: np.ndarray, parent: np.ndarray, pos: np.ndarray):
    """Indices of events in processing order, and each event's place in it (the
    inverse permutation): the tie rule for whole columns.

    ``parent[i]`` is the index of the event that pushed event ``i`` (-1 for an
    initial push) and ``pos[i]`` its position among that pusher's pushes (among
    the initial pushes for an initial one); no event is earlier than its pusher.
    Events go by time. Within a run of equal times the initial pushes come
    first, by position; every other event follows its pusher's place, then its
    position. A member whose pusher is in the same run waits until the pusher
    is placed, which needs a zero delay.

    A run is independent when no member's pusher is in any run: the stable sort
    has already given every such pusher its final place, so one lexsort orders
    all independent runs at once. The others are walked one by one, in time order.
    """
    order, place, tied = time_order(times)
    apply_tie_rule(order, place, tied, parent, pos)
    return order, place


def time_order(times: np.ndarray):
    """``processing_order`` before the tie rule: the events by time, equal times in
    index order (a stable sort), each event's place, and which places hold a time
    equal to the place before (``tied[k]``, padded with False at both ends)."""
    n = times.size
    order = np.argsort(times, kind="stable")
    sorted_times = times[order]
    tied = np.concatenate(([False], sorted_times[1:] == sorted_times[:-1], [False]))
    del sorted_times  # the temporaries stay small, as the event log orders every event
    place = np.empty(n, dtype=np.int64)
    place[order] = np.arange(n)
    return order, place, tied


def apply_tie_rule(order: np.ndarray, place: np.ndarray, tied: np.ndarray, parent: np.ndarray,
                   pos: np.ndarray) -> None:
    """Apply the tie rule to ``time_order``'s order and places, in place."""
    n = order.size
    edge = np.flatnonzero(tied[1:] != tied[:-1])  # each run of equal times: lo, then hi - 1
    at = np.flatnonzero(tied[:-1] | tied[1:])  # the places that runs hold, increasing
    run = np.searchsorted(edge[0::2], at, "right")  # each such place's run, from 1
    members = order[at]
    up = parent[members]
    up = np.where(up >= 0, place[up], -1)  # final unless the pusher is in a run
    in_run = np.zeros(n + 1, dtype=bool)  # by place; the initial pushes' pusher, -1, in none
    in_run[at] = True
    dependent = np.bincount(run, in_run[up], minlength=edge.size // 2 + 1) > 0
    del in_run
    free = ~dependent[run]
    free_at, members = at[free], members[free]
    members = members[np.lexsort((pos[members], up[free], run[free]))]
    order[free_at] = members
    place[members] = free_at
    dependent = np.flatnonzero(dependent[1:])
    for lo, hi in zip(edge[2 * dependent].tolist(), (edge[2 * dependent + 1] + 1).tolist()):
        left = order[lo:hi].copy()  # a view would change under the writes below
        place[left] = n  # not placed yet
        while left.size:
            up = parent[left]
            up = np.where(up >= 0, place[up], -1)
            ready = up < n
            members, left = left[ready], left[~ready]
            members = members[np.lexsort((pos[members], up[ready]))]
            order[lo:lo + members.size] = members
            place[members] = np.arange(lo, lo + members.size)
            lo += members.size


class DeviceLayout:
    """The part of a run that no scheduler changes, built once from an experiment
    and the traces bound to its devices.

    It holds each device's local latency ``t_inf``, initial threshold and tier
    level, and every local completion as ``sd_*`` columns in processing order
    (``sd_parent``: the position of the same device's previous completion, -1
    for a first one). Every column is read-only, so one layout can feed any
    number of runs. A run reuses it when its experiment has the same fleet,
    start phase and threshold source (``initial_threshold`` or
    ``calibration``); the scheduler kind and tuning, the server, the network
    and the SLOs may differ. ``memo`` is passed to
    ``resolve_initial_thresholds``.

    The build makes each column device-major, permutes it into processing order
    and drops the device-major one at once; ``sd_index`` and ``sd_parent`` are
    read off the order itself. So no two full sets of columns are ever held, and
    a build peaks at about 1.3x the bytes it keeps.
    """

    def __init__(self, experiment: ExperimentConfig, traces: dict[int, TraceSet],
                 memo: Optional[dict] = None):
        experiment.validate()
        self.source = _layout_source(experiment)
        initial = experiment.resolve_initial_thresholds(memo)
        group_of = experiment.device_groups()
        n = len(group_of)
        self.n_devices = n

        self.t_inf = np.empty(n)
        commanded, levels, lengths, starts, bvsb, light, heavy = [], [], [], [], [], [], []
        for device_id, gi in enumerate(group_of):
            group = experiment.fleet[gi]
            if device_id not in traces:
                raise ConfigError(f"traces[{device_id}]", "no trace bound to this device")
            trace = traces[device_id]
            if len(trace) == 0:
                raise ConfigError(f"fleet[{gi}].trace", "trace is empty")
            if experiment.start_phase == "staggered":
                offset = (device_id / n) * group.t_inf_ms
            else:
                offset = 0.0
            # the last completion as numpy computes it below, first in Python floats,
            # so an overflow is refused instead of warned about
            if not isfinite(offset + (len(trace) - 1) * group.t_inf_ms + group.t_inf_ms):
                raise ConfigError(f"fleet[{gi}].t_inf_ms",
                                  f"{len(trace)} samples of {group.t_inf_ms} ms end past "
                                  "the largest float")
            commanded.append(initial[gi])
            levels.append(TIER_LEVEL[group.tier])
            self.t_inf[device_id] = group.t_inf_ms
            lengths.append(len(trace))
            starts.append(offset + np.arange(len(trace), dtype=np.float64) * group.t_inf_ms)
            bvsb.append(trace.bvsb)
            light.append(trace.light_correct)
            heavy.append(trace.heavy_correct)
        self.initial_thresholds = np.array(commanded, dtype=np.float64)
        self.levels = np.array(levels, dtype=np.int64)

        # device-major columns, each permuted into processing order and dropped at once
        lengths_arr = np.asarray(lengths)
        device = np.repeat(np.arange(n), lengths_arr)
        first = np.concatenate(([0], np.cumsum(lengths_arr)[:-1]))
        start = np.concatenate(starts)
        del starts
        done = start + self.t_inf[device]
        parent = np.arange(-1, device.size - 1)
        parent[first] = -1
        # a completion pushes at most one completion, so only a first completion's
        # position, its device id, ever decides
        order, position = processing_order(done, parent, device)
        del parent
        self.total_samples = int(device.size)
        # a completion's parent is the one before it device-major (a first one has none)
        self.sd_parent = position[order - 1]
        del position
        self.sd_time = done[order]
        del done
        self.sd_start = start[order]
        del start
        self.sd_dev = device[order]
        del device
        self.sd_index = order - first[self.sd_dev]
        self.sd_parent[self.sd_index == 0] = -1
        self.sd_bvsb = np.concatenate(bvsb)[order]
        self.sd_light = np.concatenate(light)[order]
        self.sd_heavy = np.concatenate(heavy)[order]
        for column in (self.t_inf, self.initial_thresholds, self.levels, self.sd_time,
                       self.sd_start, self.sd_dev, self.sd_index, self.sd_bvsb, self.sd_light,
                       self.sd_heavy, self.sd_parent):
            column.setflags(write=False)

    def check(self, experiment: ExperimentConfig) -> None:
        """Raise ConfigError at ``layout`` unless ``experiment`` has what this layout
        was built from."""
        differ = [name for name, value in _layout_source(experiment).items()
                  if value != self.source[name]]
        if differ:
            raise ConfigError("layout", f"was built for another {', '.join(differ)}")


def _layout_source(experiment: ExperimentConfig) -> dict:
    """What a device layout is built from, besides the traces."""
    sched = experiment.scheduler
    return {"fleet": experiment.fleet, "start_phase": experiment.start_phase,
            "initial_threshold": sched.initial_threshold, "calibration": sched.calibration}


def _check_time_bound(experiment: ExperimentConfig, layout: DeviceLayout) -> None:
    """Raise ConfigError unless every event of a run on ``layout`` falls at a finite
    time within ``sys.maxsize`` tick periods, and the queue area stays finite.

    No event is later than the last local completion, plus the uplink, plus the
    largest usable batch latency once per sample (every batch serves at least
    one), plus the downlink to the last response, one tick period to the last
    tick and the downlink again to its threshold applications. The queue area is
    the summed queue waits, each shorter than that bound, of at most one request
    per sample. A finite bound of more than ``sys.maxsize`` tick periods is refused
    at ``scheduler.tick_period_ms``; else a bound that is infinite, or infinite
    once multiplied by the sample count, at the field of its largest term (the
    first of equal ones).
    """
    table, network = experiment.server_table, experiment.network
    period = experiment.scheduler.tick_period_ms
    group = experiment.device_groups()[int(layout.sd_dev[-1])]
    terms = ((float(layout.sd_time[-1]), f"fleet[{group}].t_inf_ms"),
             (network.uplink_ms, "network.uplink_ms"),
             (layout.total_samples * max(table.entries[b] for b in table.effective_sizes),
              "server.batch_latency_table"),
             (2 * network.downlink_ms, "network.downlink_ms"),
             (period, "scheduler.tick_period_ms"))
    bound = sum(term for term, _ in terms)
    if isfinite(bound) and bound / period > sys.maxsize:
        raise ConfigError("scheduler.tick_period_ms",
                          f"{period} ms gives more than sys.maxsize ticks before the run's "
                          f"event-time bound of {bound!r} ms")
    if not isfinite(bound * layout.total_samples):
        term, field = max(terms, key=lambda item: item[0])
        raise ConfigError(field, f"puts an event, or the summed queue waits of "
                                 f"{layout.total_samples} samples, past the largest float "
                                 f"({term!r} ms of the run's event-time bound)")


class _Run:
    """Single simulation run on a device layout: the loop state and the records."""

    def __init__(self, experiment: ExperimentConfig, layout: DeviceLayout, seed: int,
                 collect_event_log: bool):
        _check_time_bound(experiment, layout)
        self.experiment = experiment
        self.layout = layout
        self.seed = seed
        self.table = experiment.server_table
        self.latency = self.table.entries
        self.uplink = experiment.network.uplink_ms
        self.downlink = experiment.network.downlink_ms
        self.collect_event_log = collect_event_log
        self.n_devices = layout.n_devices
        self.total_samples = layout.total_samples

        # control loop: the static baseline keeps the state but never ticks it
        self.sched_cfg = experiment.scheduler
        self.adaptive = self.sched_cfg.kind == "multitasc"
        self.sched_state = SchedulerState(layout.initial_thresholds, layout.levels)
        self.capacity = compute_capacity_greedy(self.table, self.sched_cfg.slo_ms).capacity
        # the batch a queue of each length launches; every longer queue launches the cap's
        self.batch_size = tuple(select_batch_size(q, self.table)
                                for q in range(self.table.max_effective_batch + 1))

        # device side: applied thresholds and the decided prefix of the columns
        self.thresholds = self.sched_state.thresholds.copy()
        self.decided = 0
        self.forward = np.zeros(self.total_samples, dtype=bool)
        # request stream: arrival time and completion position, in processing order
        # (a sample forwards at most once, so every position fits one column)
        self.ra_time: list[float] = []
        self.ra_sd = np.empty(self.total_samples, dtype=np.int64)
        # server: one record per launched batch; the queue is ra[head:arrived]
        self.head = 0
        self.busy = False
        self.bc_time: list[float] = []      # completion time
        self.bc_launch: list[float] = []
        self.bc_size: list[int] = []
        self.bc_from_ra: list[int] = []     # request whose arrival launched it, or -1
        self.resp_time: list[float] = []    # per completed batch
        # control: tick times and records (queue length, b_bar, flush state, updates);
        # one threshold application per [device, value, reason] update
        self.tick_time = [self.sched_cfg.tick_period_ms]
        self.ticks: list[tuple[int, float, str, list]] = []
        self.ta_time: list[float] = []
        self.ta_tick: list[int] = []
        self.ta_applied = 0                 # threshold applications processed
        # every stream's event times, in processing order, indexed by stream
        self.times = (layout.sd_time, self.ra_time, self.bc_time, self.resp_time,
                      self.tick_time, self.ta_time)

    # -- event order ---------------------------------------------------------

    def time_of(self, ref: tuple[int, int]) -> float:
        return float(self.times[ref[0]][ref[1]])

    def _parent(self, ref: tuple[int, int]) -> tuple[Optional[tuple[int, int]], int]:
        """The event that pushed ``ref`` (None for an initial push) and its push position."""
        stream, i = ref
        if stream == SD:
            p = int(self.layout.sd_parent[i])
            if p < 0:
                return None, int(self.layout.sd_dev[i])
            return (SD, p), int(self.forward[p])  # the request, if any, was pushed first
        if stream == RA:
            return (SD, int(self.ra_sd[i])), 0
        if stream == BC:
            r = int(self.bc_from_ra[i])
            return ((RA, r), 0) if r >= 0 else ((BC, i - 1), 1)  # after its response
        if stream == RESP:
            return (BC, i), 0
        if stream == TICK:
            if i == 0:
                return None, self.n_devices
            return (TICK, i - 1), len(self.ticks[i - 1][3])  # after its updates
        k = int(self.ta_tick[i])
        return (TICK, k), i - bisect_left(self.ta_tick, k)

    def push_table(self) -> tuple[np.ndarray, np.ndarray]:
        """``_parent`` for every event of the finished run, the streams concatenated
        in stream order: each event's pusher as a flat index (-1 for an initial
        push) and its push position."""
        layout, counts = self.layout, [times.size for times in self.times]
        base = np.cumsum([0] + counts)
        sd, ra, bc, resp, tick, ta = (slice(a, b) for a, b in zip(base[:-1], base[1:]))
        n_bc, n_tick = counts[BC], counts[TICK]
        # filled stream by stream, so no stream's part is held beside the whole column
        parent = np.empty(base[-1], dtype=np.int64)
        pos = np.zeros(base[-1], dtype=np.int64)
        parent[sd] = layout.sd_parent
        pos[sd] = layout.sd_dev
        np.copyto(pos[sd], self.forward[layout.sd_parent], where=layout.sd_parent >= 0)
        parent[ra] = base[SD] + self.ra_sd
        relaunch = self.bc_from_ra < 0
        parent[bc] = np.where(relaunch, base[BC] + np.arange(n_bc) - 1, base[RA] + self.bc_from_ra)
        pos[bc] = relaunch
        parent[resp] = base[BC] + np.arange(counts[RESP])
        parent[tick] = np.append(-1, base[TICK] + np.arange(n_tick - 1))
        pos[tick] = [self.n_devices] + [len(record[3]) for record in self.ticks[:n_tick - 1]]
        parent[ta] = base[TICK] + self.ta_tick
        pos[ta] = np.arange(counts[TA]) - np.searchsorted(self.ta_tick, self.ta_tick)
        return parent, pos

    def precedes(self, a: tuple[int, int], b: tuple[int, int]) -> bool:
        """Whether event ``a`` is processed before event ``b`` (the tie rule)."""
        while True:
            ta, tb = self.time_of(a), self.time_of(b)
            if ta != tb:
                return ta < tb
            if a[0] == b[0]:
                return a[1] < b[1]
            pa, pos_a = self._parent(a)
            pb, pos_b = self._parent(b)
            if pa == pb:
                return pos_a < pos_b
            if pa is None or pb is None:
                return pa is None
            a, b = pa, pb

    def _count_before(self, stream: int, lo: int, ref: tuple[int, int]) -> int:
        """How many ``stream`` events precede ``ref``, given that the first ``lo`` do."""
        times, t = self.times[stream], self.time_of(ref)
        k = lo if lo == len(times) or times[lo] >= t else bisect_left(times, t, lo)
        while k < len(times) and times[k] == t and self.precedes((stream, k), ref):
            k += 1
        return k

    # -- stepping ------------------------------------------------------------

    def _decide(self, end: int) -> None:
        """Decide the local completions up to position ``end`` with today's thresholds."""
        a = self.decided
        if end <= a:
            return
        layout = self.layout
        forward = forwards(layout.sd_bvsb[a:end], self.thresholds[layout.sd_dev[a:end]])
        self.forward[a:end] = forward
        fwd = np.flatnonzero(forward) + a
        n_ra = len(self.ra_time)
        self.ra_sd[n_ra:n_ra + fwd.size] = fwd
        self.ra_time.extend((layout.sd_time[fwd] + self.uplink).tolist())
        self.decided = end

    def _advance(self, control: Optional[tuple[int, int]]) -> None:
        """Process every device and server event that precedes ``control``
        (None: every event left)."""
        if control is None:
            t_x, end = inf, self.total_samples
        else:
            t_x = self.time_of(control)
            start = int(np.searchsorted(self.layout.sd_time, t_x, "left"))
            self._decide(start)  # the tie rule reads the tied completions' parents' decisions
            end = self._count_before(SD, start, control)
        self._decide(end)

        ra_time, n_ra = self.ra_time, len(self.ra_time)
        bc_time, bc_launch, bc_size, bc_from_ra = (self.bc_time, self.bc_launch, self.bc_size,
                                                   self.bc_from_ra)
        resp_time = self.resp_time
        batch_size, cap, latency = self.batch_size, self.table.max_effective_batch, self.latency
        downlink, precedes = self.downlink, self.precedes
        head, busy = self.head, self.busy
        # t_x is inf without a control event, so only a real tie with it walks the rule
        while True:
            if busy:  # the running batch completes; the queue is ra[head:k]
                t = bc_time[-1]
                if t >= t_x and (t > t_x or not precedes((BC, len(bc_time) - 1), control)):
                    break
                k = bisect_left(ra_time, t, head)
                if k < n_ra and ra_time[k] == t:  # arrivals at this instant: the tie rule
                    k = self._count_before(RA, k, (BC, len(bc_time) - 1))
                resp_time.append(t + downlink)
                if k == head:
                    busy = False
                    continue
                size, from_ra = batch_size[k - head if k - head < cap else cap], -1
            elif head < n_ra:  # an idle server launches the arriving request alone
                t = ra_time[head]
                if t >= t_x and (t > t_x or not precedes((RA, head), control)):
                    break
                size, from_ra = 1, head
            else:
                break
            bc_launch.append(t)
            bc_size.append(size)
            bc_from_ra.append(from_ra)
            bc_time.append(t + latency[size])
            head += size
            busy = True
        self.head, self.busy = head, busy

    def _tick(self, k: int) -> None:
        now = self.tick_time[k]
        queue_len = self._count_before(RA, self.head, (TICK, k)) - self.head
        state = self.sched_state
        recent = self.bc_size[-self.sched_cfg.window:]  # every batch launched before the tick
        b_bar = sum(recent) / len(recent) if recent else 0.0
        ids, reason = (scheduler_tick(state, b_bar, queue_len, self.capacity, self.sched_cfg)
                       if self.adaptive else (np.arange(0), "hold"))
        values = state.thresholds[ids].tolist()
        ids = ids.tolist()
        flush = {"flush_enter": "entered", "flush_exit": "exited"}.get(
            reason, "active" if state.flush_active else "off")
        self.ticks.append((queue_len, b_bar, flush,
                           [[d, v, reason] for d, v in zip(ids, values)]))
        self.ta_time += [now + self.downlink] * len(ids)
        self.ta_tick += [k] * len(ids)
        # the last tick is the first that finds every sample final: all decided, every
        # request launched, and every batch's response (each holds >= 1 sample) in
        if (self.decided < self.total_samples or self.head < len(self.ra_time)
                or self._count_before(RESP, 0, (TICK, k)) < len(self.bc_size)):
            self.tick_time.append(now + self.sched_cfg.tick_period_ms)

    def _apply_thresholds(self) -> None:
        """Apply the updates of the tick whose first threshold application is next."""
        updates = self.ticks[self.ta_tick[self.ta_applied]][3]
        for device, value, _ in updates:
            self.thresholds[device] = value
        self.ta_applied += len(updates)

    # -- main loop -----------------------------------------------------------

    def run(self) -> MetricsReport:
        while True:
            candidates = []
            if len(self.ticks) < len(self.tick_time):
                candidates.append((TICK, len(self.ticks)))
            if self.ta_applied < len(self.ta_time):
                candidates.append((TA, self.ta_applied))
            if len(candidates) == 2 and self.precedes(candidates[1], candidates[0]):
                candidates.reverse()
            if not candidates:
                break
            control = candidates[0]
            self._advance(control)
            if control[0] == TICK:
                self._tick(control[1])
            else:
                self._apply_thresholds()
        self._advance(None)
        # the records, frozen: each list becomes one array, read as it is from here on
        self.ra_sd = self.ra_sd[:len(self.ra_time)].copy()
        for name in ("ra_time", "bc_time", "bc_launch", "resp_time", "tick_time", "ta_time"):
            setattr(self, name, np.array(getattr(self, name), dtype=np.float64))
        for name in ("bc_size", "bc_from_ra", "ta_tick"):
            setattr(self, name, np.array(getattr(self, name), dtype=np.int64))
        self.times = (self.layout.sd_time, self.ra_time, self.bc_time, self.resp_time,
                      self.tick_time, self.ta_time)

        report = self.build_report()
        if self.collect_event_log:
            from .eventlog import rebuild_event_log  # only runs that keep a log need it
            report.event_log = rebuild_event_log(self, report)  # formatted as it is read
        return report

    # -- results -------------------------------------------------------------

    def _samples(self) -> SampleColumns:
        """Every sample in decision (local completion) order."""
        layout = self.layout
        completion = layout.sd_time.copy()
        completion[self.ra_sd] = np.repeat(self.resp_time, self.bc_size)
        correct = np.where(self.forward, layout.sd_heavy, layout.sd_light)
        return SampleColumns(layout.sd_dev, layout.sd_index, layout.sd_start, completion,
                             self.forward, correct, completion - layout.sd_start)

    @staticmethod
    def _queue_area(ra_time: np.ndarray, launch: np.ndarray,
                    sizes: np.ndarray) -> tuple[float, np.ndarray]:
        """Area under the queue-length curve, summed left to right in event order as
        a per-event loop would, and every request's queue wait. The queue is empty
        at the end of a run, so the area ends at the last launch."""
        # both columns are sorted, so after every change time the queue holds the
        # arrivals up to it less the requests launched up to it; a step between equal
        # times adds 0 to the area, so the repeated times change no bit of it
        times = np.concatenate((ra_time, launch))
        times.sort()
        queue = np.searchsorted(ra_time, times[:-1], "right")
        launched = np.searchsorted(launch, times[:-1], "right")
        # each index is in range, so "clip" changes none; it lets take write in place
        np.take(np.cumsum(np.append(0, sizes)), launched, out=launched, mode="clip")
        queue -= launched
        del launched
        steps = np.diff(times)
        del times
        steps *= queue
        del queue
        area = float(np.cumsum(steps, out=steps)[-1]) if steps.size else 0.0
        del steps
        waits = np.repeat(launch, sizes)
        waits -= ra_time
        return area, waits

    def build_report(self) -> MetricsReport:
        experiment = self.experiment
        n = self.n_devices
        cols = self._samples()
        served = int(np.count_nonzero(cols.served))
        local = len(cols) - served

        makespan = float(cols.completion_ms.max())
        queue_area, queue_waits = self._queue_area(self.ra_time, self.bc_launch, self.bc_size)
        check_run_invariants(
            total=self.total_samples, decided=self.decided, local=self.decided - self.ra_sd.size,
            served=int(self.bc_size.sum()), batch_sizes=self.bc_size,
            max_batch=self.table.max_effective_batch, latency=self.latency,
            downlink=self.downlink, batch_launch=self.bc_launch, batch_done=self.bc_time,
            batch_response=self.resp_time, stream_times=self.times,
            queue_area=queue_area, queue_waits=queue_waits)

        # every figure below comes from these per-device counts
        device = cols.device_id
        count = _device_counts(device, n)
        correct = _device_counts(device, n, cols.correct)
        forwarded = _device_counts(device, n, cols.served)
        within = {float(slo): _device_counts(device, n, cols.latency_ms <= slo)
                  for slo in experiment.slos_ms}
        totals = metrics_mod.rollup(slice(None), count, correct, within, makespan)
        levels = self.layout.levels
        per_tier = {tier.value: metrics_mod.rollup(levels == level, count, correct, within,
                                                   makespan)
                    for tier, level in TIER_LEVEL.items() if (levels == level).any()}

        count_by_device = count.tolist()
        per_device_acc = [c / total for c, total in zip(correct.tolist(), count_by_device)]
        arrival = estimate_arrival_rate(
            [(f / d, t) for f, d, t in
             zip(forwarded.tolist(), count_by_device, self.layout.t_inf.tolist())])
        peak = self.table.peak_throughput

        return MetricsReport(
            scheduler_kind=experiment.scheduler.kind,
            device_count=n,
            seed=self.seed,
            makespan_ms=makespan,
            total_throughput=totals["throughput"],
            cascade_accuracy=totals["accuracy"],
            device_mean_accuracy=sum(per_device_acc) / n,
            slo_satisfaction=totals["satisfaction"],
            per_tier=per_tier,
            forward_rate=served / len(cols),
            mean_queue_length=queue_area / makespan,
            arrival_rate=arrival,
            server_throughput=peak,
            server_state=classify_server_state(arrival, peak),
            samples_finalized=len(cols),
            samples_local=local,
            samples_served=served,
            samples_in_flight=0,
            samples=cols,
        )


def _device_counts(device: np.ndarray, n: int, mask: Optional[np.ndarray] = None) -> np.ndarray:
    """How many rows each of ``n`` devices holds (where ``mask`` holds), counted a block
    of rows at a time: the index copies, and the copy ``bincount`` makes of a read-only
    column, stay a block long."""
    count = np.zeros(n, dtype=np.int64)
    for at in range(0, device.size, _COUNT_BLOCK):
        rows = device[at:at + _COUNT_BLOCK]
        count += np.bincount(rows if mask is None else rows[mask[at:at + _COUNT_BLOCK]],
                             minlength=n)
    return count


def run_simulation(experiment: ExperimentConfig, traces: Optional[dict[int, TraceSet]] = None,
                   seed: int = 0, collect_event_log: bool = False,
                   layout: Optional[DeviceLayout] = None) -> MetricsReport:
    """Simulate one full run and return its metrics report.

    traces maps device id to its bound trace; when omitted they are generated
    from the experiment's fleet definition under the given seed. A ``layout``
    built from the same fleet, start phase and threshold source replaces the
    traces (it already holds them), and ``seed`` then only labels the report.
    Identical (experiment, traces, seed) inputs produce bit-identical output,
    with or without a layout.
    """
    if layout is None:
        if traces is None:
            traces = experiment.build_traces(seed)
        layout = DeviceLayout(experiment, traces)
    elif traces is not None:
        raise ConfigError("layout", "cannot be combined with traces, which it already holds")
    else:
        experiment.validate()
        layout.check(experiment)
    return _Run(experiment, layout, seed, collect_event_log).run()
