"""Reference per-event engine: one heap event per sample, processed in (time, sequence) order.

This is the engine cascsim shipped before its epoch-stepped engine, kept
unchanged apart from its imports and four pieces the package no longer has:
the FIFO request queue, the per-device decision counters, the policy object
that binds the control loop to a run (it keeps the window of recent batch sizes
the controller reads) and the per-sample record type (finalized
samples go into one list per ``SampleColumns`` column instead). Its report
counts the run's and each tier's figures one sample at a time, where the
package rolls them up from per-device counts. It also lost the run horizon,
the in-flight counts and the option to leave local inference out of a served
sample's latency: every run ends when every sample is final.
It is the independent oracle the production engine is compared against, the
same role ``compute_capacity_exact`` plays for the greedy capacity solver.
It is slow (one Python call per event) and is never used outside the tests.
"""

from __future__ import annotations

import heapq
import json
from collections import deque
from dataclasses import dataclass
from typing import Optional, Sequence

from cascsim.config import ExperimentConfig
from cascsim.engine import classify_server_state, estimate_arrival_rate
from cascsim.errors import CascSimError, ConfigError
from cascsim.metrics import MetricsReport, SampleColumns
from cascsim.scheduler import TIER_LEVEL, SchedulerState, Tier, scheduler_tick
from cascsim.server import compute_capacity_greedy, select_batch_size
from cascsim.trace import TraceSet

EVENT_DEVICE_SAMPLE_DONE = "device_sample_done"
EVENT_REQUEST_ARRIVAL = "request_arrival"
EVENT_BATCH_COMPLETE = "batch_complete"
EVENT_SCHEDULER_TICK = "scheduler_tick"
EVENT_THRESHOLD_APPLIED = "threshold_applied"
EVENT_RESPONSE_ARRIVAL = "response_arrival"
EVENT_RUN_END = "run_end"


class QueueUnderflowError(CascSimError, RuntimeError):
    """More requests were dequeued than the queue holds."""


class Policy:
    """The control loop bound to one run; the static baseline never moves a threshold."""

    def __init__(self, kind: str, cfg, capacity: int, thresholds: list, levels: list):
        self.adaptive = kind == "multitasc"
        self.cfg = cfg
        self.capacity = capacity
        self.state = SchedulerState(thresholds, levels)
        self.recent_batches: deque[int] = deque(maxlen=cfg.window)

    def record_batch(self, batch_size: int) -> None:
        self.recent_batches.append(batch_size)

    @property
    def b_bar(self) -> float:
        """Mean of the recorded recent batch sizes; 0 before any batch ran."""
        if not self.recent_batches:
            return 0.0
        return sum(self.recent_batches) / len(self.recent_batches)

    def tick(self, queue_length: int, now_ms: float) -> list[tuple[int, float, str]]:
        """(device id, new threshold, reason) of each update, in delivery order."""
        if not self.adaptive:
            return []
        ids, reason = scheduler_tick(self.state, self.b_bar, queue_length, self.capacity,
                                     self.cfg)
        return [(d, v, reason) for d, v in zip(ids.tolist(), self.state.thresholds[ids].tolist())]


@dataclass(frozen=True, slots=True)
class QueuedRequest:
    device_id: int
    sample_index: int
    enqueued_ms: float


class RequestQueue:
    """Strict FIFO queue of forwarded inference requests."""

    __slots__ = ("_pending",)

    def __init__(self):
        self._pending = deque()

    def __len__(self) -> int:
        return len(self._pending)

    def enqueue(self, request: QueuedRequest) -> None:
        self._pending.append(request)

    def dequeue_batch(self, batch_size: int) -> list[QueuedRequest]:
        if batch_size > len(self._pending):
            raise QueueUnderflowError(
                f"dequeue of {batch_size} from queue of {len(self._pending)}")
        return [self._pending.popleft() for _ in range(batch_size)]


@dataclass
class DeviceState:
    """A device's identity plus the per-device counters this engine keeps as it goes."""

    device_id: int
    tier: Tier
    local_latency_ms: float = 0.0
    forward_count: int = 0
    sample_count: int = 0

    @property
    def forward_probability(self) -> float:
        """Empirical forwarding probability observed so far."""
        return self.forward_count / self.sample_count if self.sample_count else 0.0


class _DeviceRuntime:
    """Device-side run state; the applied threshold lags the commanded one by
    the downlink delay."""

    __slots__ = ("state", "trace", "t_inf_ms", "start_offset_ms", "applied_threshold")

    def __init__(self, state: DeviceState, trace: TraceSet, t_inf_ms: float,
                 start_offset_ms: float, threshold: float):
        self.state = state
        self.trace = trace
        self.t_inf_ms = t_inf_ms
        self.start_offset_ms = start_offset_ms
        self.applied_threshold = threshold

    def sample_start(self, index: int) -> float:
        return self.start_offset_ms + index * self.t_inf_ms


class _Run:
    """Single simulation run; mutated only by the event loop."""

    def __init__(self, experiment: ExperimentConfig, traces: dict[int, TraceSet],
                 seed: int, collect_event_log: bool):
        experiment.validate()
        self.experiment = experiment
        self.seed = seed
        self.table = experiment.server_table
        self.network = experiment.network
        self.log: Optional[list[str]] = [] if collect_event_log else None

        initial = experiment.resolve_initial_thresholds()
        group_of = experiment.device_groups()
        n = len(group_of)
        if n == 0:
            raise ConfigError("fleet", "no devices configured")

        self.devices: list[_DeviceRuntime] = []
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
            state = DeviceState(device_id=device_id, tier=group.tier,
                                local_latency_ms=group.t_inf_ms)
            self.devices.append(_DeviceRuntime(state, trace, group.t_inf_ms, offset,
                                               initial[gi]))

        capacity = compute_capacity_greedy(self.table, experiment.scheduler.slo_ms)
        self.policy = Policy(experiment.scheduler.kind, experiment.scheduler,
                             capacity.capacity, [d.applied_threshold for d in self.devices],
                             [TIER_LEVEL[d.state.tier] for d in self.devices])

        self.total_samples = sum(len(d.trace) for d in self.devices)
        self.queue = RequestQueue()
        self.executor_busy = False
        self.heap: list[tuple[float, int, str, tuple]] = []
        self.seq = 0
        self.columns: dict[str, list] = {name: [] for name in SampleColumns.__slots__}
        self.finalized = 0
        self.local_count = 0
        self.served_count = 0
        self.queue_area = 0.0
        self.queue_last_change_ms = 0.0

    # -- event plumbing ----------------------------------------------------

    def schedule(self, time_ms: float, kind: str, data: tuple) -> None:
        self.seq += 1
        heapq.heappush(self.heap, (time_ms, self.seq, kind, data))

    def emit(self, time_ms: float, kind: str, payload: dict) -> None:
        if self.log is not None:
            self.log.append(f"{time_ms!r}\t{kind}\t"
                            f"{json.dumps(payload, sort_keys=True)}")

    def finalize(self, *row) -> None:
        """Record one finalized sample, one value per ``SampleColumns`` column."""
        for name, value in zip(SampleColumns.__slots__, row):
            self.columns[name].append(value)

    def _queue_changed(self, now_ms: float, old_len: int) -> None:
        self.queue_area += old_len * (now_ms - self.queue_last_change_ms)
        self.queue_last_change_ms = now_ms

    # -- handlers ----------------------------------------------------------

    def on_sample_done(self, now: float, device_id: int, index: int) -> None:
        dev = self.devices[device_id]
        score = float(dev.trace.bvsb[index])
        threshold = dev.applied_threshold
        keep_local = score >= threshold
        dev.state.sample_count += 1
        start = dev.sample_start(index)
        if keep_local:
            correct = bool(dev.trace.light_correct[index])
            latency = now - start
            self.finalize(device_id, index, start, now, False, correct, latency)
            self.finalized += 1
            self.local_count += 1
        else:
            dev.state.forward_count += 1
            self.schedule(now + self.network.uplink_ms, EVENT_REQUEST_ARRIVAL,
                          (device_id, index))
        if self.log is not None:
            self.emit(now, EVENT_DEVICE_SAMPLE_DONE,
                      {"device": device_id, "sample": index,
                       "decision": "keep_local" if keep_local else "forward"})
        next_index = index + 1
        if next_index < len(dev.trace):
            # closed form keeps the per-device time grid free of float drift
            self.schedule(dev.sample_start(next_index) + dev.t_inf_ms,
                          EVENT_DEVICE_SAMPLE_DONE, (device_id, next_index))

    def on_request_arrival(self, now: float, device_id: int, index: int) -> None:
        old = len(self.queue)
        self.queue.enqueue(QueuedRequest(device_id, index, now))
        self._queue_changed(now, old)
        if self.log is not None:
            self.emit(now, EVENT_REQUEST_ARRIVAL,
                      {"device": device_id, "sample": index, "queue_len": old + 1})
        self.try_launch(now)

    def try_launch(self, now: float) -> None:
        if self.executor_busy:
            return
        batch_size = select_batch_size(len(self.queue), self.table)
        if batch_size is None:
            return
        old = len(self.queue)
        requests = self.queue.dequeue_batch(batch_size)
        self._queue_changed(now, old)
        self.policy.record_batch(batch_size)
        self.executor_busy = True
        done = now + self.table.entries[batch_size]
        self.schedule(done, EVENT_BATCH_COMPLETE, (requests, batch_size, now))

    def on_batch_complete(self, now: float, requests: list[QueuedRequest],
                          batch_size: int, launched_ms: float) -> None:
        if self.log is not None:
            self.emit(now, EVENT_BATCH_COMPLETE,
                      {"batch_size": batch_size, "launched_ms": launched_ms,
                       "queue_len": len(self.queue),
                       "samples": [[r.device_id, r.sample_index] for r in requests]})
        self.executor_busy = False
        self.schedule(now + self.network.downlink_ms, EVENT_RESPONSE_ARRIVAL,
                      (requests, batch_size))
        self.try_launch(now)

    def on_response_arrival(self, now: float, requests: list[QueuedRequest],
                            batch_size: int) -> None:
        for req in requests:
            dev = self.devices[req.device_id]
            start = dev.sample_start(req.sample_index)
            correct = bool(dev.trace.heavy_correct[req.sample_index])
            latency = now - start
            self.finalize(req.device_id, req.sample_index, start, now, True, correct, latency)
            self.finalized += 1
            self.served_count += 1
        if self.log is not None:
            self.emit(now, EVENT_RESPONSE_ARRIVAL,
                      {"batch_size": batch_size,
                       "samples": [[r.device_id, r.sample_index] for r in requests]})

    def on_scheduler_tick(self, now: float) -> None:
        queue_len = len(self.queue)
        b_bar = self.policy.b_bar
        flush_before = self.policy.state.flush_active
        updates = self.policy.tick(queue_len, now)
        for update in updates:
            self.schedule(now + self.network.downlink_ms, EVENT_THRESHOLD_APPLIED, update)
        if self.log is not None:
            flush_after = self.policy.state.flush_active
            if flush_after and not flush_before:
                flush = "entered"
            elif flush_before and not flush_after:
                flush = "exited"
            elif flush_after:
                flush = "active"
            else:
                flush = "off"
            self.emit(now, EVENT_SCHEDULER_TICK,
                      {"queue_len": queue_len, "b_bar": b_bar,
                       "capacity": self.policy.capacity, "flush": flush,
                       "updates": [list(u) for u in updates]})
        if self.finalized < self.total_samples:
            self.schedule(now + self.policy.cfg.tick_period_ms, EVENT_SCHEDULER_TICK, ())

    def on_threshold_applied(self, now: float, device_id: int,
                             value: float, reason: str) -> None:
        self.devices[device_id].applied_threshold = value
        if self.log is not None:
            self.emit(now, EVENT_THRESHOLD_APPLIED,
                      {"device": device_id, "threshold": value, "reason": reason})

    # -- main loop ---------------------------------------------------------

    def run(self) -> MetricsReport:
        for dev in self.devices:
            self.schedule(dev.start_offset_ms + dev.t_inf_ms,
                          EVENT_DEVICE_SAMPLE_DONE, (dev.state.device_id, 0))
        self.schedule(self.policy.cfg.tick_period_ms, EVENT_SCHEDULER_TICK, ())

        end_time = 0.0
        while self.heap:
            time_ms, _, kind, data = heapq.heappop(self.heap)
            end_time = time_ms
            if kind == EVENT_DEVICE_SAMPLE_DONE:
                self.on_sample_done(time_ms, *data)
            elif kind == EVENT_REQUEST_ARRIVAL:
                self.on_request_arrival(time_ms, *data)
            elif kind == EVENT_BATCH_COMPLETE:
                self.on_batch_complete(time_ms, *data)
            elif kind == EVENT_RESPONSE_ARRIVAL:
                self.on_response_arrival(time_ms, *data)
            elif kind == EVENT_SCHEDULER_TICK:
                self.on_scheduler_tick(time_ms)
            elif kind == EVENT_THRESHOLD_APPLIED:
                self.on_threshold_applied(time_ms, *data)

        return self.build_report(end_time)

    def build_report(self, end_time: float) -> MetricsReport:
        assert self.finalized == self.local_count + self.served_count, \
            "sample conservation violated"

        samples = SampleColumns(**self.columns)
        makespan = max(self.columns["completion_ms"], default=0.0)
        if makespan > self.queue_last_change_ms:
            self.queue_area += len(self.queue) * (makespan - self.queue_last_change_ms)
            self.queue_last_change_ms = makespan

        slos = self.experiment.slos_ms
        cols = self.columns

        def figures(devices) -> dict:
            """Samples, accuracy, throughput and satisfaction of the samples of
            ``devices``, counted one sample at a time."""
            rows = [i for i, d in enumerate(cols["device_id"]) if d in devices]
            count = len(rows)
            return {
                "samples": count,
                "accuracy": sum(1 for i in rows if cols["correct"][i]) / count,
                "throughput": count / (makespan / 1000.0),
                "satisfaction": {float(slo): sum(1 for i in rows if cols["latency_ms"][i] <= slo)
                                 / count for slo in slos},
            }

        totals = figures({d.state.device_id for d in self.devices})
        per_tier = {tier: figures({d.state.device_id for d in self.devices
                                   if d.state.tier.value == tier})
                    for tier in sorted({d.state.tier.value for d in self.devices})}
        fr = sum(1 for served in cols["served"] if served) / len(samples)

        per_device_acc = []
        correct_by_device: dict[int, int] = {}
        count_by_device: dict[int, int] = {}
        for device_id, correct in zip(self.columns["device_id"], self.columns["correct"]):
            count_by_device[device_id] = count_by_device.get(device_id, 0) + 1
            if correct:
                correct_by_device[device_id] = correct_by_device.get(device_id, 0) + 1
        for dev in self.devices:
            did = dev.state.device_id
            if count_by_device.get(did):
                per_device_acc.append(correct_by_device.get(did, 0) / count_by_device[did])

        arrival = estimate_arrival_rate(
            [(d.state.forward_probability, d.t_inf_ms) for d in self.devices])
        peak = self.table.peak_throughput
        mean_queue = self.queue_area / makespan if makespan > 0 else 0.0

        report = MetricsReport(
            scheduler_kind=self.experiment.scheduler.kind,
            device_count=len(self.devices),
            seed=self.seed,
            makespan_ms=makespan,
            total_throughput=totals["throughput"],
            cascade_accuracy=totals["accuracy"],
            device_mean_accuracy=sum(per_device_acc) / len(per_device_acc)
            if per_device_acc else 0.0,
            slo_satisfaction=totals["satisfaction"],
            per_tier=per_tier,
            forward_rate=fr,
            mean_queue_length=mean_queue,
            arrival_rate=arrival,
            server_throughput=peak,
            server_state=classify_server_state(arrival, peak),
            samples_finalized=self.finalized,
            samples_local=self.local_count,
            samples_served=self.served_count,
            samples_in_flight=0,
            samples=samples,
            event_log=self.log,
        )
        if self.log is not None:
            self.emit(end_time, EVENT_RUN_END,
                      {"finalized": self.finalized, "local": self.local_count,
                       "served": self.served_count, "makespan_ms": makespan})
        return report


def run_simulation(experiment: ExperimentConfig, traces: Optional[dict[int, TraceSet]] = None,
                   seed: int = 0, collect_event_log: bool = False) -> MetricsReport:
    """Simulate one full run and return its metrics report.

    traces maps device id to its bound trace; when omitted they are generated
    from the experiment's fleet definition under the given seed. Identical
    (experiment, traces, seed) inputs produce bit-identical output.
    """
    if traces is None:
        traces = experiment.build_traces(seed)
    return _Run(experiment, traces, seed, collect_event_log).run()
