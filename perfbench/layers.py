"""Which cascsim calls are wrapped in the traced run, and the per-layer metrics made from them.

Span names are ``<module>.<function>``; the module is the layer. The one
private name wrapped is ``engine._Run.build_report``: it is where a run's
report is built, so it counts as report building (``metrics``) and not as
engine self time.
"""

from __future__ import annotations

from typing import Sequence

from spans import self_time, time_in


def _csv_records(tracer, args, trace) -> None:
    tracer.count("trace.csv_records", len(trace))


def _calibrate_call(tracer, args, threshold) -> None:
    tracer.count("cascade.calibrate_calls")


def _engine_run(tracer, args, report) -> None:
    tracer.count("engine.runs")


def _batch(tracer, args, requests) -> None:
    tracer.count("server.batches")


def _tick(tracer, args, updates) -> None:
    tracer.count("scheduler.ticks")
    tracer.count("scheduler.updates", len(updates))
    if any(u.reason == "flush_enter" for u in updates):
        tracer.count("scheduler.flush_entries")


# (span name, module the caller looks the name up in, attribute path[, counter hook])
TARGETS = (
    ("cli.main", "cascsim.cli", "main"),
    ("config.load_config", "cascsim.cli", "load_config"),
    ("config.resolve_initial_thresholds", "cascsim.config",
     "ExperimentConfig.resolve_initial_thresholds"),
    ("config.build_traces", "cascsim.config", "ExperimentConfig.build_traces"),
    ("trace.generate_synthetic_trace", "cascsim.config", "generate_synthetic_trace"),
    ("trace.load_trace_csv", "cascsim.config", "load_trace_csv", _csv_records),
    ("trace.load_trace_csv", "cascsim.cli", "load_trace_csv", _csv_records),
    ("cascade.calibrate_static_threshold", "cascsim.config", "calibrate_static_threshold",
     _calibrate_call),
    ("cascade.calibrate_static_threshold", "cascsim.cli", "calibrate_static_threshold",
     _calibrate_call),
    ("cascade.cascade_accuracy", "cascsim.cli", "cascade_accuracy"),
    ("engine.run_simulation", "cascsim.cli", "run_simulation", _engine_run),
    ("server.compute_capacity_greedy", "cascsim.engine", "compute_capacity_greedy"),
    ("server.select_batch_size", "cascsim.engine", "select_batch_size"),
    ("server.enqueue", "cascsim.server", "RequestQueue.enqueue"),
    ("server.dequeue_batch", "cascsim.server", "RequestQueue.dequeue_batch", _batch),
    ("scheduler.tick", "cascsim.scheduler", "AdaptivePolicy.tick", _tick),
    ("scheduler.tick", "cascsim.scheduler", "StaticPolicy.tick", _tick),
    ("metrics.build_report", "cascsim.engine", "_Run.build_report"),
    ("metrics.slo_satisfaction", "cascsim.metrics", "slo_satisfaction"),
    ("metrics.throughput", "cascsim.metrics", "throughput"),
    ("metrics.accuracy", "cascsim.metrics", "accuracy"),
    ("metrics.forward_rate", "cascsim.metrics", "forward_rate"),
    ("metrics.aggregate_by_tier", "cascsim.metrics", "aggregate_by_tier"),
    ("metrics.to_json", "cascsim.metrics", "MetricsReport.to_json"),
    ("metrics.mean_report", "cascsim.cli", "mean_report"),
    ("metrics.sweep_csv_rows", "cascsim.cli", "sweep_csv_rows"),
)

# per-layer metric -> span names whose covered time it reports
TIMES = {
    "config.load_s": {"config.load_config"},
    "config.thresholds_s": {"config.resolve_initial_thresholds"},
    "trace.generate_s": {"trace.generate_synthetic_trace"},
    "trace.csv_load_s": {"trace.load_trace_csv"},
    "cascade.calibrate_s": {"cascade.calibrate_static_threshold", "cascade.cascade_accuracy"},
    "engine.run_s": {"engine.run_simulation"},
    "scheduler.tick_s": {"scheduler.tick"},
    "server.select_s": {"server.select_batch_size"},
    "server.queue_s": {"server.enqueue", "server.dequeue_batch"},
    "server.capacity_s": {"server.compute_capacity_greedy"},
    "metrics.report_s": {"metrics.build_report", "metrics.slo_satisfaction",
                         "metrics.throughput", "metrics.accuracy", "metrics.forward_rate",
                         "metrics.aggregate_by_tier"},
    "metrics.serialize_s": {"metrics.to_json", "metrics.mean_report", "metrics.sweep_csv_rows"},
}

# per-layer metric -> span whose self time it reports
SELF_TIMES = {
    "engine.self_s": "engine.run_simulation",
    "cli.self_s": "cli.main",
}

COUNTS = ("trace.csv_records", "cascade.calibrate_calls", "engine.runs", "scheduler.ticks",
          "scheduler.updates", "scheduler.flush_entries", "server.batches")


def event_counts(reports: Sequence[dict], counters: dict) -> dict[str, int]:
    """Engine events by kind, derived from the report counts of one body and its counted calls.

    Every sample is decided once; every forwarded one arrives at the server;
    every batch completes and its response arrives; every tick update is
    applied once (runs here have no horizon, so nothing is cut off).
    """
    decided = sum(r["samples_finalized"] + r["samples_in_flight"] for r in reports)
    forwarded = sum(r["samples_served"] + r["samples_in_flight"] for r in reports)
    batches = int(counters.get("server.batches", 0))
    return {
        "sample_done": decided,
        "request_arrival": forwarded,
        "batch_complete": batches,
        "response_arrival": batches,
        "scheduler_tick": int(counters.get("scheduler.ticks", 0)),
        "threshold_applied": int(counters.get("scheduler.updates", 0)),
    }


def body_metrics(spans: Sequence[tuple], counters: dict, reports: Sequence[dict],
                 max_effective_batch: int, bytes_written: int) -> dict[str, float]:
    """Per-layer metrics of one traced workload body."""
    out: dict[str, float] = {name: time_in(spans, names) for name, names in TIMES.items()}
    out.update({name: self_time(spans, span) for name, span in SELF_TIMES.items()})
    out.update({name: counters.get(name, 0) for name in COUNTS})
    events = sum(event_counts(reports, counters).values())
    out["engine.events"] = events
    out["engine.events_per_s"] = events / out["engine.run_s"] if out["engine.run_s"] else 0.0
    served = sum(r["samples_served"] for r in reports)
    batches = out["server.batches"]
    out["server.batch_fill"] = served / (batches * max_effective_batch) if batches else 0.0
    out["cli.bytes_written"] = bytes_written
    return out


UNITS = {
    "trace.csv_records": "count", "cascade.calibrate_calls": "count", "engine.runs": "count",
    "engine.events": "count", "engine.events_per_s": "1/s", "scheduler.ticks": "count",
    "scheduler.updates": "count", "scheduler.flush_entries": "count",
    "server.batches": "count", "server.batch_fill": "ratio", "cli.bytes_written": "bytes",
}


def unit(metric: str) -> str:
    return UNITS.get(metric, "s")
