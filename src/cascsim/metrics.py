"""Run evaluation: latency-SLO satisfaction, throughput, accuracy, tier rollups.

A run's per-sample results are held as numpy columns (``SampleColumns``). A run
ends when every sample is final, so the columns hold all of them. The report
counts them per device once, and ``rollup`` turns the counts of a set of
devices (the whole fleet, or one tier) into its figures. Throughput is samples
over the run makespan; satisfaction is the share of samples whose latency fits
the objective.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from typing import Iterator, Optional, Sequence

import numpy as np


class SampleColumns:
    """Finalized samples of a run as numpy columns, one row per sample in decision
    order: the order of the local completions that kept or forwarded them. No
    report field depends on the row order.

    ``latency_ms`` runs from the start of a sample's local inference to its
    final answer: the local completion for a kept sample, the response arrival
    on the device for a served one. Both kinds feed the one
    ``slo_satisfaction`` figure and the per-tier figures.
    """

    __slots__ = ("device_id", "sample_index", "start_ms", "completion_ms", "served",
                 "correct", "latency_ms")

    def __init__(self, device_id, sample_index, start_ms, completion_ms, served, correct,
                 latency_ms):
        self.device_id = np.asarray(device_id, dtype=np.int64)
        self.sample_index = np.asarray(sample_index, dtype=np.int64)
        self.start_ms = np.asarray(start_ms, dtype=np.float64)
        self.completion_ms = np.asarray(completion_ms, dtype=np.float64)
        self.served = np.asarray(served, dtype=bool)
        self.correct = np.asarray(correct, dtype=bool)
        self.latency_ms = np.asarray(latency_ms, dtype=np.float64)

    def __len__(self) -> int:
        return int(self.device_id.size)


def rollup(devices, count: np.ndarray, correct: np.ndarray, within: dict[float, np.ndarray],
           makespan_ms: float) -> dict:
    """Samples, accuracy, throughput and satisfaction of the devices that the numpy
    index ``devices`` selects, from per-device counts: ``count`` samples, ``correct``
    of them answered right and ``within[slo]`` finished within each objective.

    Every device holds a sample and every makespan is positive, so no share divides
    by zero. Throughput is over the run-wide makespan, so the throughputs of the
    tiers sum to the fleet's.
    """
    samples = int(count[devices].sum())
    return {
        "samples": samples,
        "accuracy": int(correct[devices].sum()) / samples,
        "throughput": samples / (makespan_ms / 1000.0),
        "satisfaction": {slo: int(ok[devices].sum()) / samples for slo, ok in within.items()},
    }


@dataclass
class MetricsReport:
    """Everything a single simulation run reports."""

    scheduler_kind: str
    device_count: int
    seed: int
    makespan_ms: float
    total_throughput: float
    cascade_accuracy: float
    device_mean_accuracy: float
    slo_satisfaction: dict[float, float]
    per_tier: dict[str, dict]
    forward_rate: float
    mean_queue_length: float
    arrival_rate: float
    server_throughput: float
    server_state: str
    samples_finalized: int
    samples_local: int
    samples_served: int
    samples_in_flight: int  # always 0, as every run ends with every sample final
    samples: Optional[SampleColumns] = field(default=None, repr=False)
    # read once: newline-terminated pieces of whole lines, which join to the events file
    event_log: Optional[Iterator[str]] = field(default=None, repr=False)

    def to_dict(self) -> dict:
        """Every field but the per-sample columns and the event log."""
        out = {f.name: getattr(self, f.name) for f in fields(self)
               if f.name not in ("samples", "event_log")}
        out["slo_satisfaction"] = {str(k): v for k, v in self.slo_satisfaction.items()}
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)


def mean_report(reports: Sequence[MetricsReport]) -> dict:
    """Average several per-seed reports field by field, nested dicts key by key.

    The run's kind and device count come from the first report, and ``seeds``
    lists every report's seed; the seed, the server state and the local and
    served sample counts are left out. A seed list is never empty, so neither is
    ``reports``.
    """
    def average(values: list):
        if isinstance(values[0], dict):
            return {str(key): average([v[key] for v in values]) for key in values[0]}
        return sum(values) / len(values)

    dicts = [r.to_dict() for r in reports]
    skipped = ("scheduler_kind", "device_count", "seed", "server_state", "samples_local",
               "samples_served")
    out = {key: average([d[key] for d in dicts]) for key in dicts[0] if key not in skipped}
    out.update(scheduler_kind=reports[0].scheduler_kind, device_count=reports[0].device_count,
               seeds=[r.seed for r in reports])
    return out


SWEEP_CSV_HEADER = "devices,seed,scheduler,slo_ms,satisfaction,throughput,accuracy,forward_rate"


def sweep_csv_rows(reports: Sequence[MetricsReport]) -> list[str]:
    """Flatten reports into the sweep CSV row format, one row per (run, SLO)."""
    rows = []
    for r in reports:
        for slo, sat in r.slo_satisfaction.items():
            rows.append(f"{r.device_count},{r.seed},{r.scheduler_kind},{slo!r},"
                        f"{sat!r},{r.total_throughput!r},{r.cascade_accuracy!r},"
                        f"{r.forward_rate!r}")
    return rows
