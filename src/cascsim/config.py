"""Experiment configuration: JSON schema, validation, trace binding, presets.

A config is a single JSON document describing the device fleet, the server's
batch-latency profile, the scheduler, the network delays, and the reporting
SLOs. Shipped presets anchor device latencies and batch-1 server latencies to
published profiles; every larger-batch latency is a synthetic estimate (shaped
to keep batch throughput non-decreasing) and is labeled as such inside the
preset files.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from importlib import resources
from math import isfinite
from pathlib import Path
from typing import Optional, Union

from .cascade import Threshold, calibrate_static_threshold
from .errors import ConfigError
from .scheduler import SchedulerConfig, Tier
from .server import BatchLatencyTable
from .trace import SyntheticTraceParams, TraceSet, generate_synthetic_trace, load_trace_csv

SCHEDULER_KINDS = ("multitasc", "static")
START_PHASES = ("staggered", "aligned")


@dataclass(frozen=True)
class NetworkModel:
    """Parametric transport delays replacing a real message broker."""

    uplink_ms: float = 5.0
    downlink_ms: float = 5.0

    def validate(self) -> None:
        for name in ("uplink_ms", "downlink_ms"):
            value = getattr(self, name)
            if not (isfinite(value) and value >= 0):
                raise ConfigError(f"network.{name}",
                                  f"must be finite and non-negative, got {value}")


@dataclass(frozen=True)
class CalibrationSpec:
    """How to derive the initial threshold from a held-out calibration trace."""

    target_forward_rate: float = 0.30
    accuracy_tolerance: float = 0.01
    count: int = 10_000
    seed: int = 90210


@dataclass(frozen=True)
class FleetGroup:
    """A block of identical devices: same tier, local latency, and trace source."""

    tier: Tier
    count: int
    t_inf_ms: float
    synthetic: Optional[SyntheticTraceParams] = None
    trace_csv: Optional[str] = None
    model: str = ""

    def validate(self, path: str) -> None:
        if self.count < 1:
            raise ConfigError(f"{path}.count", f"must be >= 1, got {self.count}")
        if not (isfinite(self.t_inf_ms) and self.t_inf_ms > 0):
            raise ConfigError(f"{path}.t_inf_ms",
                              f"must be finite and positive, got {self.t_inf_ms}")
        if (self.synthetic is None) == (self.trace_csv is None):
            raise ConfigError(f"{path}.trace",
                              "exactly one of synthetic params or a csv path is required")
        if self.synthetic is not None:
            try:
                self.synthetic.validate()
            except Exception as exc:
                raise ConfigError(f"{path}.trace.synthetic", str(exc)) from None


@dataclass(frozen=True)
class SchedulerSpec:
    kind: str
    config: SchedulerConfig
    initial_threshold: Optional[float] = None
    calibration: Optional[CalibrationSpec] = None

    def validate(self) -> None:
        if self.kind not in SCHEDULER_KINDS:
            raise ConfigError("scheduler.kind",
                              f"must be one of {SCHEDULER_KINDS}, got {self.kind!r}")
        for name in ("update_fraction", "margin", "alpha", "beta", "tick_period_ms",
                     "flush_factor", "slo_ms"):
            value = getattr(self.config, name)
            if not isfinite(value):
                raise ConfigError(f"scheduler.{name}", f"must be finite, got {value}")
        try:
            self.config.validate()
        except Exception as exc:
            raise ConfigError("scheduler", str(exc)) from None
        if (self.initial_threshold is None) == (self.calibration is None):
            raise ConfigError("scheduler",
                              "exactly one of initial_threshold or calibration is required")
        if self.initial_threshold is not None and not 0.0 <= self.initial_threshold <= 1.0:
            raise ConfigError("scheduler.initial_threshold",
                              f"must be in [0, 1], got {self.initial_threshold}")


@dataclass(frozen=True)
class ExperimentConfig:
    fleet: tuple[FleetGroup, ...]
    server_table: BatchLatencyTable
    scheduler: SchedulerSpec
    network: NetworkModel = NetworkModel()
    slos_ms: tuple[float, ...] = (100.0, 200.0)
    seeds: tuple[int, ...] = (1, 2, 3)
    start_phase: str = "staggered"
    horizon_ms: Optional[float] = None
    include_local_in_latency: bool = True
    server_model: str = ""
    name: str = ""

    def validate(self) -> None:
        if not self.fleet:
            raise ConfigError("fleet", "must contain at least one device group")
        for i, group in enumerate(self.fleet):
            group.validate(f"fleet[{i}]")
        if not self.slos_ms or any(not (isfinite(s) and s > 0) for s in self.slos_ms):
            raise ConfigError("slos_ms", "must be a non-empty list of finite positive values")
        self.scheduler.validate()
        self.network.validate()
        if not self.seeds or any((not isinstance(s, int)) or s < 0 for s in self.seeds):
            raise ConfigError("seeds", "must be a non-empty list of non-negative integers")
        if self.start_phase not in START_PHASES:
            raise ConfigError("sim.start_phase",
                              f"must be one of {START_PHASES}, got {self.start_phase!r}")
        if self.horizon_ms is not None and not (isfinite(self.horizon_ms)
                                                and self.horizon_ms > 0):
            raise ConfigError("sim.horizon_ms",
                              f"must be finite and positive when set, got {self.horizon_ms}")

    @property
    def total_devices(self) -> int:
        return sum(g.count for g in self.fleet)

    def with_device_count(self, devices: int) -> "ExperimentConfig":
        """Rescale the fleet to a total device count, split equally across groups."""
        groups = len(self.fleet)
        if devices < 1:
            raise ConfigError("devices", f"must be >= 1, got {devices}")
        if devices % groups != 0:
            raise ConfigError(
                "devices",
                f"count {devices} is not divisible by the {groups} fleet groups")
        per_group = devices // groups
        return replace(self, fleet=tuple(replace(g, count=per_group) for g in self.fleet))

    def device_groups(self) -> list[int]:
        """Group index of every device; device ids are consecutive from 0."""
        out = []
        for gi, group in enumerate(self.fleet):
            out.extend([gi] * group.count)
        return out

    def build_traces(self, seed: int) -> dict[int, TraceSet]:
        """Bind a trace to every device id for one run seed.

        Synthetic groups draw an independent trace per device, keyed by
        (seed, device id); csv groups share the loaded file."""
        traces: dict[int, TraceSet] = {}
        device_id = 0
        for group in self.fleet:
            csv_trace = load_trace_csv(group.trace_csv) if group.trace_csv else None
            for _ in range(group.count):
                if csv_trace is not None:
                    traces[device_id] = csv_trace
                else:
                    traces[device_id] = generate_synthetic_trace(
                        group.synthetic, [seed, device_id],
                        light_model_name=group.model or "synthetic-light",
                        heavy_model_name=self.server_model or "synthetic-heavy")
                device_id += 1
        return traces

    def resolve_initial_thresholds(self) -> list[Threshold]:
        """Initial threshold for each fleet group.

        A fixed value applies to every group; otherwise each group is
        calibrated on its own held-out trace (a synthetic draw from the
        group's parameters under the calibration seed, or the csv itself)."""
        spec = self.scheduler
        if spec.initial_threshold is not None:
            return [Threshold(spec.initial_threshold)] * len(self.fleet)
        calib = spec.calibration
        thresholds = []
        for gi, group in enumerate(self.fleet):
            if group.trace_csv is not None:
                trace = load_trace_csv(group.trace_csv)
            else:
                params = replace(group.synthetic, count=calib.count)
                trace = generate_synthetic_trace(params, [calib.seed, gi])
            thresholds.append(calibrate_static_threshold(
                trace, calib.target_forward_rate, calib.accuracy_tolerance))
        return thresholds

    def to_dict(self) -> dict:
        doc = {
            "name": self.name,
            "fleet": [],
            "server": {
                "model": self.server_model,
                "batch_latency_table": self.server_table.to_dict(),
                "max_effective_batch": self.server_table.max_effective_batch,
            },
            "scheduler": self._scheduler_dict(),
            "network": {"uplink_ms": self.network.uplink_ms,
                        "downlink_ms": self.network.downlink_ms},
            "slos_ms": list(self.slos_ms),
            "seeds": list(self.seeds),
            "sim": {"start_phase": self.start_phase,
                    "horizon_ms": self.horizon_ms,
                    "include_local_in_latency": self.include_local_in_latency},
        }
        for group in self.fleet:
            g: dict = {"tier": group.tier.value, "count": group.count,
                       "t_inf_ms": group.t_inf_ms, "model": group.model}
            if group.synthetic is not None:
                p = group.synthetic
                g["trace"] = {"synthetic": {
                    "light_accuracy": p.light_accuracy,
                    "heavy_accuracy_given_light_correct": p.heavy_accuracy_given_light_correct,
                    "heavy_accuracy_given_light_wrong": p.heavy_accuracy_given_light_wrong,
                    "bvsb_shape_correct": list(p.bvsb_shape_correct),
                    "bvsb_shape_wrong": list(p.bvsb_shape_wrong),
                    "count": p.count,
                }}
            else:
                g["trace"] = {"csv": group.trace_csv}
            doc["fleet"].append(g)
        return doc

    def _scheduler_dict(self) -> dict:
        cfg = self.scheduler.config
        doc = {
            "kind": self.scheduler.kind,
            "update_fraction": cfg.update_fraction,
            "margin": cfg.margin,
            "window": cfg.window,
            "alpha": cfg.alpha,
            "beta": cfg.beta,
            "tick_period_ms": cfg.tick_period_ms,
            "flush_factor": cfg.flush_factor,
            "slo_ms": cfg.slo_ms,
        }
        if self.scheduler.initial_threshold is not None:
            doc["initial_threshold"] = self.scheduler.initial_threshold
        else:
            c = self.scheduler.calibration
            doc["calibration"] = {"target_forward_rate": c.target_forward_rate,
                                  "accuracy_tolerance": c.accuracy_tolerance,
                                  "count": c.count, "seed": c.seed}
        return doc

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)


def _require(doc: dict, key: str, path: str):
    if key not in doc:
        raise ConfigError(f"{path}.{key}" if path else key, "required field missing")
    return doc[key]


def _tier(raw: str, path: str) -> Tier:
    try:
        return Tier(raw)
    except ValueError:
        raise ConfigError(path, f"unknown tier {raw!r}") from None


def config_from_dict(doc: dict) -> ExperimentConfig:
    """Parse and validate a config document; raises ConfigError with a field path."""
    if not isinstance(doc, dict):
        raise ConfigError("", "config must be a JSON object")

    fleet = []
    raw_fleet = _require(doc, "fleet", "")
    if not isinstance(raw_fleet, list) or not raw_fleet:
        raise ConfigError("fleet", "must be a non-empty list")
    for i, raw in enumerate(raw_fleet):
        path = f"fleet[{i}]"
        trace_doc = _require(raw, "trace", path)
        synthetic = None
        trace_csv = None
        if "synthetic" in trace_doc:
            s = trace_doc["synthetic"]
            try:
                synthetic = SyntheticTraceParams(
                    light_accuracy=_require(s, "light_accuracy", f"{path}.trace.synthetic"),
                    heavy_accuracy_given_light_correct=_require(
                        s, "heavy_accuracy_given_light_correct", f"{path}.trace.synthetic"),
                    heavy_accuracy_given_light_wrong=_require(
                        s, "heavy_accuracy_given_light_wrong", f"{path}.trace.synthetic"),
                    bvsb_shape_correct=tuple(s.get("bvsb_shape_correct", (5.0, 1.0))),
                    bvsb_shape_wrong=tuple(s.get("bvsb_shape_wrong", (1.2, 3.0))),
                    count=int(s.get("count", 5000)),
                )
            except ConfigError:
                raise
            except Exception as exc:
                raise ConfigError(f"{path}.trace.synthetic", str(exc)) from None
        elif "csv" in trace_doc:
            trace_csv = str(trace_doc["csv"])
        else:
            raise ConfigError(f"{path}.trace", "needs a 'synthetic' or 'csv' entry")
        fleet.append(FleetGroup(
            tier=_tier(_require(raw, "tier", path), f"{path}.tier"),
            count=int(_require(raw, "count", path)),
            t_inf_ms=float(_require(raw, "t_inf_ms", path)),
            synthetic=synthetic,
            trace_csv=trace_csv,
            model=str(raw.get("model", "")),
        ))

    server_doc = _require(doc, "server", "")
    table_doc = _require(server_doc, "batch_latency_table", "server")
    try:
        table = BatchLatencyTable(table_doc, server_doc.get("max_effective_batch"))
    except Exception as exc:
        raise ConfigError("server.batch_latency_table", str(exc)) from None

    sched_doc = _require(doc, "scheduler", "")
    kind = _require(sched_doc, "kind", "scheduler")
    slos = tuple(float(s) for s in doc.get("slos_ms", (100.0, 200.0)))
    sched_cfg = SchedulerConfig(
        update_fraction=float(sched_doc.get("update_fraction", 0.20)),
        margin=float(sched_doc.get("margin", 0.05)),
        window=int(sched_doc.get("window", 5)),
        alpha=float(sched_doc.get("alpha", 0.83)),
        beta=float(sched_doc.get("beta", 0.125)),
        tick_period_ms=float(sched_doc.get("tick_period_ms", 2000.0)),
        flush_factor=float(sched_doc.get("flush_factor", 2.0)),
        slo_ms=float(sched_doc.get("slo_ms", min(slos) if slos else 100.0)),
    )
    calibration = None
    initial = sched_doc.get("initial_threshold")
    if "calibration" in sched_doc:
        c = sched_doc["calibration"]
        calibration = CalibrationSpec(
            target_forward_rate=float(c.get("target_forward_rate", 0.30)),
            accuracy_tolerance=float(c.get("accuracy_tolerance", 0.01)),
            count=int(c.get("count", 10_000)),
            seed=int(c.get("seed", 90210)),
        )
    scheduler = SchedulerSpec(kind=kind, config=sched_cfg,
                              initial_threshold=None if initial is None else float(initial),
                              calibration=calibration)

    net_doc = doc.get("network", {})
    network = NetworkModel(uplink_ms=float(net_doc.get("uplink_ms", 5.0)),
                           downlink_ms=float(net_doc.get("downlink_ms", 5.0)))

    sim_doc = doc.get("sim", {})
    horizon = sim_doc.get("horizon_ms")
    config = ExperimentConfig(
        fleet=tuple(fleet),
        server_table=table,
        scheduler=scheduler,
        network=network,
        slos_ms=slos,
        seeds=tuple(int(s) for s in doc.get("seeds", (1, 2, 3))),
        start_phase=str(sim_doc.get("start_phase", "staggered")),
        horizon_ms=None if horizon is None else float(horizon),
        include_local_in_latency=bool(sim_doc.get("include_local_in_latency", True)),
        server_model=str(server_doc.get("model", "")),
        name=str(doc.get("name", "")),
    )
    config.validate()
    return config


def preset_names() -> list[str]:
    files = resources.files("cascsim").joinpath("presets")
    return sorted(p.name[:-5] for p in files.iterdir() if p.name.endswith(".json"))


def load_config(source: Union[str, Path, dict]) -> ExperimentConfig:
    """Load a config from a dict, a JSON file path, or a shipped preset name."""
    if isinstance(source, dict):
        return config_from_dict(source)
    path = Path(source)
    if path.suffix == ".json" and path.exists():
        try:
            doc = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ConfigError(str(path), f"invalid JSON: {exc}") from None
        return config_from_dict(doc)
    preset = resources.files("cascsim").joinpath("presets").joinpath(f"{source}.json")
    if preset.is_file():
        return config_from_dict(json.loads(preset.read_text(encoding="utf-8")))
    raise ConfigError(str(source), "no such config file or preset "
                      f"(known presets: {', '.join(preset_names())})")
