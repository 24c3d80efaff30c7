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
import sys
from dataclasses import MISSING, dataclass, fields, is_dataclass, replace
from enum import Enum
from importlib import resources
from math import isfinite
from pathlib import Path
from typing import Optional, Union

from .cascade import CalibrationSpec, calibrate_static_threshold
from .errors import ConfigError
from .scheduler import SchedulerConfig, Tier
from .server import BATCH_POOL, BatchLatencyTable
from .trace import SyntheticTraceParams, TraceSet, generate_synthetic_trace, load_trace_csv

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
class FleetGroup:
    """A block of identical devices: same tier, local latency, and trace source."""

    tier: Tier
    count: int
    t_inf_ms: float
    synthetic: Optional[SyntheticTraceParams] = None
    trace_csv: Optional[str] = None
    model: str = ""

    def validate(self, path: str) -> None:
        if not 1 <= self.count <= sys.maxsize:
            raise ConfigError(f"{path}.count", f"must be in [1, {sys.maxsize}], got {self.count}")
        if not (isfinite(self.t_inf_ms) and self.t_inf_ms > 0):
            raise ConfigError(f"{path}.t_inf_ms",
                              f"must be finite and positive, got {self.t_inf_ms}")
        if (self.synthetic is None) == (self.trace_csv is None):
            raise ConfigError(f"{path}.trace",
                              "exactly one of synthetic params or a csv path is required")
        if self.trace_csv is not None and "\0" in self.trace_csv:  # no file name holds one
            raise ConfigError(f"{path}.trace.csv", "must not contain a NUL character")
        if self.synthetic is not None:
            self.synthetic.validate(f"{path}.trace.synthetic")


@dataclass(frozen=True)
class ExperimentConfig:
    fleet: tuple[FleetGroup, ...]
    server_table: BatchLatencyTable
    scheduler: SchedulerConfig
    network: NetworkModel = NetworkModel()
    slos_ms: tuple[float, ...] = (100.0, 200.0)
    seeds: tuple[int, ...] = (1, 2, 3)
    start_phase: str = "staggered"
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

    def with_device_count(self, devices: int) -> "ExperimentConfig":
        """Rescale the fleet to a total device count, split equally across groups.

        Errors name ``--devices``, the CLI flag that sets the count."""
        groups = len(self.fleet)
        if not 1 <= devices <= sys.maxsize:  # no fleet holds more devices
            raise ConfigError("--devices", f"must be in [1, {sys.maxsize}], got {devices}")
        if devices % groups != 0:
            raise ConfigError(
                "--devices",
                f"count {devices} is not divisible by the {groups} fleet groups")
        per_group = devices // groups
        return replace(self, fleet=tuple(replace(g, count=per_group) for g in self.fleet))

    def device_groups(self) -> list[int]:
        """Group index of every device; device ids are consecutive from 0."""
        out = []
        for gi, group in enumerate(self.fleet):
            out.extend([gi] * group.count)
        return out

    def build_traces(self, seed: int, memo: Optional[dict] = None) -> dict[int, TraceSet]:
        """Bind a trace to every device id for one run seed.

        Synthetic groups draw an independent trace per device, keyed by
        (seed, device id); csv groups share the loaded file. A caller-owned
        ``memo`` keeps each trace for later calls: a synthetic one in
        ``memo[seed]`` under (params, device id), a csv one under its resolved path."""
        traces: dict[int, TraceSet] = {}
        drawn = None if memo is None else memo.setdefault(seed, {})
        device_id = 0
        for gi, group in enumerate(self.fleet):
            csv_trace = _csv_trace(group, gi, memo) if group.trace_csv else None
            for _ in range(group.count):
                if csv_trace is not None:
                    traces[device_id] = csv_trace
                else:
                    traces[device_id] = _memoized(
                        drawn, (group.synthetic, device_id),
                        lambda: _draw(group.synthetic, [seed, device_id],
                                      f"fleet[{gi}].trace.synthetic.count"))
                device_id += 1
        return traces

    def resolve_initial_thresholds(self, memo: Optional[dict] = None) -> list[float]:
        """Initial threshold for each fleet group.

        A fixed value applies to every group; otherwise each group is
        calibrated on its own held-out trace (a synthetic draw from the
        group's parameters under the calibration seed, or the csv itself).
        A caller-owned ``memo`` keeps each group's calibrated threshold, and
        its csv trace, for later calls."""
        if self.scheduler.initial_threshold is not None:
            return [float(self.scheduler.initial_threshold)] * len(self.fleet)
        calib = self.scheduler.calibration

        def calibrate(gi: int, group: FleetGroup) -> float:
            if group.trace_csv is not None:
                trace = _csv_trace(group, gi, memo)
            else:
                params = replace(group.synthetic, count=calib.count)
                trace = _draw(params, [calib.seed, gi], "scheduler.calibration.count")
            return calibrate_static_threshold(trace, calib.target_forward_rate,
                                              calib.accuracy_tolerance).value

        return [_memoized(memo, (calib, group.synthetic, group.trace_csv, gi),
                          lambda: calibrate(gi, group))
                for gi, group in enumerate(self.fleet)]


def _draw(params: SyntheticTraceParams, seed: list[int], field: str) -> TraceSet:
    """A synthetic trace, or a ConfigError at ``field`` when its columns cannot be allocated."""
    try:
        return generate_synthetic_trace(params, seed)
    except MemoryError:
        raise ConfigError(field, f"{params.count} samples are too many to allocate") from None


def _memoized(memo: Optional[dict], key, make):
    """``memo[key]``, made by ``make()`` on first use; always ``make()`` without a memo."""
    if memo is None:
        return make()
    if key not in memo:
        memo[key] = make()
    return memo[key]


def _csv_trace(group: FleetGroup, gi: int, memo: Optional[dict]) -> TraceSet:
    """The group's csv trace, kept in ``memo`` under its resolved path (inline csv
    text, which holds a newline, under the text itself)."""
    source = group.trace_csv

    def load() -> TraceSet:
        return load_trace_csv(source, f"fleet[{gi}].trace.csv")

    if memo is None:
        return load()
    return _memoized(memo, source if "\n" in source else str(Path(source).resolve()), load)


def _keys(*same: str, **renamed: str) -> dict[str, str]:
    return {**{name: name for name in same}, **renamed}


# Where each dataclass field sits in its section of the document: JSON key -> field.
_TOP_KEYS = _keys("name", "network", "slos_ms", "seeds")
_SECTIONS = ("_notes", "fleet", "server", "scheduler", "sim")
_SERVER_KEYS = _keys(model="server_model")
_SIM_KEYS = _keys("start_phase")
_GROUP_KEYS = _keys("tier", "count", "t_inf_ms", "model")
_TRACE_KEYS = _keys("synthetic", csv="trace_csv")
_JSON_TYPES = {float: "number", int: "integer", str: "string", bool: "boolean"}
# The types a field read from the document may have, by the name its annotation uses.
_FIELD_TYPES = {t.__name__: t for t in (float, int, str, bool, Tier, NetworkModel,
                                         SyntheticTraceParams, CalibrationSpec)}


def _schema(cls) -> dict[str, tuple[str, bool]]:
    """Each field of dataclass ``cls``: its annotation and whether it is required.

    Annotations are strings (postponed evaluation) and are read as such:
    evaluating them would leave the classes in typing's caches, which keeps
    every earlier copy alive when the package is imported again.
    """
    return {f.name: (f.type, f.default is MISSING and f.default_factory is MISSING)
            for f in fields(cls)}


def _join(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _require(doc: dict, key: str, path: str):
    if key not in doc:
        raise ConfigError(_join(path, key), "required field missing")
    return doc[key]


def _read(cls, doc, path: str, keys: Optional[dict[str, str]] = None, extra=(),
          **computed) -> dict:
    """Keyword arguments for dataclass ``cls`` from the JSON object ``doc`` at ``path``.

    ``keys`` maps JSON keys to fields (default: every field under its own
    name); any other key not in ``extra`` is rejected. An absent key takes its
    ``computed`` default if given, else the field default, else is reported
    missing. Every value is checked against the field's annotation.
    """
    if not isinstance(doc, dict):
        raise ConfigError(path, f"must be a JSON object, got {doc!r}")
    schema = _schema(cls)
    keys = keys or {name: name for name in schema}
    for key in doc:
        if key not in keys and key not in extra:
            raise ConfigError(_join(path, key), "unknown field")
    out = {}
    for key, name in keys.items():
        annotation, required = schema[name]
        if key in doc:
            out[name] = _value(annotation, doc[key], _join(path, key))
        elif name in computed:
            out[name] = computed[name]
        elif required:
            raise ConfigError(_join(path, key), "required field missing")
    return out


def _value(annotation: str, value, path: str):
    """``value`` checked against a field annotation and converted to its type."""
    if annotation.startswith("Optional["):
        return None if value is None else _value(annotation[9:-1], value, path)
    if annotation.startswith("tuple["):  # tuple[X, ...] or tuple[X, X]
        if not isinstance(value, (list, tuple)):
            raise ConfigError(path, f"must be a list, got {value!r}")
        item = annotation[6:-1].split(",")[0]
        return tuple(_value(item, v, f"{path}[{i}]") for i, v in enumerate(value))
    kind = _FIELD_TYPES[annotation]
    if is_dataclass(kind):
        return kind(**_read(kind, value, path))
    if issubclass(kind, Enum):
        try:
            return kind(value)
        except (ValueError, TypeError):
            raise ConfigError(path, f"unknown {annotation.lower()} {value!r}") from None
    number = kind is float and isinstance(value, (int, float))
    if isinstance(value, bool) != (kind is bool) or not (number or isinstance(value, kind)):
        raise ConfigError(path, f"must be a JSON {_JSON_TYPES[kind]}, got {value!r}")
    if kind is float:
        try:
            return float(value)
        except OverflowError:
            raise ConfigError(path, "is too large for a float") from None
    return value


def read_batch_table(entries, max_effective_batch, path: str = "server.batch_latency_table",
                     max_path: str = "server.max_effective_batch") -> BatchLatencyTable:
    """A batch-latency table from its JSON object (batch size keys, latency values)
    and its cap, every value read by the strict field reader."""
    if not isinstance(entries, dict):
        raise ConfigError(path, f"must be a JSON object, got {entries!r}")
    sizes = {str(b): b for b in BATCH_POOL}  # any other key fails the table's pool check
    latencies = {sizes.get(k, k): _value("float", v, _join(path, k)) for k, v in entries.items()}
    return BatchLatencyTable(latencies, _value("Optional[int]", max_effective_batch, max_path),
                             path, max_path)


def _fleet_group(raw, path: str) -> FleetGroup:
    group = _read(FleetGroup, raw, path, _GROUP_KEYS, extra=("trace",))
    trace = _read(FleetGroup, raw.get("trace", {}), f"{path}.trace", _TRACE_KEYS)
    return FleetGroup(**group, **trace)


def config_from_dict(doc: dict) -> ExperimentConfig:
    """Parse and validate a config document; raises ConfigError with a field path.

    Each section is read by the fields of its dataclass, which hold the only
    defaults. Unknown keys and values of the wrong JSON type are rejected; the
    one computed default is ``scheduler.slo_ms``, the smallest of ``slos_ms``.
    """
    top = _read(ExperimentConfig, doc, "", _TOP_KEYS, extra=_SECTIONS)
    raw_fleet = _require(doc, "fleet", "")
    if not isinstance(raw_fleet, list) or not raw_fleet:
        raise ConfigError("fleet", "must be a non-empty list")
    fleet = tuple(_fleet_group(raw, f"fleet[{i}]") for i, raw in enumerate(raw_fleet))

    server_doc = _require(doc, "server", "")
    server = _read(ExperimentConfig, server_doc, "server", _SERVER_KEYS,
                   extra=("batch_latency_table", "max_effective_batch"))
    table = read_batch_table(_require(server_doc, "batch_latency_table", "server"),
                             server_doc.get("max_effective_batch"))

    slos = top.get("slos_ms", ExperimentConfig.slos_ms)
    scheduler = _read(SchedulerConfig, _require(doc, "scheduler", ""), "scheduler",
                      slo_ms=min(slos, default=SchedulerConfig.slo_ms))
    sim = _read(ExperimentConfig, doc.get("sim", {}), "sim", _SIM_KEYS)
    config = ExperimentConfig(fleet=fleet, server_table=table,
                              scheduler=SchedulerConfig(**scheduler), **top, **server, **sim)
    config.validate()
    return config


def preset_names() -> list[str]:
    files = resources.files("cascsim").joinpath("presets")
    return sorted(p.name[:-5] for p in files.iterdir() if p.name.endswith(".json"))


def load_config(source: Union[str, Path]) -> ExperimentConfig:
    """Load a config from a JSON file path or a shipped preset name; a relative
    ``fleet[i].trace.csv`` path in a file resolves against the file's directory
    (inline CSV text, which holds a newline, is kept as it is)."""
    path = Path(source)
    if path.suffix == ".json" and path.exists():
        try:
            doc = json.loads(path.read_text(encoding="utf-8"))
        except OSError as exc:
            raise ConfigError(str(path), f"cannot read: {exc.strerror}") from None
        except UnicodeDecodeError:
            raise ConfigError(str(path), "not UTF-8 text") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(str(path), f"invalid JSON: {exc}") from None
        if not isinstance(doc, dict):
            raise ConfigError(str(path), f"must be a JSON object, got {doc!r}")
        config = config_from_dict(doc)
        return replace(config, fleet=tuple(
            replace(g, trace_csv=str(path.parent / g.trace_csv))
            if g.trace_csv is not None and "\n" not in g.trace_csv
            and not Path(g.trace_csv).is_absolute() else g
            for g in config.fleet))
    preset = resources.files("cascsim").joinpath("presets").joinpath(f"{source}.json")
    if preset.is_file():
        return config_from_dict(json.loads(preset.read_text(encoding="utf-8")))
    raise ConfigError(str(source), "no such config file or preset "
                      f"(known presets: {', '.join(preset_names())})")
