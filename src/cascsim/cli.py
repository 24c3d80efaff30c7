"""Command-line entry points: simulate, sweep, capacity, calibrate.

Exit status is 0 only when every requested run completed; failures emit a
machine-readable JSON error on stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace
from math import inf
from pathlib import Path
from typing import Iterable, Optional, Sequence, Union

from .cascade import CalibrationSpec, calibrate_static_threshold
from .config import ExperimentConfig, load_config, preset_names, read_batch_table
from .engine import DeviceLayout, run_simulation
from .errors import CascSimError, ConfigError
from .metrics import SWEEP_CSV_HEADER, mean_report, sweep_csv_rows
from .scheduler import SCHEDULER_KINDS
from .server import BatchLatencyTable, compute_capacity_greedy
from .trace import load_trace_csv


def _write_atomic(path: Path, text: Union[str, Iterable[str]]) -> None:
    """Write text, or the concatenation of an iterable of strings, then rename into place."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as out:
            out.writelines([text] if isinstance(text, str) else text)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)  # left only by a failed write


def _parse_seed_list(raw: Optional[str], default: Sequence[int]) -> list[int]:
    if raw is None:
        return list(default)
    seeds = [s.strip() for s in raw.split(",") if s.strip()]
    if not seeds or not all(s.isdecimal() for s in seeds):
        raise ConfigError("--seed-list",
                          f"expected comma-separated non-negative integers, got {raw!r}")
    return [int(s) for s in seeds]


def _parse_device_range(raw: str) -> range:
    """Parse 'A..B:STEP' into an inclusive device-count series."""
    try:
        span, step_str = raw.split(":")
        lo_str, hi_str = span.split("..")
        lo, hi, step = int(lo_str), int(hi_str), int(step_str)
    except ValueError:
        raise ConfigError("--devices", f"expected A..B:STEP, got {raw!r}") from None
    if step <= 0 or hi < lo:
        raise ConfigError("--devices", f"empty or descending range {raw!r}")
    counts = range(lo, hi + 1, step)
    for count in (counts[0], counts[-1]):  # the ends bound every count between them
        if not 1 <= count <= sys.maxsize:
            raise ConfigError("--devices", f"must be in [1, {sys.maxsize}], got {count}")
    return counts


def _apply_overrides(cfg: ExperimentConfig, args) -> ExperimentConfig:
    if args.scheduler:
        cfg = replace(cfg, scheduler=replace(cfg.scheduler, kind=args.scheduler))
    if args.devices_count is not None:
        cfg = cfg.with_device_count(args.devices_count)
    return cfg


def cmd_simulate(args) -> int:
    cfg = _apply_overrides(load_config(args.config), args)
    seeds = _parse_seed_list(args.seed_list, cfg.seeds)
    out_dir = Path(args.out) if args.out else None
    if out_dir:
        out_dir.mkdir(parents=True, exist_ok=True)
    if args.event_log and not out_dir:
        raise ConfigError("--event-log", "requires --out to know where to write")

    reports = []
    memo: dict = {}  # each csv file and calibrated threshold, made once for every seed
    for seed in seeds:
        report = run_simulation(cfg, seed=seed, collect_event_log=args.event_log,
                                layout=DeviceLayout(cfg, cfg.build_traces(seed, memo), memo))
        del memo[seed]  # this seed's synthetic traces: no later seed reads them
        if out_dir:
            _write_atomic(out_dir / f"report_seed{seed}.json", report.to_json() + "\n")
            if args.event_log:
                _write_atomic(out_dir / f"events_seed{seed}.tsv", report.event_log)
        report.samples = report.event_log = None  # the mean needs only the numbers
        reports.append(report)
    mean = mean_report(reports)
    mean_text = json.dumps(mean, sort_keys=True, indent=2)
    if out_dir:
        _write_atomic(out_dir / "report_mean.json", mean_text + "\n")
    print(mean_text)
    return 0


def cmd_sweep(args) -> int:
    cfg = load_config(args.config)
    seeds = _parse_seed_list(args.seed_list, cfg.seeds)
    counts = _parse_device_range(args.devices)
    kinds = SCHEDULER_KINDS if args.scheduler == "both" else [args.scheduler]

    # The schedulers at one (count, seed) share its device layout, and the memo keeps
    # each trace for the larger counts (common random numbers) and each calibration.
    reports = {}
    memo: dict = {}
    for seed in seeds:
        for count in counts:
            point_cfg = cfg.with_device_count(count)
            layout = DeviceLayout(point_cfg, point_cfg.build_traces(seed, memo), memo)
            for kind in kinds:
                kind_cfg = replace(point_cfg, scheduler=replace(point_cfg.scheduler, kind=kind))
                report = run_simulation(kind_cfg, seed=seed, layout=layout)
                report.samples = None  # the rows need only the numbers
                reports[kind, count, seed] = report
            layout = None  # released before the next one is built
        del memo[seed]  # this seed's synthetic traces: no later seed reads them

    lines = [SWEEP_CSV_HEADER] + sweep_csv_rows(
        [reports[kind, count, seed] for kind in kinds for count in counts for seed in seeds])
    text = "\n".join(lines) + "\n"
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        _write_atomic(out_dir / "sweep.csv", text)
        print(str(out_dir / "sweep.csv"))
    else:
        print(text, end="")
    return 0


def _table_from_args(args) -> BatchLatencyTable:
    if args.config:
        for flag, value in (("--table", args.table), ("--max-effective", args.max_effective)):
            if value is not None:
                raise ConfigError(flag, "cannot be combined with --config, which names "
                                        "the batch table")
        return load_config(args.config).server_table
    if not args.table:
        raise ConfigError("--table", "either --config or --table is required")
    try:
        entries = json.loads(args.table)
    except json.JSONDecodeError as exc:
        raise ConfigError("--table", f"invalid JSON: {exc}") from None
    return read_batch_table(entries, args.max_effective, "--table", "--max-effective")


def cmd_capacity(args) -> int:
    if not 0.0 < args.slo < inf:  # NaN fails too
        raise ConfigError("--slo", f"must be finite and positive, got {args.slo}")
    result = compute_capacity_greedy(_table_from_args(args), args.slo)
    print(json.dumps({
        "capacity": result.capacity,
        "schedule": [[b, n] for b, n in result.schedule],
        "time_used_ms": result.time_used_ms,
        "slo_ms": args.slo,
    }, sort_keys=True))
    return 0


def cmd_calibrate(args) -> int:
    if args.target is not None and not 0.0 < args.target < 1.0:
        raise ConfigError("--target", f"must be in (0, 1), got {args.target}")
    if args.tolerance is not None and not 0.0 <= args.tolerance < inf:  # NaN fails too
        raise ConfigError("--tolerance", f"must be finite and non-negative, got {args.tolerance}")
    # a flag that is given overrides the config's (or the default) calibration target
    given = {name: value for name, value in (("target_forward_rate", args.target),
                                             ("accuracy_tolerance", args.tolerance))
             if value is not None}
    if args.trace:
        if args.config:
            raise ConfigError("--config", "cannot be combined with --trace, which names "
                                          "the trace to calibrate")
        trace = load_trace_csv(args.trace, "--trace")
        pick = calibrate_static_threshold(trace, **given)
        print(json.dumps({"threshold": pick.value, "forward_rate": pick.forward_rate,
                          "cascade_accuracy": pick.cascade_accuracy}, sort_keys=True))
        return 0
    if not args.config:
        raise ConfigError("--trace", "either --config or --trace is required")
    cfg = load_config(args.config)
    calib = cfg.scheduler.calibration
    if given and calib is None:
        raise ConfigError("--target" if args.target is not None else "--tolerance",
                          "nothing to calibrate: the config fixes scheduler.initial_threshold")
    if calib is not None:
        calib = replace(calib, **given)
        cfg = replace(cfg, scheduler=replace(cfg.scheduler, calibration=calib))
    thresholds = cfg.resolve_initial_thresholds()
    print(json.dumps({
        "thresholds": [
            {"group": i, "tier": g.tier.value, "model": g.model, "threshold": t}
            for i, (g, t) in enumerate(zip(cfg.fleet, thresholds))
        ],
        "target_forward_rate": calib.target_forward_rate if calib else None,
    }, sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cascsim",
        description="Discrete-event simulator for multi-device inference cascades "
                    "with adaptive forwarding thresholds.",
        epilog=f"Shipped presets: {', '.join(preset_names())}")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run one experiment across its seeds")
    sim.add_argument("--config", required=True, help="config file path or preset name")
    sim.add_argument("--out", help="directory for per-seed and mean reports")
    sim.add_argument("--seed-list", help="comma-separated seed override")
    sim.add_argument("--devices", dest="devices_count", type=int,
                     help="override total device count")
    sim.add_argument("--scheduler", choices=SCHEDULER_KINDS,
                     help="override scheduler kind")
    sim.add_argument("--event-log", action="store_true",
                     help="also write per-seed event logs (requires --out)")
    sim.set_defaults(func=cmd_simulate)

    sweep = sub.add_parser("sweep", help="sweep device counts, emit a CSV series")
    sweep.add_argument("--config", required=True)
    sweep.add_argument("--devices", required=True, metavar="A..B:STEP",
                       help="device count range, e.g. 5..50:5")
    sweep.add_argument("--scheduler", choices=[*SCHEDULER_KINDS, "both"],
                       default="both")
    sweep.add_argument("--seed-list", help="comma-separated seed override")
    sweep.add_argument("--out", help="directory for sweep.csv (stdout when omitted)")
    sweep.set_defaults(func=cmd_sweep)

    cap = sub.add_parser("capacity", help="compute server capacity for a latency budget")
    cap.add_argument("--config", help="take the batch table from this config/preset")
    cap.add_argument("--table", help='batch latency table as JSON, e.g. \'{"1": 10, "2": 12}\'')
    cap.add_argument("--max-effective", type=int, default=None)
    cap.add_argument("--slo", type=float, required=True, help="latency budget in ms")
    cap.set_defaults(func=cmd_capacity)

    cal = sub.add_parser("calibrate", help="pick static thresholds from a calibration trace")
    cal.add_argument("--config", help="calibrate every fleet group of this config/preset")
    cal.add_argument("--trace", help="calibrate a single trace CSV file")
    default = CalibrationSpec()
    cal.add_argument("--target", type=float, help="target forward rate (default: the "
                     f"config's, else {default.target_forward_rate})")
    cal.add_argument("--tolerance", type=float, help="maximum cascade-accuracy loss "
                     f"(default: the config's, else {default.accuracy_tolerance})")
    cal.set_defaults(func=cmd_calibrate)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CascSimError, OSError) as exc:  # a failed write, or --out naming a file, too
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
