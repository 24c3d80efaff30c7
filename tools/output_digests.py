"""Print the SHA-256 digest of every output of a fixed matrix of cascsim runs.

Usage::

    python tools/output_digests.py SRC_DIR > digests.txt

``SRC_DIR`` is the directory that holds the ``cascsim`` package (``src`` in a
checkout). For every shipped preset under both schedulers, with seeds 1 and 2,
the matrix runs

- ``simulate --event-log`` at 12 and at 42 devices: ``report_seed*.json``,
  ``report_mean.json`` and ``events_seed*.tsv``;
- ``sweep --devices 6..30:12``: ``sweep.csv``;

and, once per preset, ``calibrate --config`` (its stdout). Each preset also
runs on CSV traces: every fleet group's synthetic trace, drawn with
``CSV_ROWS`` records under seed ``[CSV_SEED, group]``, is written with
``write_trace_csv`` (``csv/group*.csv``) and bound to a copy of the preset, on
which the matrix runs ``calibrate --config``, ``simulate`` with seeds 1 and 2
at 12 devices (``report_seed*.json``, ``report_mean.json``) and ``sweep
--devices 6..30:12`` with seeds 1 and 2 under both schedulers (``sweep.csv``),
and ``calibrate --trace`` on each file. Each preset also runs as a zero-delay
copy (``uplink_ms = downlink_ms = 0``, ``start_phase = "aligned"``), where
requests, responses and threshold updates land at their pusher's own instant:
``simulate --event-log`` at ``ZERO_DELAY_DEVICES`` devices with seeds 1 and 2
under both schedulers (``zero_delay_<scheduler>/``). Each line is
``<sha256>  <preset>/<run>/<file>``.

Last come the rejected calls: ``simulate`` on copies of the ``ERROR_PRESET``
preset whose ``scheduler`` section has a fixed ``initial_threshold`` and then
one of the ``SCHEDULER_FAULTS`` edits (every field with a bad value, both and
neither threshold source, and sections with several faults at once). Each
must exit non-zero; its line, ``<sha256>  errors/<case>/status+stderr``, hashes
the exit status and the JSON error on stderr. Then ``calibrate --trace`` runs
on edited copies of the ``ERROR_PRESET`` preset's first CSV trace: the
``CSV_FAULTS`` copies (a bad gap in the second block of 16,384 records, a
9-digit index, a fifth field on the second block's first record, a bit ``2`` on
the last row, one ``0xFF`` byte, a wrong header, an empty file, a header-only
CRLF file, a truncated UTF-8 character late in the file, an empty gap, a
heavy bit ``11`` on the last row but one) must each be rejected,
with a line ``<sha256>  errors/csv_<case>/status+stderr``; the ``CSV_VARIANTS``
copies (CRLF line ends, ``+3`` and ``03`` as indexes, ``\\r\\r\\n`` line ends, a
final CR in place of the final newline, no final newline, a fullwidth-digit
index) must each be accepted, with a line ``<sha256>  csv_edits/<case>/stdout``.
Last of all, ``calibrate --trace`` runs on that trace unedited with each
``FALLBACK_FLAGS`` pair, ``--target 0.05 --tolerance 0.01`` and ``--target 0.9
--tolerance 0``: both pick by the accuracy fallback, where the default flags
pick the closest forward rate. Each line is
``<sha256>  calibrate_fallback/target<T>_tolerance<E>/stdout``.
Run the tool on two trees and diff the two outputs: a change that keeps every
output and every error message byte-identical prints the same lines.
"""

from __future__ import annotations

import hashlib
import io
import json
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from pathlib import Path

SEEDS = "1,2"
SIMULATE_DEVICES = (12, 42)
SWEEP_DEVICES = "6..30:12"
SCHEDULERS = ("multitasc", "static")
CSV_ROWS = 20_000
CSV_SEED = 7
CSV_DEVICES = 12
ZERO_DELAY_DEVICES = 12
ERROR_PRESET = "homog_efflite0_inceptionv3"

# ``calibrate --trace`` flags (target, tolerance) whose pick on the ``ERROR_PRESET``
# preset's first CSV trace falls back to the most accurate grid points
FALLBACK_FLAGS = (("0.05", "0.01"), ("0.9", "0"))


def _drop(key):
    return lambda section: section.pop(key)


def _calibrated(calibration):
    """An edit that swaps the fixed threshold for a calibration section."""
    return lambda section: (section.pop("initial_threshold"),
                            section.update(calibration=calibration))


# Edits of a ``scheduler`` section that holds ``kind`` and ``initial_threshold``; each
# must make the config fail to load.
SCHEDULER_FAULTS = {
    "kind_missing": _drop("kind"),
    "kind_unknown": lambda s: s.update(kind="fast"),
    "kind_type": lambda s: s.update(kind=1),
    "initial_threshold_range": lambda s: s.update(initial_threshold=1.5),
    "initial_threshold_nan": lambda s: s.update(initial_threshold=float("nan")),
    "initial_threshold_type": lambda s: s.update(initial_threshold="0.5"),
    "calibration_type": _calibrated(3),
    "calibration_unknown_key": _calibrated({"size": 10}),
    "calibration_target": _calibrated({"target_forward_rate": 1.5}),
    "calibration_tolerance": _calibrated({"accuracy_tolerance": float("nan")}),
    "calibration_count": _calibrated({"count": 0}),
    "calibration_seed": _calibrated({"seed": -1}),
    "update_fraction_range": lambda s: s.update(update_fraction=1.5),
    "update_fraction_type": lambda s: s.update(update_fraction=True),
    "margin_range": lambda s: s.update(margin=-0.1),
    "margin_type": lambda s: s.update(margin="x"),
    "window_range": lambda s: s.update(window=0),
    "window_too_large": lambda s: s.update(window=10**20),
    "window_type": lambda s: s.update(window=2.5),
    "alpha_range": lambda s: s.update(alpha=0.0),
    "alpha_nan": lambda s: s.update(alpha=float("nan")),
    "beta_above_alpha": lambda s: s.update(beta=0.9),
    "beta_type": lambda s: s.update(beta="x"),
    "tick_period_ms_range": lambda s: s.update(tick_period_ms=0.0),
    "tick_period_ms_inf": lambda s: s.update(tick_period_ms=float("inf")),
    "flush_factor_range": lambda s: s.update(flush_factor=-1.0),
    "flush_factor_null": lambda s: s.update(flush_factor=None),
    "slo_ms_range": lambda s: s.update(slo_ms=0.0),
    "slo_ms_nan": lambda s: s.update(slo_ms=float("nan")),
    "unknown_key": lambda s: s.update(foo=1),
    "both_sources": lambda s: s.update(calibration={}),
    "neither_source": _drop("initial_threshold"),
    "multi_kind_missing_alpha": lambda s: (s.pop("kind"), s.update(alpha=-1.0)),
    "multi_initial_type_window_type": lambda s: s.update(initial_threshold="0.5",
                                                         window="x"),
    "multi_both_sources_beta_nan": lambda s: s.update(calibration={}, beta=float("nan")),
    "multi_unknown_key_kind_unknown": lambda s: s.update(foo=1, kind="fast"),
    "multi_calibration_count_margin": lambda s: (s.pop("initial_threshold"), s.update(
        calibration={"count": 0}, margin=2)),
}


def _field(record: int, column: int, value: bytes):
    """An edit of a CSV trace's bytes that sets one field of a record (column 4 adds
    a fifth field)."""
    def edit(data: bytes) -> bytes:
        lines = data.split(b"\n")
        fields = lines[record + 1].split(b",")
        fields[column:column + 1] = [value]
        lines[record + 1] = b",".join(fields)
        return b"\n".join(lines)
    return edit


# Edits of a written CSV trace that ``calibrate --trace`` must reject, then edits
# it must accept. Records 0 to 16,383 make the loader's first block.
CSV_FAULTS = {
    "gap_second_block": _field(16_400, 1, b"0.5x"),
    "index_nine_digits": _field(100, 0, b"100000100"),
    "fifth_field_second_block": _field(16_384, 4, b"1"),
    "bit_two_last_row": _field(CSV_ROWS - 1, 3, b"2"),
    "byte_ff": _field(5_000, 1, b"0.\xff5"),
    "header": lambda data: data.replace(b"sample_index", b"index", 1),
    "empty": lambda data: b"",
    "header_only_crlf": lambda data: data[:data.index(b"\n")] + b"\r\n",
    "utf8_truncated_late": _field(CSV_ROWS - 10, 1, b"0.5\xe2\x82"),
    "gap_empty": _field(100, 1, b""),
    "heavy_two_bytes": _field(CSV_ROWS - 2, 3, b"11"),
}
CSV_VARIANTS = {
    "crlf": lambda data: data.replace(b"\n", b"\r\n"),
    "index_plus": _field(3, 0, b"+3"),
    "index_zero": _field(3, 0, b"03"),
    "cr_crlf": lambda data: data.replace(b"\n", b"\r\r\n"),
    "final_cr": lambda data: data.removesuffix(b"\n") + b"\r",
    "no_final_newline": lambda data: data.removesuffix(b"\n"),
    "index_fullwidth": _field(3, 0, "\uff13".encode("utf-8")),
}


def import_cli(src_dir: Path):
    """``cascsim.cli`` imported from ``src_dir``, never from another copy."""
    sys.path.insert(0, str(src_dir))
    import cascsim.cli
    if Path(cascsim.__file__).resolve().parent != (src_dir / "cascsim").resolve():
        raise SystemExit(f"imported cascsim from {cascsim.__file__}, not from {src_dir}")
    return cascsim.cli


def run(cli, argv: list[str]) -> bytes:
    """Run one CLI command in process and return its stdout."""
    out = io.StringIO()
    with redirect_stdout(out):
        status = cli.main(argv)
    if status != 0:
        raise SystemExit(f"cascsim {' '.join(argv)} exited {status}")
    return out.getvalue().encode("utf-8")


def rejected(cli, argv: list[str]) -> bytes:
    """Run one CLI command in process that must fail; return its exit status and
    stderr."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        status = cli.main(argv)
    if status == 0:
        raise SystemExit(f"cascsim {' '.join(argv)} exited 0")
    return f"{status}\n{err.getvalue()}".encode("utf-8")


def digest(data: bytes, name: str) -> str:
    """One output line: the SHA-256 of ``data``, then ``name``."""
    return f"{hashlib.sha256(data).hexdigest()}  {name}"


def preset_doc(preset: str) -> dict:
    """The shipped preset's JSON document."""
    import cascsim
    return json.loads((Path(cascsim.__file__).parent / "presets" / f"{preset}.json")
                      .read_text(encoding="utf-8"))


def zero_delay_digests(cli, preset: str, work: Path) -> list[str]:
    """Simulate a copy of the preset with no network delay and aligned starts, with
    the event log."""
    doc = preset_doc(preset)
    doc["network"] = {"uplink_ms": 0.0, "downlink_ms": 0.0}
    doc["sim"]["start_phase"] = "aligned"
    config = work / preset / "zero_delay.json"
    config.parent.mkdir(parents=True, exist_ok=True)
    config.write_text(json.dumps(doc), encoding="utf-8")
    lines = []
    for kind in SCHEDULERS:
        name = f"{preset}/zero_delay_{kind}"
        out = work / name
        run(cli, ["simulate", "--config", str(config), "--scheduler", kind,
                  "--devices", str(ZERO_DELAY_DEVICES), "--seed-list", SEEDS,
                  "--event-log", "--out", str(out)])
        lines += [digest(path.read_bytes(), f"{name}/{path.name}")
                  for path in sorted(out.iterdir())]
    return lines


def csv_digests(cli, preset: str, work: Path) -> list[str]:
    """Write the preset's group traces as CSV files, then calibrate, simulate and sweep
    on them."""
    import cascsim
    out = work / preset / "csv"
    out.mkdir(parents=True)
    doc = preset_doc(preset)
    lines = []
    for gi, group in enumerate(cli.load_config(preset).fleet):
        params = replace(group.synthetic, count=CSV_ROWS)
        path = out / f"group{gi}.csv"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            cascsim.write_trace_csv(cascsim.generate_synthetic_trace(params, [CSV_SEED, gi]), fh)
        doc["fleet"][gi]["trace"] = {"csv": path.name}  # relative to the config file
        lines.append(digest(path.read_bytes(), f"{preset}/csv/{path.name}"))
        calibrate = run(cli, ["calibrate", "--trace", str(path)])
        lines.append(digest(calibrate, f"{preset}/calibrate_trace_group{gi}/stdout"))
    config = out / "config.json"
    config.write_text(json.dumps(doc), encoding="utf-8")
    calibrate = run(cli, ["calibrate", "--config", str(config)])
    lines.append(digest(calibrate, f"{preset}/calibrate_csv/stdout"))
    name = f"{preset}/simulate_csv_{CSV_DEVICES}"
    reports = work / name
    run(cli, ["simulate", "--config", str(config), "--devices", str(CSV_DEVICES),
              "--seed-list", SEEDS, "--out", str(reports)])
    lines += [digest(path.read_bytes(), f"{name}/{path.name}") for path in sorted(reports.iterdir())]
    sweep = run(cli, ["sweep", "--config", str(config), "--devices", SWEEP_DEVICES,
                      "--seed-list", SEEDS])
    lines.append(digest(sweep, f"{preset}/sweep_csv/sweep.csv"))
    return lines


def error_digests(cli, work: Path) -> list[str]:
    """Load a copy of ``ERROR_PRESET`` with each bad ``scheduler`` section."""
    lines = []
    for name, edit in SCHEDULER_FAULTS.items():
        doc = preset_doc(ERROR_PRESET)
        doc["scheduler"] = {"kind": "multitasc", "initial_threshold": 0.5}
        edit(doc["scheduler"])
        config = work / "errors" / f"{name}.json"
        config.parent.mkdir(parents=True, exist_ok=True)
        config.write_text(json.dumps(doc), encoding="utf-8")
        result = rejected(cli, ["simulate", "--config", str(config), "--devices", "2",
                                "--seed-list", "1"])
        lines.append(digest(result, f"errors/{name}/status+stderr"))
    return lines


def csv_edit_digests(cli, trace: Path, work: Path) -> list[str]:
    """Calibrate on edited copies of a written CSV trace: each ``CSV_FAULTS`` copy
    must be rejected, each ``CSV_VARIANTS`` copy accepted."""
    out = work / "csv_edits"
    out.mkdir()
    lines = []
    for name, edit in {**CSV_FAULTS, **CSV_VARIANTS}.items():
        path = out / f"{name}.csv"
        path.write_bytes(edit(trace.read_bytes()))
        argv = ["calibrate", "--trace", str(path)]
        if name in CSV_FAULTS:
            lines.append(digest(rejected(cli, argv), f"errors/csv_{name}/status+stderr"))
        else:
            lines.append(digest(run(cli, argv), f"csv_edits/{name}/stdout"))
    return lines


def fallback_digests(cli, trace: Path) -> list[str]:
    """Calibrate on a written CSV trace with each ``FALLBACK_FLAGS`` pair."""
    return [digest(run(cli, ["calibrate", "--trace", str(trace), "--target", target,
                             "--tolerance", tolerance]),
                   f"calibrate_fallback/target{target}_tolerance{tolerance}/stdout")
            for target, tolerance in FALLBACK_FLAGS]


def digests(cli, work: Path) -> list[str]:
    lines = []
    for preset in cli.preset_names():
        for kind in SCHEDULERS:
            for devices in SIMULATE_DEVICES:
                name = f"{preset}/simulate_{kind}_{devices}"
                out = work / name
                run(cli, ["simulate", "--config", preset, "--scheduler", kind,
                          "--devices", str(devices), "--seed-list", SEEDS,
                          "--event-log", "--out", str(out)])
                lines += [digest(path.read_bytes(), f"{name}/{path.name}")
                          for path in sorted(out.iterdir())]
            sweep = run(cli, ["sweep", "--config", preset, "--scheduler", kind,
                              "--devices", SWEEP_DEVICES, "--seed-list", SEEDS])
            lines.append(digest(sweep, f"{preset}/sweep_{kind}/sweep.csv"))
        calibrate = run(cli, ["calibrate", "--config", preset])
        lines.append(digest(calibrate, f"{preset}/calibrate/stdout"))
        lines += csv_digests(cli, preset, work)
        lines += zero_delay_digests(cli, preset, work)
    trace = work / ERROR_PRESET / "csv" / "group0.csv"
    return (lines + error_digests(cli, work) + csv_edit_digests(cli, trace, work)
            + fallback_digests(cli, trace))


def main(argv: list[str]) -> int:
    if len(argv) != 1 or not (Path(argv[0]) / "cascsim").is_dir():
        print(__doc__, file=sys.stderr)
        return 2
    cli = import_cli(Path(argv[0]))
    with tempfile.TemporaryDirectory() as work:
        print("\n".join(digests(cli, Path(work))))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
