"""The three workloads: their generated inputs, the CLI call each body makes, and its checks.

Each body is one in-process ``cascsim.cli.main`` call, the same code path as
the ``cascsim`` console command. A body's ops are its ``run_simulation`` calls
(sweep, simulate) or its one ``calibrate`` call.
"""

from __future__ import annotations

import contextlib
import gc
import importlib
import io
import json
import os
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

from checks import (calibrate_problems, calibration_oracle, digest_mismatches,
                    event_log_counts, report_problems, sha256_file, sha256_text)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PRESETS = SRC / "cascsim" / "presets"

# Device counts of the sweep (10, 30, 50): the static scheduler saturates
# the shared server between 30 and 50 devices, so the grid has points on both sides.
SWEEP_DEVICES = "10..50:20"
HETEROG_DEVICES = 45
CSV_ROWS = 200_000
CSV_PRESET = "heterog_inceptionv3"
# the `calibrate` verb's default target forward rate and accuracy tolerance
CALIBRATE_TARGET = 0.30
CALIBRATE_TOLERANCE = 0.01
COUNT_FIELDS = ("samples_finalized", "samples_local", "samples_served", "samples_in_flight")


def preset_doc(name: str) -> dict:
    return json.loads((PRESETS / f"{name}.json").read_text(encoding="utf-8"))


def trace_length(doc: dict, devices: int) -> int:
    """Samples a run of ``devices`` devices decides: each group gets an equal share."""
    groups = doc["fleet"]
    per_group = devices // len(groups)
    return sum(per_group * g["trace"]["synthetic"]["count"] for g in groups)


class RunObserver:
    """Wraps ``run_simulation`` to keep each call's report (or its error) for the checks."""

    def __init__(self):
        self.calls: list[tuple[object, str]] = []

    def wrap(self, fn):
        def observed(*args, **kwargs):
            try:
                report = fn(*args, **kwargs)
            except Exception as exc:
                self.calls.append((None, repr(exc)))
                raise
            self.calls.append((report, ""))
            return report
        return observed


@dataclass
class Body:
    """One timed workload body and what its checks found."""

    seconds: float
    ops: list[dict]
    samples: int
    outputs: dict
    problems: list[str] = field(default_factory=list)
    bytes_written: int = 0
    # samples_finalized / _local / _served / _in_flight of each report
    report_counts: list[dict] = field(default_factory=list)

    @property
    def failed(self) -> int:
        return sum(1 for op in self.ops if not op["ok"])


class Workload:
    """One workload of one seed; ``work`` holds its inputs and outputs."""

    name = ""
    preset = ""
    ops_per_body = 1

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work
        # per process, so two runs of one workload never share files
        self.out = work / f"out-{os.getpid()}"
        self.inputs = work / f"inputs-{os.getpid()}"

    def cleanup(self) -> None:
        shutil.rmtree(self.out, ignore_errors=True)
        shutil.rmtree(self.inputs, ignore_errors=True)

    def doc(self) -> dict:
        """The config document the workload's config is built from."""
        return preset_doc(self.preset)

    @property
    def max_effective_batch(self) -> int:
        return self.doc()["server"]["max_effective_batch"]

    def prepare(self) -> None:
        """Write the generated inputs (none by default)."""

    def config_source(self) -> str:
        raise NotImplementedError

    def argv(self) -> list[str]:
        raise NotImplementedError

    def outputs(self, stdout: str) -> dict:
        raise NotImplementedError

    def run_body(self, observer: RunObserver, reference: dict | None) -> Body:
        """Run the body once, timed, then check its outputs (untimed)."""
        cli = importlib.import_module("cascsim.cli")
        shutil.rmtree(self.out, ignore_errors=True)
        self.out.mkdir(parents=True)
        observer.calls.clear()
        stdout = io.StringIO()
        error = ""
        gc.collect()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(stdout):
                code = cli.main(self.argv())
        except Exception as exc:
            code, error = None, repr(exc)
        seconds = time.perf_counter() - t0
        body = self.check(seconds, code, error, stdout.getvalue(), observer.calls, reference)
        observer.calls.clear()
        return body

    def check(self, seconds, code, error, stdout, calls, reference) -> Body:
        problems = [error] if error else []
        if code not in (0, None):
            problems.append(f"cascsim exited with {code}")
        outputs = {}
        if code == 0:
            try:
                outputs = self.outputs(stdout)
            except (OSError, ValueError) as exc:
                problems.append(f"unreadable output: {exc!r}")
        if reference is not None and code == 0:
            problems += digest_mismatches(reference, outputs)
        ops, samples = self.op_records(calls, stdout)
        if problems:
            for op in ops:
                op["ok"] = False
        written = len(stdout.encode())
        if self.out.is_dir():
            written += sum(p.stat().st_size for p in self.out.iterdir())
        counts = [{key: getattr(report, key) for key in COUNT_FIELDS}
                  for report, _ in calls if report is not None]
        return Body(seconds, ops, samples, outputs, problems + [
            p for op in ops for p in op["problems"]], written, counts)

    def op_records(self, calls, stdout) -> tuple[list[dict], int]:
        """One record per op with its sample count; ops that never ran count as failed."""
        doc = self.doc()
        ops = []
        for report, error in calls:
            if report is None:
                ops.append({"op": "run_simulation", "ok": False, "samples": 0,
                            "problems": [error]})
                continue
            problems = report_problems(report, trace_length(doc, report.device_count))
            ops.append({"op": "run_simulation", "devices": report.device_count,
                        "scheduler": report.scheduler_kind, "seed": report.seed,
                        "samples": report.samples_finalized, "ok": not problems,
                        "problems": problems})
        while len(ops) < self.ops_per_body:
            ops.append({"op": "run_simulation", "ok": False, "samples": 0,
                        "problems": ["not run"]})
        return ops, sum(op["samples"] for op in ops)


class SweepHomog(Workload):
    """The paper's device-count sweep, both schedulers, one seed."""

    name = "sweep_homog"
    preset = "homog_efflite0_inceptionv3"
    ops_per_body = 6  # 3 device counts x 2 schedulers

    def config_source(self) -> str:
        return self.preset

    def argv(self) -> list[str]:
        return ["sweep", "--config", self.preset, "--devices", SWEEP_DEVICES,
                "--scheduler", "both", "--seed-list", str(self.seed), "--out", str(self.out)]

    def outputs(self, stdout: str) -> dict:
        return {"sweep.csv": sha256_file(self.out / "sweep.csv")}


class SimulateEventlogHeterog(Workload):
    """One 45-device heterogeneous run that also writes its event log."""

    name = "simulate_eventlog_heterog"
    preset = "heterog_inceptionv3"

    def config_source(self) -> str:
        return self.preset

    def argv(self) -> list[str]:
        return ["simulate", "--config", self.preset, "--devices", str(HETEROG_DEVICES),
                "--event-log", "--out", str(self.out), "--seed-list", str(self.seed)]

    def __init__(self, seed: int, work: Path):
        super().__init__(seed, work)
        self.counted: dict[str, dict] = {}  # event-log digest -> its parsed event counts

    def outputs(self, stdout: str) -> dict:
        """Report digests, and event counts of the log. A log byte-identical to one
        already parsed in this run reuses its counts instead of parsing ~39 MB again."""
        parse = importlib.import_module("cascsim.engine").parse_event_log_line
        out = {}
        for path in sorted(self.out.iterdir()):
            digest = sha256_file(path)
            if path.suffix == ".tsv":
                if digest not in self.counted:
                    self.counted[digest] = event_log_counts(path, parse)
                out[path.name] = self.counted[digest]
            else:
                out[path.name] = digest
        return out


class CalibrateCsv(Workload):
    """``calibrate --config`` on a 3-group config bound to large generated CSV traces."""

    name = "calibrate_csv"
    preset = CSV_PRESET

    def config_path(self) -> Path:
        return self.inputs / "calibrate_config.json"

    def prepare(self) -> None:
        cascsim = importlib.import_module("cascsim")
        self.expected: list[float] = []  # oracle threshold per group
        inputs = self.inputs
        shutil.rmtree(inputs, ignore_errors=True)
        inputs.mkdir(parents=True)
        doc = self.doc()
        doc.pop("_notes", None)
        for gi, group in enumerate(doc["fleet"]):
            synthetic = {key: tuple(value) if isinstance(value, list) else value
                         for key, value in group["trace"]["synthetic"].items()}
            params = cascsim.SyntheticTraceParams(**{**synthetic, "count": CSV_ROWS})
            trace = cascsim.generate_synthetic_trace(params, [self.seed, gi])
            self.expected.append(calibration_oracle(
                trace.bvsb, trace.light_correct, trace.heavy_correct,
                CALIBRATE_TARGET, CALIBRATE_TOLERANCE))
            path = inputs / f"group{gi}.csv"
            with open(path, "w", encoding="utf-8", newline="") as fh:
                cascsim.write_trace_csv(trace, fh)
            group["trace"] = {"csv": str(path)}
        self.config_path().write_text(json.dumps(doc, indent=2), encoding="utf-8")

    def config_source(self) -> str:
        return str(self.config_path())

    def argv(self) -> list[str]:
        return ["calibrate", "--config", str(self.config_path())]

    def outputs(self, stdout: str) -> dict:
        return {"calibrate.json": sha256_text(stdout)}

    def op_records(self, calls, stdout) -> tuple[list[dict], int]:
        problems = calibrate_problems(stdout, self.expected)
        records = len(self.expected) * CSV_ROWS
        return [{"op": "calibrate", "records": records, "samples": records,
                 "ok": not problems, "problems": problems}], records


WORKLOADS = {w.name: w for w in (SweepHomog, SimulateEventlogHeterog, CalibrateCsv)}
