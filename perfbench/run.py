"""cascsim benchmark: host time per simulated sample, one workload per process.

Usage (from the repository root):

    python3 perfbench/run.py --workload sweep_homog --seed 1 --seconds 20 --trace 0

The process imports cascsim from ``src/``, writes the workload's generated
inputs, sets cascsim up several times, then runs workload bodies one after
another (a closed loop with one client) until ``--seconds`` have passed. With
``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it
alternates untraced and traced bodies and reports the per-layer metrics. The
last line of standard output is the JSON result; the full record (environment,
every op with its sample count, output digests) goes to
``perfbench/.work/<workload>/``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

from layers import TARGETS, body_metrics, unit
from spans import Installation, Tracer, install_spans
from workloads import SRC, WORKLOADS, RunObserver

HERE = Path(__file__).resolve().parent
WORK = HERE / ".work"
REFERENCE = HERE / "reference.json"
# Set-up runs at least 3 times and until it has taken 2 s (at most 30 times),
# so a light set-up gets enough repeats for a steady median.
SETUP_REPEATS = 3
SETUP_SECONDS = 2.0
SETUP_MAX = 30

END_TO_END = {"setup_s": "s", "run_s": "s", "samples_per_s": "1/s", "peak_rss_mb": "MB"}
PER_LAYER = (
    "config.load_s", "config.thresholds_s", "trace.generate_s", "trace.csv_load_s",
    "trace.csv_records", "cascade.calibrate_s", "cascade.calibrate_calls",
    "engine.run_s", "engine.self_s", "engine.runs", "engine.events", "engine.events_per_s",
    "scheduler.tick_s", "scheduler.ticks", "scheduler.updates", "scheduler.flush_entries",
    "server.select_s", "server.queue_s", "server.capacity_s", "server.batches",
    "server.batch_fill", "metrics.report_s", "metrics.serialize_s", "cli.self_s",
    "cli.bytes_written", "trace.overhead_s",
)


def import_cascsim():
    """Import cascsim from this checkout's ``src/``, never from an installed copy."""
    # one thread: keep numpy's BLAS pool from starting worker threads
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    cascsim = importlib.import_module("cascsim")
    if Path(cascsim.__file__).resolve().parent != SRC / "cascsim":
        raise SystemExit(f"imported cascsim from {cascsim.__file__}, not from {SRC}")
    return cascsim


def setup_once(config_source: str) -> float:
    """Seconds for a fresh ``import cascsim`` + ``load_config`` + ``resolve_initial_thresholds``."""
    for name in [m for m in sys.modules if m == "cascsim" or m.startswith("cascsim.")]:
        del sys.modules[name]
    t0 = time.perf_counter()
    cascsim = import_cascsim()
    cascsim.load_config(config_source).resolve_initial_thresholds()
    return time.perf_counter() - t0


def environment() -> dict:
    cpu_model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh
                              if line.startswith("model name")), cpu_model)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "cpu_model": cpu_model,
        "loadavg_start": list(os.getloadavg()),
        "platform": platform.platform(),
    }


def fits(started: float, seconds: int, bodies: list, last: float) -> bool:
    """Whether another body, checks included, as long as the last one ends within the run."""
    return not bodies or time.perf_counter() - started + last <= seconds


def measure_untraced(workload, seconds, reference, observer) -> list:
    bodies, last = [], 0.0
    started = time.perf_counter()
    while fits(started, seconds, bodies, last):
        t0 = time.perf_counter()
        bodies.append(workload.run_body(observer, reference))
        last = time.perf_counter() - t0
    return bodies


def measure_traced(workload, seconds, reference, observer, tracer,
                   missing: set) -> tuple[list, list, list]:
    """Alternate untraced and traced bodies; each traced body is one span run id.

    Targets that no longer exist in cascsim are added to ``missing``."""
    plain, traced, layer_rows, last = [], [], [], 0.0
    started = time.perf_counter()
    while not (plain and traced) or fits(started, seconds, plain + traced, last):
        t0 = time.perf_counter()
        if len(plain) <= len(traced):
            plain.append(workload.run_body(observer, reference))
        else:
            tracer.run_id = len(traced)
            tracer.counters = {}
            wrappers = install_spans(tracer, TARGETS, Installation())
            try:
                body = workload.run_body(observer, reference)
            finally:
                wrappers.remove()
            traced.append(body)
            layer_rows.append(body_metrics(
                tracer.spans(tracer.run_id), tracer.counters, body.report_counts,
                workload.max_effective_batch, body.bytes_written))
            missing.update(wrappers.missing)
        last = time.perf_counter() - t0
    return plain, traced, layer_rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (SRC / "cascsim" / "__init__.py").is_file():
        print(f"error: no cascsim sources at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2

    env = environment()
    t0 = time.perf_counter()
    cascsim = import_cascsim()
    import_cold_s = time.perf_counter() - t0
    numpy = importlib.import_module("numpy")
    env.update(numpy=numpy.__version__, cascsim=cascsim.__version__,
               import_cold_s=import_cold_s)

    work = WORK / args.workload
    work.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, work)
    t0 = time.perf_counter()
    workload.prepare()
    env["inputs_s"] = time.perf_counter() - t0
    references = json.loads(REFERENCE.read_text(encoding="utf-8")) if REFERENCE.is_file() else {}
    reference = references.get(args.workload, {}).get(str(args.seed))

    setups = []
    while args.trace == 0 and (len(setups) < SETUP_REPEATS or (
            sum(setups) < SETUP_SECONDS and len(setups) < SETUP_MAX)):
        setups.append(setup_once(workload.config_source()))

    observer = RunObserver()
    observed = Installation()
    observed.wrap_attr("cascsim.cli", "run_simulation", observer.wrap)
    tracer, missing = Tracer(), set()
    try:
        if args.trace == 0:
            bodies = measure_untraced(workload, args.seconds, reference, observer)
            traced, layer_rows = [], []
        else:
            bodies, traced, layer_rows = measure_traced(
                workload, args.seconds, reference, observer, tracer, missing)
    finally:
        observed.remove()

    everything = bodies + traced
    attempted = sum(len(b.ops) for b in everything)
    failed = sum(b.failed for b in everything)
    problems = sorted({p for b in everything for p in b.problems})
    samples = {b.samples for b in everything}
    if len(samples) != 1:
        problems.append(f"bodies finalized different sample counts: {sorted(samples)}")
    run_s = statistics.median(b.seconds for b in bodies)

    if args.trace == 0:
        values = {
            "setup_s": statistics.median(setups),
            "run_s": run_s,
            "samples_per_s": bodies[0].samples / run_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {name: {"value": values[name], "unit": u} for name, u in END_TO_END.items()}
    else:
        values = {name: statistics.median(row[name] for row in layer_rows)
                  for name in layer_rows[0]}
        values["trace.overhead_s"] = statistics.median(b.seconds for b in traced) - run_s
        metrics = {name: {"value": values[name], "unit": unit(name)} for name in PER_LAYER}
        tracer.write_tsv(work / f"spans_seed{args.seed}.tsv")

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env, "setup_s_each": setups,
        "body_s": [b.seconds for b in bodies], "traced_body_s": [b.seconds for b in traced],
        "ops": [dict(op, body=i) for i, b in enumerate(everything) for op in b.ops],
        "outputs": everything[0].outputs, "reference_checked": reference is not None,
        "problems": problems, "not_wrapped": sorted(missing), "metrics": metrics,
    }
    record_path = work / f"result_seed{args.seed}_trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    workload.cleanup()

    for name, m in metrics.items():
        print(f"{args.workload:28s} {name:26s} {m['value']:>16.6f} {m['unit']}")
    print(f"ops {attempted} failed {failed}; outputs "
          f"{'checked against' if reference else 'not in'} {REFERENCE.name}; "
          f"record {record_path.relative_to(HERE.parent)}")
    print(f"outputs (seed {args.seed}): {json.dumps(record['outputs'], sort_keys=True)}")
    for problem in problems:
        print(f"problem: {problem}")
    for where in sorted(missing):
        print(f"not wrapped (no such name in cascsim): {where}")
    print(json.dumps({"correct": failed == 0 and not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
