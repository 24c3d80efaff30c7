"""Record a benchmark comparison of two source trees as ``BENCH_<label>.json``.

Usage::

    python tools/bench_record.py PARENT_DIR CHANGE_DIR --label L

For every workload of ``BENCHMARK.json``, each tree runs its own
``perfbench/run.py --workload W --seed 1 --seconds T --trace 0`` (``T`` is the
benchmark's ``run_seconds``) in a fresh process, in ten parent/change pairs;
the side that goes first alternates from pair to pair, so a drift in host
speed falls on both sides alike. The last line a run prints is its JSON result (``correct``,
``attempted``, ``failed``, ``metrics``), and every one is kept. Each run gets its own
empty ``PYTHONPYCACHEPREFIX`` in a temporary directory, removed afterwards, so a
tree's ``__pycache__`` (stale after an edit, when bytecode writing is off) never
decides its side's import time; the trees themselves are left as they are.

The record is written at the root of this repository. It holds the
environment, both trees' git revisions and, for each workload and each
end-to-end metric of ``BENCHMARK.json``: both sides' medians and quartiles,
how many pairs the change wins (by the metric's ``better``), the relative
change of the median and the parent's relative interquartile spread against
the metric's ``bound``, and every pair. The verdict is ``within_bound`` or
``worse``, or ``unresolved`` when the parent's spread is wider than the bound
and not every run of the change reads better than every run of the parent:
such a metric is too noisy here to call unchanged. Passing the same tree twice gives the host's noise floor.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
SEED = 1
PAIRS = 10  # a claimed gain must win nine pairs in ten


def revision(tree: Path) -> dict:
    """The tree's checked-out commit, and whether tracked files differ from it."""
    def git(*args):
        return subprocess.run(["git", "-C", str(tree), *args], capture_output=True, text=True,
                              check=True).stdout.strip()
    return {"commit": git("rev-parse", "HEAD"),
            "dirty": bool(git("status", "--porcelain", "--untracked-files=no"))}


def run_once(tree: Path, workload: str, seconds: int) -> dict:
    """One benchmark process in ``tree``; its final JSON line, plus the wall time."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
            "--seconds", str(seconds), "--trace", "0"]
    with tempfile.TemporaryDirectory(prefix="bench-pycache-") as cache:
        env = os.environ | {"PYTHONPYCACHEPREFIX": cache}
        t0 = time.perf_counter()
        done = subprocess.run(argv, cwd=tree, capture_output=True, text=True, env=env)
        wall = time.perf_counter() - t0
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(argv)} in {tree} exited {done.returncode}:\n"
                         f"{done.stderr[-2000:]}")
    result = json.loads(lines[-1])
    return {key: result[key] for key in ("correct", "attempted", "failed")} | {
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
        "wall_s": wall}


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"median": median, "q1": q1, "q3": q3}


def summarize(pairs: list[dict], metric: dict) -> dict:
    """Medians, quartiles, wins, the median's relative change and the verdict."""
    name, lower = metric["name"], metric["better"] == "lower"
    values = {side: [p[side]["metrics"][name] for p in pairs] for side in SIDES}
    wins = sum((c < p) if lower else (c > p) for p, c in zip(values["parent"], values["change"]))
    stats = {side: quartiles(values[side]) for side in SIDES}
    parent, change = stats["parent"]["median"], stats["change"]["median"]
    worse_by = ((change - parent) if lower else (parent - change)) / parent if parent else 0.0
    spread = (stats["parent"]["q3"] - stats["parent"]["q1"]) / parent if parent else 0.0
    bound = metric["bound"]
    clear = (max(values["change"]) < min(values["parent"]) if lower
             else min(values["change"]) > max(values["parent"]))
    verdict = ("unresolved" if spread > bound and not clear
               else "within_bound" if worse_by <= bound else "worse")
    return {"unit": metric["unit"], "better": metric["better"], "bound": bound,
            **stats, "wins": f"{wins}/{len(pairs)}", "worse_by": worse_by,
            "parent_spread": spread, "verdict": verdict,
            "pairs": [[p, c] for p, c in zip(values["parent"], values["change"])]}


def main(argv: list[str]) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--label", required=True)
    args = parser.parse_args(argv)
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for tree in trees.values():
        if not (tree / "perfbench" / "run.py").is_file():
            parser.error(f"{tree} has no perfbench/run.py")

    import numpy
    record = {
        "label": args.label,
        "environment": {"python": platform.python_version(), "numpy": numpy.__version__,
                        "platform": platform.platform(), "machine": platform.machine(),
                        "cpus": os.cpu_count(),
                        "bytecode": "each run compiles into its own empty PYTHONPYCACHEPREFIX",
                        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE")},
        "revisions": {side: revision(tree) for side, tree in trees.items()},
        "settings": {"pairs": PAIRS, "seconds": spec["run_seconds"], "seed": SEED},
        "workloads": {},
    }
    for workload in (w["name"] for w in spec["workloads"]):
        pairs = []
        for i in range(PAIRS):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            pair = {"first": order[0]}
            for side in order:
                pair[side] = run_once(trees[side], workload, spec["run_seconds"])
                print(f"{workload} pair {i + 1}/{PAIRS} {side}: "
                      f"{json.dumps(pair[side]['metrics'])}", file=sys.stderr)
            pairs.append(pair)
        record["workloads"][workload] = {
            "runs": pairs,
            "failed_ops": {side: sum(p[side]["failed"] for p in pairs) for side in SIDES},
            "all_correct": {side: all(p[side]["correct"] for p in pairs) for side in SIDES},
            "metrics": {m["name"]: summarize(pairs, m) for m in spec["end_to_end"]},
        }
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
