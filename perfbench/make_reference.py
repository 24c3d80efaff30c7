"""Regenerate ``reference.json``: the output digests each workload must reproduce.

Usage (from the repository root, on a commit whose outputs are known good):

    python3 perfbench/make_reference.py --seeds 0-20

Runs one body of every workload per seed and stores what ``run.py`` checks:
the SHA-256 of every report, ``sweep.csv`` and ``calibrate`` JSON, and the
per-kind event counts of the event log. A body whose invariants fail is not
stored. Seeds already in the file are kept unless regenerated.
"""

from __future__ import annotations

import argparse
import json
import sys

from run import REFERENCE, WORK, import_cascsim
from spans import Installation
from workloads import WORKLOADS, RunObserver


def parse_seeds(raw: str) -> list[int]:
    seeds = []
    for part in raw.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1", help="e.g. 1 or 0-20 or 1,5,9")
    args = parser.parse_args(argv)
    import_cascsim()
    reference = json.loads(REFERENCE.read_text(encoding="utf-8")) if REFERENCE.is_file() else {}
    observer = RunObserver()
    observed = Installation()
    observed.wrap_attr("cascsim.cli", "run_simulation", observer.wrap)
    try:
        for seed in parse_seeds(args.seeds):
            for name, cls in WORKLOADS.items():
                workload = cls(seed, WORK / name)
                workload.prepare()
                body = workload.run_body(observer, None)
                workload.cleanup()
                if body.problems or body.failed:
                    print(f"{name} seed {seed}: not stored: {body.problems}", file=sys.stderr)
                    return 1
                reference.setdefault(name, {})[str(seed)] = body.outputs
                print(f"{name} seed {seed}: {body.seconds:.2f} s", flush=True)
    finally:
        observed.remove()
    for name in reference:
        reference[name] = dict(sorted(reference[name].items(), key=lambda kv: int(kv[0])))
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=False) + "\n",
                         encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
