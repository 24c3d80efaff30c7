"""Print the SHA-256 digest of every output of a fixed matrix of cascsim runs.

Usage::

    python tools/output_digests.py SRC_DIR > digests.txt

``SRC_DIR`` is the directory that holds the ``cascsim`` package (``src`` in a
checkout). For every shipped preset under both schedulers, with seeds 1 and 2,
the matrix runs

- ``simulate --event-log`` at 12 and at 42 devices: ``report_seed*.json``,
  ``report_mean.json`` and ``events_seed*.tsv``;
- ``sweep --devices 6..30:12``: ``sweep.csv``;

and, once per preset, ``calibrate --config`` (its stdout). Each line is
``<sha256>  <preset>/<run>/<file>``. Run it on two trees and diff the two
outputs: a change that keeps every output byte-identical prints the same lines.
"""

from __future__ import annotations

import hashlib
import io
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

SEEDS = "1,2"
SIMULATE_DEVICES = (12, 42)
SWEEP_DEVICES = "6..30:12"
SCHEDULERS = ("multitasc", "static")


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
                lines += [f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {name}/{path.name}"
                          for path in sorted(out.iterdir())]
            sweep = run(cli, ["sweep", "--config", preset, "--scheduler", kind,
                              "--devices", SWEEP_DEVICES, "--seed-list", SEEDS])
            lines.append(f"{hashlib.sha256(sweep).hexdigest()}  {preset}/sweep_{kind}/sweep.csv")
        calibrate = run(cli, ["calibrate", "--config", preset])
        lines.append(f"{hashlib.sha256(calibrate).hexdigest()}  {preset}/calibrate/stdout")
    return lines


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
