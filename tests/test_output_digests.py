"""Every output of the fixed run matrix of ``tools/output_digests.py`` matches the
digests committed in ``tools/output_digests.txt``, byte for byte.

A change that alters an output on purpose rewrites the file in the same diff
(``python tools/output_digests.py src > tools/output_digests.txt``) and says which
lines changed and why.
"""

import importlib.util
import platform
from pathlib import Path

import numpy as np

import cascsim.cli

TOOLS = Path(__file__).resolve().parent.parent / "tools"
EXPECTED = TOOLS / "output_digests.txt"


def by_name(lines) -> dict[str, str]:
    """``<sha256>  <preset>/<run>/<file>`` lines as {name: digest}."""
    return {name: digest for digest, name in (line.split("  ", 1) for line in lines)}


def test_every_output_matches_the_committed_digests(tmp_path):
    spec = importlib.util.spec_from_file_location("output_digests", TOOLS / "output_digests.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    got = by_name(tool.digests(cascsim.cli, tmp_path))
    want = by_name(EXPECTED.read_text(encoding="utf-8").splitlines())
    differ = [("missing" if name not in got else "new" if name not in want else "changed")
              + f": {name}" for name in sorted(want.keys() | got.keys())
              if got.get(name) != want.get(name)]
    assert not differ, (f"{len(differ)} of {len(want)} outputs differ from {EXPECTED.name} "
                        f"(Python {platform.python_version()}, numpy {np.__version__}):\n"
                        + "\n".join(differ))
