"""The package never relies on ``assert`` for a check: ``python -O`` strips them."""

import ast
from pathlib import Path

import cascsim

PACKAGE = Path(cascsim.__file__).resolve().parent


def test_package_sources_have_no_assert_statements():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources, f"no sources found under {PACKAGE}"
    found = []
    for path in sources:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found, f"assert statements (stripped by -O) at: {', '.join(found)}"
