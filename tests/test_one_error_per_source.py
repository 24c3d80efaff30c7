"""One error type per input source, raised where the check fails and never rewrapped.

``errors.py`` defines exactly four classes, and no handler in the package
catches every exception: a broad ``except`` would turn a genuine bug into an
input error and hide the field path of the check that failed.
"""

import ast
from pathlib import Path

import cascsim

PACKAGE = Path(cascsim.__file__).resolve().parent


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def test_errors_module_defines_exactly_four_classes():
    tree = parse(PACKAGE / "errors.py")
    classes = sorted(node.name for node in tree.body if isinstance(node, ast.ClassDef))
    assert classes == ["CascSimError", "ConfigError", "InvariantError", "TraceError"]


def test_no_bare_or_broad_except():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources, f"no sources found under {PACKAGE}"
    broad = ("Exception", "BaseException")
    found = []
    for path in sources:
        for node in ast.walk(parse(path)):
            if not isinstance(node, ast.ExceptHandler):
                continue
            caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            if node.type is None or any(isinstance(c, ast.Name) and c.id in broad
                                        for c in caught):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"bare or broad except at: {', '.join(found)}"
