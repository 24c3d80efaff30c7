"""Every public top-level name in the package has a caller inside the package.

A name is public when it does not start with ``_``. It counts as used when
some other place in the package refers to it: a load of the name, an attribute
of that name, or an import of it (the re-exports in ``__init__`` included).
A public name whose only users are tests is a helper kept for its own tests.
"""

import ast
from pathlib import Path

import cascsim

PACKAGE = Path(cascsim.__file__).resolve().parent


def defined_names(tree: ast.Module) -> list[tuple[str, int]]:
    """The public names a module binds at its top level, with their lines."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.append((node.name, node.lineno))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            out += [(t.id, node.lineno) for t in targets if isinstance(t, ast.Name)]
    return [(name, line) for name, line in out if not name.startswith("_")]


def referenced_names(tree: ast.Module) -> set[str]:
    """Every name a module reads, looks up as an attribute or imports."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
    return out


def test_every_public_name_is_used_inside_the_package():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources, f"no sources found under {PACKAGE}"
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
             for path in sources}
    used = set().union(*(referenced_names(tree) for tree in trees.values()))
    unused = [f"{module}:{line} {name}" for module, tree in trees.items()
              for name, line in defined_names(tree) if name not in used]
    assert not unused, f"public names no package code uses: {', '.join(unused)}"
