"""Every public name in the package has a caller inside the package.

A name is public when it does not start with ``_``. A top-level name counts as
used when some other place in the package refers to it: a load of the name, an
attribute of that name, or an import of it (the re-exports in ``__init__``
included). A public method or property of a package class counts as used when
some attribute of its name is looked up in the package outside its own body.
A public name whose only users are tests is a helper kept for its own tests.

The check is by name only: it does not know which class an attribute lookup
reaches, so same-named members of different classes (or a member and an
unrelated attribute of the same name) mask each other.
"""

import ast
from collections import Counter
from pathlib import Path

import cascsim

PACKAGE = Path(cascsim.__file__).resolve().parent


def package_trees() -> dict[str, ast.Module]:
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources, f"no sources found under {PACKAGE}"
    return {path.name: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
            for path in sources}


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


def class_members(tree: ast.Module) -> list[tuple[str, ast.FunctionDef]]:
    """The public methods and properties of every class a module defines."""
    return [(cls.name, node) for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
            for node in cls.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not node.name.startswith("_")]


def attribute_lookups(node: ast.AST) -> Counter:
    """How often each attribute name is looked up inside ``node``."""
    return Counter(n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute))


def test_every_public_name_is_used_inside_the_package():
    trees = package_trees()
    used = set().union(*(referenced_names(tree) for tree in trees.values()))
    unused = [f"{module}:{line} {name}" for module, tree in trees.items()
              for name, line in defined_names(tree) if name not in used]
    assert not unused, f"public names no package code uses: {', '.join(unused)}"


def test_every_public_class_member_is_used_inside_the_package():
    trees = package_trees()
    lookups = sum((attribute_lookups(tree) for tree in trees.values()), Counter())
    unused = [f"{module}:{member.lineno} {cls}.{member.name}"
              for module, tree in trees.items() for cls, member in class_members(tree)
              if lookups[member.name] == attribute_lookups(member)[member.name]]
    assert not unused, f"public class members no package code uses: {', '.join(unused)}"
