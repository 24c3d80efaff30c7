"""The keep/forward rule is written once, in ``cascade.forwards``."""

import ast
from pathlib import Path

import cascsim

PACKAGE = Path(cascsim.__file__).resolve().parent
ORDERINGS = (ast.Lt, ast.LtE, ast.Gt, ast.GtE)


def is_confidence_gap(node: ast.expr) -> bool:
    """A name or attribute whose name contains ``bvsb``, possibly subscripted."""
    while isinstance(node, ast.Subscript):
        node = node.value
    name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", "")
    return "bvsb" in name


def gap_comparisons(tree: ast.AST) -> list[ast.Compare]:
    """Ordering comparisons with a confidence-gap operand."""
    return [node for node in ast.walk(tree)
            if isinstance(node, ast.Compare)
            and any(isinstance(op, ORDERINGS) for op in node.ops)
            and any(is_confidence_gap(x) for x in (node.left, *node.comparators))]


def test_only_forwards_compares_a_confidence_gap():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources, f"no sources found under {PACKAGE}"
    found, rule = [], []
    for path in sources:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        if path.name == "cascade.py":
            rule = [c for node in tree.body if isinstance(node, ast.FunctionDef)
                    and node.name == "forwards" for c in gap_comparisons(node)]
        found += [f"{path.name}:{c.lineno}" for c in gap_comparisons(tree) if c not in rule]
    assert not found, f"keep/forward comparisons outside cascade.forwards at: {', '.join(found)}"
    assert len(rule) == 1, "cascade.forwards should hold the one keep/forward comparison"
