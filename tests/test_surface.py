"""Public names of the package must be used by the program itself.

A public module-level function or class of ``mola`` that no code in
``src/``, ``scripts/`` or ``perfbench/`` refers to exists only for the
tests; such code is deleted together with its tests instead of kept.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "mola"

# name -> why it stays although only tests call it
ALLOWED = {
    "model.save_checkpoint": "the frozen-checkpoint acceptance test writes the foundation with it",
    "adapt.save_adapter": "the inverse of load_adapter, which the CLI reads adapters with",
}


def _references(node, module: str) -> set[str]:
    """Names of ``module`` that ``node`` refers to from outside it: as
    ``module.name``, by ``from ... module import name``, or as the string
    ``"module.name"`` (the benchmark tracer patches functions by such names)."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name):
            if sub.value.id == module:
                names.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom) and (sub.module or "").rsplit(".", 1)[-1] == module:
            names.update(alias.name for alias in sub.names)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            prefix, _, rest = sub.value.partition(".")
            if prefix == module:
                names.add(rest)
    return names


def _own_references(node) -> set[str]:
    """Bare names ``node`` reads, i.e. references from inside a module."""
    return {sub.id for sub in ast.walk(node) if isinstance(sub, ast.Name)}


def _public_definitions(tree) -> dict[str, ast.AST]:
    return {
        node.name: node
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    }


def test_every_public_name_is_used_outside_tests():
    files = [p for d in ("src", "scripts", "perfbench") for p in sorted((ROOT / d).rglob("*.py"))]
    trees = {p: ast.parse(p.read_text(encoding="utf-8")) for p in files}
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        own = _public_definitions(trees[path])
        for name, definition in own.items():
            used = any(
                name in (_own_references(node) if p == path else _references(node, path.stem))
                for p, tree in trees.items()
                for node in tree.body
                if node is not definition
            )
            if not used and f"{path.stem}.{name}" not in ALLOWED:
                unused.append(f"{path.stem}.{name}")
    assert unused == [], f"public names only tests use: {unused}"
