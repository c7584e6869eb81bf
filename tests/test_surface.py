"""Public names of the package must be used by the program itself.

A public module-level function or class of ``mola`` that no code in
``src/``, ``scripts/`` or ``perfbench/`` refers to exists only for the
tests; such code is deleted together with its tests instead of kept.
Each exception in ``ALLOWED`` must name a definition that still exists
and that still only tests use.

No module of ``mola`` reads another module's underscore names: what one
module needs from another is public there.

The README's statements of the checkpoint formats must name the versions
the package writes.
"""

import ast
import re
from pathlib import Path

import pytest

from mola import adapt, model

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "mola"

# name -> why it stays although only tests call it
ALLOWED = {
    "model.save_checkpoint": "the frozen-checkpoint acceptance test writes the foundation with it",
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


def _public_names() -> tuple[set[str], set[str]]:
    """(``module.name`` of every public definition of the package, those of
    them that code outside the tests refers to)."""
    files = [p for d in ("src", "scripts", "perfbench") for p in sorted((ROOT / d).rglob("*.py"))]
    trees = {p: ast.parse(p.read_text(encoding="utf-8")) for p in files}
    defined, used = set(), set()
    for path in sorted(PACKAGE.glob("*.py")):
        for name, definition in _public_definitions(trees[path]).items():
            defined.add(f"{path.stem}.{name}")
            if any(
                name in (_own_references(node) if p == path else _references(node, path.stem))
                for p, tree in trees.items()
                for node in tree.body
                if node is not definition
            ):
                used.add(f"{path.stem}.{name}")
    return defined, used


def test_every_public_name_is_used_outside_tests():
    defined, used = _public_names()
    unused = sorted(defined - used - ALLOWED.keys())
    assert unused == [], f"public names only tests use: {unused}"


def test_every_allowed_name_exists_and_only_tests_use_it():
    # an exception outlives its reason when its name is gone or the program
    # has started to use it
    defined, used = _public_names()
    missing = sorted(ALLOWED.keys() - defined)
    assert missing == [], f"ALLOWED names that no longer exist: {missing}"
    in_use = sorted(ALLOWED.keys() & used)
    assert in_use == [], f"ALLOWED names that code outside the tests uses: {in_use}"


def test_no_module_reads_another_modules_private_names():
    modules = {path.stem for path in PACKAGE.glob("*.py")}
    reads = []
    for path in sorted(PACKAGE.glob("*.py")):
        for sub in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name):
                module, names = sub.value.id, [sub.attr]
            elif isinstance(sub, ast.ImportFrom) and sub.module:
                module, names = sub.module.rsplit(".", 1)[-1], [a.name for a in sub.names]
            else:
                continue
            if module in modules - {path.stem}:
                reads += [f"{path.stem} reads {module}.{name}" for name in names
                          if name.startswith("_") and not name.startswith("__")]
    assert reads == [], f"private names read across modules: {reads}"


@pytest.mark.parametrize("subject, version", [
    (r"Model checkpoints \(`foundation\.json`, `arf\.json`, `mtf\.json`\)",
     model.CHECKPOINT_FORMAT_VERSION),
    (r"Adapter checkpoints \(`adapter\.json`\)", adapt.ADAPTER_FORMAT_VERSION),
], ids=["model", "adapter"])
def test_readme_states_the_checkpoint_formats_the_package_writes(subject, version):
    readme = " ".join((ROOT / "README.md").read_text(encoding="utf-8").split())
    stated = re.findall(subject + r" are format (\d+)", readme)
    assert stated == [str(version)], f"README says format {stated}, the package writes {version}"
