"""Every top-level import in a ``repro`` module is used by that module.

CI runs no linter, so this is the guard against dead imports.  Package
``__init__.py`` files are exempt: their imports are re-exports.  A name
counts as used when it appears as an identifier anywhere in the module,
including inside a string annotation (``"PictureRetrievalSystem"`` under
``TYPE_CHECKING``).
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
MODULES = sorted(
    path for path in SRC.rglob("*.py") if path.name != "__init__.py"
)


def _top_level_imports(tree):
    """(line, bound name) of every module-level import, also those nested
    in a module-level ``if`` / ``try``."""
    pending = list(tree.body)
    while pending:
        node = pending.pop(0)
        if isinstance(node, (ast.If, ast.Try)):
            pending.extend(node.body)
            pending.extend(node.orelse)
            for handler in getattr(node, "handlers", ()):
                pending.extend(handler.body)
            pending.extend(getattr(node, "finalbody", ()))
        elif isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name


def _referenced_names(tree):
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                annotation = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            names.update(
                sub.id for sub in ast.walk(annotation) if isinstance(sub, ast.Name)
            )
    return names


def test_modules_found():
    assert len(MODULES) > 50


@pytest.mark.parametrize(
    "path", MODULES, ids=[str(path.relative_to(SRC)) for path in MODULES]
)
def test_no_unused_top_level_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    referenced = _referenced_names(tree)
    unused = [
        f"line {line}: {name}"
        for line, name in _top_level_imports(tree)
        if name not in referenced
    ]
    assert not unused, f"unused imports in {path.relative_to(SRC)}: {unused}"
