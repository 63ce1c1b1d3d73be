"""Every name a pilotq module imports is used in that module.

No linter ships with the project, so this walks each module's AST instead.
Package `__init__` modules are skipped: their imports are re-exports.
"""

import ast
from pathlib import Path

import pilotq

PACKAGE = Path(pilotq.__file__).parent


def _annotation_names(node: ast.expr | None) -> set[str]:
    """Names inside a quoted annotation such as `-> "Circuit"`."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        tree = ast.parse(node.value, mode="eval")
        return {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return set()


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg):
            used |= _annotation_names(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            used |= _annotation_names(node.returns)
        elif isinstance(node, ast.AnnAssign):
            used |= _annotation_names(node.annotation)
    return sorted(f"line {line}: {name}" for name, line in imported.items() if name not in used)


def test_no_module_imports_a_name_it_never_uses():
    modules = sorted(p for p in PACKAGE.rglob("*.py") if p.name != "__init__.py")
    assert modules
    found = {
        str(path.relative_to(PACKAGE)): unused
        for path in modules
        if (unused := unused_imports(path.read_text(encoding="utf-8")))
    }
    assert found == {}


def test_the_scan_flags_only_unused_names():
    source = (
        "from __future__ import annotations\n"
        "import os, json\n"
        "from dataclasses import dataclass, field\n"
        "def f(x: 'Path') -> 'dataclass':\n"
        "    return os.sep\n"
        "from pathlib import Path\n"
    )
    assert unused_imports(source) == ["line 2: json", "line 3: field"]
