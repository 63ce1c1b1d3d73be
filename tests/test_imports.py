"""Dead-code and single-writer scans over the pilotq sources.

Every name a pilotq module imports is used in that module, and every private
(`_`-prefixed) module-level function, class or constant is referenced
somewhere in the package, and no module imports another pilotq module's
private name. The task store is the only module that writes
task-lifecycle events: outside `store.py`, every `.emit(...)` names its
event with a string literal, and never a lifecycle one. No linter ships
with the project, so these walk each module's AST instead. The import scan
skips package `__init__` modules: their imports are re-exports.
"""

import ast
import subprocess
import sys
from pathlib import Path

import pilotq

PACKAGE = Path(pilotq.__file__).parent


def _annotation_names(node: ast.expr | None) -> set[str]:
    """Names inside a quoted annotation such as `-> "Circuit"`."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        tree = ast.parse(node.value, mode="eval")
        return {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return set()


def _names_read(tree: ast.Module) -> set[str]:
    """Names a module reads, including those inside quoted annotations."""
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            used.add(node.id)
        elif isinstance(node, ast.arg):
            used |= _annotation_names(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            used |= _annotation_names(node.returns)
        elif isinstance(node, ast.AnnAssign):
            used |= _annotation_names(node.annotation)
    return used


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = _names_read(tree)
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


def _private_definitions(tree: ast.Module) -> list[tuple[str, int]]:
    """Module-level `_name` functions, classes and assigned constants."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.append((node.name, node.lineno))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found += [(t.id, node.lineno) for t in targets if isinstance(t, ast.Name)]
    return [(n, line) for n, line in found if n.startswith("_") and not n.startswith("__")]


def _references(tree: ast.Module) -> set[str]:
    """Names read, attributes taken and names imported anywhere in a module."""
    refs = _names_read(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            refs |= {alias.name for alias in node.names}
    return refs


def unreferenced_private_names(sources: dict[str, str]) -> list[str]:
    """`module:line name` for each private definition no module refers to."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    referenced = set().union(*(_references(tree) for tree in trees.values()))
    return sorted(
        f"{module}:{line} {name}"
        for module, tree in trees.items()
        for name, line in _private_definitions(tree)
        if name not in referenced
    )


def test_every_private_module_level_name_is_referenced():
    sources = {
        str(path.relative_to(PACKAGE)): path.read_text(encoding="utf-8")
        for path in sorted(PACKAGE.rglob("*.py"))
    }
    assert unreferenced_private_names(sources) == []


def test_the_private_name_scan_flags_only_unreferenced_names():
    sources = {
        "a.py": (
            "_LIMIT = 3\n"
            "_unused_total: int = 0\n"
            "class _Shape: pass\n"
            "def _helper(): return _LIMIT\n"
            "def _session_payload(): return {}\n"
            "def public(x: '_Shape'): return x\n"
            "__all__ = ['public']\n"
        ),
        "b.py": "from a import _helper\n_helper()\n",
    }
    assert unreferenced_private_names(sources) == [
        "a.py:2 _unused_total",
        "a.py:5 _session_payload",
    ]


def private_imports(source: str) -> list[str]:
    """`line name` for each `_name` imported from a pilotq module."""
    return sorted(
        f"line {node.lineno}: {alias.name}"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").split(".")[0] == "pilotq")
        for alias in node.names
        if alias.name.startswith("_") and not alias.name.startswith("__")
    )


def test_no_module_imports_another_modules_private_name():
    found = {
        str(path.relative_to(PACKAGE)): names
        for path in sorted(PACKAGE.rglob("*.py"))
        if (names := private_imports(path.read_text(encoding="utf-8")))
    }
    assert found == {}


def test_the_private_import_scan_flags_only_pilotq_private_names():
    source = (
        "from pilotq.qsim.simulate import apply_gate, _FIXED_ROWS\n"
        "from pilotq import __version__\n"
        "from os.path import _joinrealpath\n"
        "from .gradients import adjoint_sweep, _GENERATOR\n"
        "import pilotq._hidden\n"
    )
    assert private_imports(source) == ["line 1: _FIXED_ROWS", "line 4: _GENERATOR"]


def test_every_exported_name_resolves_once():
    import pilotq.bench
    import pilotq.qsim

    for package in (pilotq, pilotq.qsim, pilotq.bench):
        exported = package.__all__
        assert len(exported) == len(set(exported)), package.__name__
        assert [name for name in exported if not hasattr(package, name)] == [], package.__name__


LIFECYCLE_EVENTS = frozenset(
    {"task_submitted", "task_started", "task_done", "task_retry", "task_failed", "task_canceled"}
)


def _emitted_event(call: ast.Call) -> ast.expr | None:
    """The event argument of `log.emit(entity, entity_id, event, ...)`."""
    if len(call.args) >= 3:
        return call.args[2]
    return next((kw.value for kw in call.keywords if kw.arg == "event"), None)


def lifecycle_emits(source: str) -> list[int]:
    """Lines of `.emit` calls whose event is a lifecycle name or not a literal."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "emit"
        and not (
            isinstance(event := _emitted_event(node), ast.Constant)
            and isinstance(event.value, str)
            and event.value not in LIFECYCLE_EVENTS
        )
    )


def test_only_the_store_emits_task_lifecycle_events():
    found = {
        str(path.relative_to(PACKAGE)): lines
        for path in sorted(PACKAGE.rglob("*.py"))
        if path != PACKAGE / "store.py"
        and (lines := lifecycle_emits(path.read_text(encoding="utf-8")))
    }
    assert found == {}


def test_the_emit_scan_flags_lifecycle_and_computed_events():
    source = (
        'log.emit("pilot", name, "agent_ready", cores=2)\n'
        'log.emit("task", tid, "task_assigned", pilot=name)\n'
        'log.emit("task", tid, "task_done", pilot=name)\n'
        'log.emit("task", tid, event=name)\n'
        'log.emit("task", tid, event="task_retry")\n'
        'log.emit_later("task", tid, "task_failed")\n'
    )
    assert lifecycle_emits(source) == [3, 4, 5]


def test_importing_pilotq_leaves_multiprocessing_connection_unloaded():
    # only a host worker process and its parent's pipe ends need it
    script = "import sys, pilotq; print('multiprocessing.connection' in sys.modules)"
    done = subprocess.run(
        [sys.executable, "-c", f"import sys; sys.path.insert(0, {str(PACKAGE.parent)!r}); {script}"],
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    assert done.stdout.split() == ["False"]
