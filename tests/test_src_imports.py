"""Every module-level import in ``src`` is used.

The project configures no linter, so an import left behind by a refactor
stays until someone notices it.  This test reads each module's syntax tree
and fails on a name that a module-level import binds but the module never
reads.  Package ``__init__.py`` files (whose imports are re-exports) and
names listed in a module's ``__all__`` are skipped; a name read only in a
quoted annotation counts as used.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, Iterator, List

from src_ast import SRC, exported, read_names


def _module_imports(tree: ast.Module) -> Iterator[ast.stmt]:
    """Import statements at module level, including inside top-level
    ``if``/``try`` blocks (but not inside functions or classes)."""
    pending: List[ast.stmt] = list(tree.body)
    while pending:
        node = pending.pop(0)
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif isinstance(node, ast.If):
            pending.extend(node.body + node.orelse)
        elif isinstance(node, ast.Try):
            pending.extend(node.body + node.orelse + node.finalbody)
            for handler in node.handlers:
                pending.extend(handler.body)


def _bound_names(node: ast.stmt) -> Dict[str, int]:
    """The names an import statement binds, with its line number."""
    if isinstance(node, ast.ImportFrom) and node.module == "__future__":
        return {}
    bound = {}
    for alias in node.names:
        if alias.name == "*":
            continue
        name = alias.asname or alias.name.split(".")[0]
        bound[name] = node.lineno
    return bound


def unused_imports(path: Path) -> List[str]:
    """``name (line N)`` for each module-level import ``path`` never reads."""
    tree = ast.parse(path.read_text(), filename=str(path))
    read = read_names(tree) | exported(tree)
    unused = []
    for node in _module_imports(tree):
        for name, line in _bound_names(node).items():
            if name not in read:
                unused.append(f"{name} (line {line})")
    return unused


def test_the_scan_sees_the_source_tree():
    modules = [p for p in SRC.rglob("*.py") if p.name != "__init__.py"]
    assert len(modules) > 50


def test_the_scan_flags_an_unused_import(tmp_path):
    module = tmp_path / "sample.py"
    module.write_text(
        "from __future__ import annotations\n"
        "import os, sys\n"
        "from typing import TYPE_CHECKING, List, Optional\n"
        "if TYPE_CHECKING:\n"
        "    from decimal import Decimal\n"
        "from json import dumps as to_json\n"
        "__all__ = ['to_json']\n"
        "def f(x: 'Optional[Decimal]') -> List[int]:\n"
        "    return [os.getpid()]\n"
    )
    assert unused_imports(module) == ["sys (line 2)"]


def test_no_module_in_src_has_an_unused_import():
    found = {}
    for path in sorted(SRC.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        unused = unused_imports(path)
        if unused:
            found[str(path.relative_to(SRC))] = unused
    assert not found, f"module-level imports never used: {found}"
