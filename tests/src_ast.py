"""Syntax-tree helpers shared by the src hygiene guards
(``test_src_imports.py`` and ``test_src_surface.py``)."""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Optional, Set

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def annotation_names(annotation: ast.AST) -> Set[str]:
    """Names read by an annotation, looking inside quoted ones too."""
    names = set()
    for node in ast.walk(annotation):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                names |= annotation_names(ast.parse(node.value, mode="eval"))
            except SyntaxError:
                pass
    return names


def read_names(tree: ast.Module) -> Set[str]:
    """Every name the module reads, quoted annotations included."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            names |= annotation_names(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            names |= annotation_names(node.returns)
        elif isinstance(node, ast.AnnAssign):
            names |= annotation_names(node.annotation)
    return names


def all_assignment(tree: ast.Module) -> Optional[ast.Assign]:
    """The module-level ``__all__ = [...]`` statement, if there is one."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            getattr(target, "id", None) == "__all__" for target in node.targets
        ):
            return node
    return None


def exported(tree: ast.Module) -> Set[str]:
    """The string entries of a literal module-level ``__all__``."""
    node = all_assignment(tree)
    return set(ast.literal_eval(node.value)) if node is not None else set()
