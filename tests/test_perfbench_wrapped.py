"""The program names perfbench's layer wrappers patch must keep resolving.

``perfbench/layers.py`` swaps a wrapper onto each ``WRAPPED`` entry point
by name when a traced block starts.  A renamed or moved entry point would
otherwise surface only in a traced benchmark run; this test reads the
table (it never installs the wrappers) and resolves every entry the way
the wrappers do: a class attribute must be defined on the class itself,
not inherited, and a module function must be a module global.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

LAYERS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"


def load_wrapped():
    """The literal ``WRAPPED`` table, read from the source without importing it."""
    for node in ast.parse(LAYERS_PATH.read_text()).body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(getattr(t, "id", None) == "WRAPPED" for t in targets):
                return ast.literal_eval(node.value)
    raise AssertionError(f"no WRAPPED table in {LAYERS_PATH}")


WRAPPED = load_wrapped()


def test_the_table_is_not_empty():
    assert len(WRAPPED) >= 20


@pytest.mark.parametrize(
    "module_name, owner_name, attribute, layer",
    WRAPPED,
    ids=[f"{row[3]}:{row[1] or row[0]}.{row[2]}" for row in WRAPPED],
)
def test_wrapped_entry_point_resolves(module_name, owner_name, attribute, layer):
    module = importlib.import_module(module_name)
    if owner_name is None:
        assert callable(vars(module).get(attribute)), (
            f"{module_name}.{attribute} is not a module global ({layer})"
        )
    else:
        owner = getattr(module, owner_name)
        assert callable(owner.__dict__.get(attribute)), (
            f"{module_name}.{owner_name}.{attribute} is not defined on the class ({layer})"
        )
