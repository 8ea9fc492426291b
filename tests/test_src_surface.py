"""Every public definition in ``src`` is read by the program, not only by tests.

A helper that only its own tests call is dead weight: it has to be kept
right and read, yet no run of the program reaches it.  This test collects
the public module-level functions and classes in ``src``, and the public
methods and properties of those classes.  It fails on one whose name is
never read in ``src/``, ``examples/``, ``benchmarks/`` or ``perfbench/``.
A read is an identifier, an attribute, a name in a quoted annotation, or
a component of a dotted string (perfbench wraps methods it names in
strings).  Import statements bind names without reading them, so a
re-export from ``__init__.py`` is not a read, and neither is an
``__all__`` entry.

The scan matches names, not owners: a method stays when any other object
has a read attribute of the same name.  So a pass proves less than a
failure does.
"""

from __future__ import annotations

import ast
import functools
from pathlib import Path
from typing import Iterator, List, Optional, Set, Tuple

import pytest

from src_ast import ROOT, SRC, all_assignment, read_names

#: Directories whose reads keep a src definition alive.
READERS = ("src", "examples", "benchmarks", "perfbench")

#: Definitions called from outside the repo's Python files, each with its
#: caller.
ALLOWED = {
    "JsonLineFormatter.format": "logging.Handler.format calls it for every record",
}


def _definitions(tree: ast.Module) -> Iterator[Tuple[str, str, int]]:
    """``(name, qualified name, line)`` of each public module-level function
    and class, and of each public method or property of those classes."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if not isinstance(node, defs) or node.name.startswith("_"):
            continue
        yield node.name, node.name, node.lineno
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, defs[:2]) and not member.name.startswith("_"):
                    yield member.name, f"{node.name}.{member.name}", member.lineno


def _reads(tree: ast.Module) -> Set[str]:
    """Identifiers, attributes and dotted-string components the module reads,
    leaving out its ``__all__`` entries."""
    names = read_names(tree)
    exports = all_assignment(tree)
    skipped = set(map(id, ast.walk(exports))) if exports is not None else set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in skipped):
            parts = node.value.split(".")
            if all(part.isidentifier() for part in parts):
                names.update(parts)
    return names


def names_read(readers: List[Path]) -> Set[str]:
    """Every name that some ``*.py`` file under ``readers`` reads."""
    read: Set[str] = set()
    for directory in readers:
        for path in sorted(directory.rglob("*.py")):
            read |= _reads(ast.parse(path.read_text(), filename=str(path)))
    return read


def unread_definitions(src: Path, read: Set[str]) -> List[str]:
    """Qualified names of the definitions under ``src`` whose name is not in
    ``read``, each as ``qualname (path:line)``."""
    unread = []
    for path in sorted(src.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for name, qualname, line in _definitions(tree):
            if name not in read:
                unread.append(f"{qualname} ({path.relative_to(src)}:{line})")
    return unread


@functools.lru_cache(maxsize=None)
def _repo_reads() -> frozenset:
    return frozenset(names_read([ROOT / name for name in READERS]))


def _repo_unread() -> List[str]:
    return unread_definitions(SRC, _repo_reads())


def _with_stub(source: str, owner: Optional[str], name: str) -> str:
    """``source`` with a method ``name`` added at the end of class ``owner``,
    or with a module-level function ``name`` when ``owner`` is ``None``."""
    if owner is None:
        return source + f"\n\ndef {name}():\n    return None\n"
    lines = source.splitlines(keepends=True)
    tree = ast.parse(source)
    (cls,) = [node for node in tree.body
              if isinstance(node, ast.ClassDef) and node.name == owner]
    stub = f"\n    def {name}(self):\n        return None\n"
    return "".join(lines[:cls.end_lineno] + [stub] + lines[cls.end_lineno:])


#: Definitions that were deleted because only tests read them, one from
#: each of 14 modules, as ``(module under src/repro, owning class or None,
#: name)``.  Nothing in the program reads these names, so putting any of
#: them back fails the guard.
DELETED = [
    ("archsyn/occupancy.py", "Interval", "shares_group_with"),
    ("archsyn/grid.py", "ConnectionGrid", "edge_distance_to_node"),
    ("devices/channel.py", "ChannelSegment", "other_endpoint"),
    ("devices/storage.py", "DedicatedStorageUnit", "max_queueing_delay"),
    ("graph/sequencing_graph.py", "SequencingGraph", "total_duration"),
    ("graph/library.py", None, "build_protein_split"),
    ("ilp/model.py", None, "weighted_objective"),
    ("ilp/expression.py", "Variable", "is_"),
    ("obs/trace.py", "TraceRecorder", "open_spans"),
    ("obs/metrics.py", "Gauge", "dec"),
    ("physical/geometry.py", "Rect", "contains_point"),
    ("scheduling/schedule.py", "Schedule", "is_complete"),
    ("scheduling/transport.py", "TransportTask", "is_eviction"),
    ("synthesis/flow.py", "SynthesisResult", "total_runtime_s"),
]


def test_the_scan_flags_a_definition_only_tests_read(tmp_path):
    package = tmp_path / "src" / "pkg"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text(
        "from pkg.mod import Widget, reexported\n"
        "__all__ = ['Widget', 'reexported']\n"
    )
    (package / "mod.py").write_text(
        "class Widget:\n"
        "    def run(self):\n"
        "        return self._helper()\n"
        "    def _helper(self):\n"
        "        return 1\n"
        "    def tested_only(self):\n"
        "        return 2\n"
        "    @property\n"
        "    def wrapped(self) -> 'Widget':\n"
        "        return self\n"
        "def reexported():\n"
        "    return 1\n"
    )
    tests = tmp_path / "tests"
    tests.mkdir()
    (tests / "test_mod.py").write_text(
        "from pkg import Widget, reexported\n"
        "def test_it():\n"
        "    assert Widget().tested_only() == 2 and reexported() == 1\n"
    )
    perfbench = tmp_path / "perfbench"
    perfbench.mkdir()
    (perfbench / "layers.py").write_text(
        "WRAPPED = (('pkg.mod', 'Widget', 'wrapped'), 'pkg.mod.Widget.run')\n"
    )
    found = unread_definitions(tmp_path / "src", names_read([tmp_path / "src", perfbench]))
    assert found == [
        "Widget.tested_only (pkg/mod.py:6)",
        "reexported (pkg/mod.py:11)",
    ]


@pytest.mark.parametrize(
    "module, owner, name", DELETED,
    ids=[f"{owner}.{name}" if owner else name for _, owner, name in DELETED],
)
def test_putting_back_a_deleted_definition_fails_the_guard(tmp_path, module, owner, name):
    restored = tmp_path / "repro" / module
    restored.parent.mkdir(parents=True)
    restored.write_text(_with_stub((SRC / "repro" / module).read_text(), owner, name))
    found = [entry.split(" ")[0] for entry in unread_definitions(tmp_path, _repo_reads())]
    assert found == [f"{owner}.{name}" if owner else name], (
        f"{name!r} is read somewhere in the program now, so this case no "
        "longer shows the guard at work; pick another deleted definition"
    )


def test_the_scan_sees_the_source_tree():
    assert sum(1 for _ in (SRC / "repro").rglob("*.py")) > 50


def test_every_public_src_definition_is_read_outside_the_tests():
    unread = [name for name in _repo_unread() if name.split(" ")[0] not in ALLOWED]
    assert not unread, (
        "public src definitions that only tests read (delete them, move them "
        f"into the test that uses them, or give them a caller): {unread}"
    )


def test_every_allowlist_entry_is_still_unread():
    unread = {name.split(" ")[0] for name in _repo_unread()}
    assert set(ALLOWED) <= unread, f"stale entries: {set(ALLOWED) - unread}"
