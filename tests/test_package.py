"""The package namespace."""

from __future__ import annotations

import ast
import pathlib
import types

import pytest

import lve
from lve.syntax import Arrow, Bool, Tensor, Variable
from helpers import bench_module

SRC = pathlib.Path(lve.__file__).parent


def test_all_lists_resolvable_names_and_no_modules():
    assert len(set(lve.__all__)) == len(lve.__all__)
    for name in lve.__all__:
        assert not isinstance(getattr(lve, name), types.ModuleType), name
    namespace: dict = {}
    exec("from lve import *", namespace)
    assert set(lve.__all__) <= set(namespace)


def test_sources_walk_definitions_and_check_explicitly():
    # Let-terms are walked as definition tuples, never rebuilt as nested lets;
    # an assert (gone under python -O) may only narrow a type for the reader.
    for path in pathlib.Path(lve.__file__).parent.glob("*.py"):
        source = path.read_text()
        assert ".to_expr(" not in source, path.name
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Assert):
                test = node.test
                parts = test.values if isinstance(test, ast.BoolOp) else [test]
                assert all(
                    isinstance(p, ast.Call) and getattr(p.func, "id", None) == "isinstance" for p in parts
                ), f"{path.name}:{node.lineno}"


def test_no_module_imports_a_name_it_never_uses():
    # No linter runs here, so an import left behind by a move shows up only
    # in this scan. `__init__` imports to re-export, so it is not scanned.
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update(a.asname or a.name for a in node.names)
            elif isinstance(node, ast.Import):
                imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        assert imported <= used, f"{path.name} never uses {sorted(imported - used)}"


def test_no_private_helper_is_left_unused():
    # A module-level `_name` function or class that no code of the package
    # names again is dead: a helper a deletion left behind. Only the
    # package's own uses count, not the tests'.
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(a.name for a in node.names)
    unused = [
        f"{module}.{node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name.startswith("_") and node.name not in used
    ]
    assert unused == []


def test_only_syntax_drives_generators():
    # Deep terms are walked by one trampoline, syntax.walk; a module that
    # sends to a generator itself has grown a second one.
    for path in sorted(SRC.glob("*.py")):
        if path.name == "syntax.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                assert node.func.attr != "send", f"{path.name}:{node.lineno}"


def test_only_walk_and_occurrences_keep_a_stack():
    # Every fold over expressions runs on syntax.walk; occurrences is a lazy
    # stream with its own stack. A `while stack:` loop anywhere else is a
    # second trampoline.
    found = set()
    for path in sorted(SRC.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if isinstance(fn, ast.FunctionDef):
                for node in ast.walk(fn):
                    if isinstance(node, ast.While) and getattr(node.test, "id", None) == "stack":
                        found.add(f"{path.stem}.{fn.name}")
    assert "syntax.occurrences" in found
    assert found <= {"syntax.walk", "syntax.occurrences"}, sorted(found)


def test_only_the_boundary_sorts_denote_rows():
    # A relation's rows follow the product that made it; only `_sorted`, on
    # the way out of `denote`, puts them in name order.
    sorting = set()
    for top in ast.parse((SRC / "denote.py").read_text()).body:
        for node in ast.walk(top):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) in {"sorted", "sorted_vars"}:
                sorting.add(getattr(top, "name", "<module>"))
            elif isinstance(node, ast.Attribute) and node.attr == "sort":
                sorting.add(getattr(top, "name", "<module>"))
    assert sorting == {"_sorted"}


def test_factor_readouts_mint_no_copies():
    # Every readout goes through `factors._onto`, which spans a repeated
    # variable's diagonal as a view: no identity table, no fresh names.
    tree = ast.parse((SRC / "factors.py").read_text())
    eyes = [n for n in ast.walk(tree) if isinstance(n, ast.Attribute) and n.attr in {"eye", "identity"}]
    fresh = [a.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) for a in n.names if a.name == "FreshNames"]
    assert not eyes and not fresh


def _lve_imports(module: str) -> set[str]:
    """The lve modules a module of the package imports from."""
    found = set()
    for node in ast.walk(ast.parse((SRC / f"{module}.py").read_text())):
        if isinstance(node, ast.ImportFrom):
            names = (node.module or "").split(".")
            if not node.level:
                if names[0] != "lve":
                    continue
                names = names[1:]
            if names and names[0]:
                found.add(names[0])
            else:
                found.update(a.name for a in node.names)
        elif isinstance(node, ast.Import):
            found.update(a.name.split(".")[1] for a in node.names if a.name.startswith("lve."))
    return found


@pytest.mark.parametrize(
    "module, forbidden",
    [
        # denote is the reference the factor routes are checked against, so
        # it shares no code with them.
        ("denote", {"factors"}),
        # Rewriting and printing are syntax alone.
        ("rewrite", {"denote", "factors"}),
        ("printer", {"denote", "factors"}),
        # Ordering reads the factors' variable sets off the types.
        ("orderings", {"factors", "denote"}),
    ],
    ids=["denote", "rewrite", "printer", "orderings"],
)
def test_layering(module, forbidden):
    assert not _lve_imports(module) & forbidden


def test_tolerance_is_written_once():
    # Every numeric comparison uses syntax.TOL; the literal appears nowhere else.
    places = []
    for path in sorted(SRC.glob("*.py")):
        lines = path.read_text().splitlines()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Constant) and node.value == 1e-9:
                places.append((path.name, lines[node.lineno - 1]))
    assert places == [("syntax.py", "TOL = 1e-9")]


def test_types_and_variables_compare_and_hash_by_identity():
    # They are hash-consed, one object per structure, so `==` and `hash` are
    # object's own, in C. A structural __eq__ or __hash__, such as @dataclass
    # adds, would bring back a Python-level walk on every lookup.
    for cls in (Variable, Bool, Tensor, Arrow):
        assert cls.__eq__ is object.__eq__, cls.__name__
        assert cls.__hash__ is object.__hash__, cls.__name__


def test_names_the_bench_traces_resolve():
    # The bench wraps these entry points by name from outside; a renamed one
    # would otherwise surface only when the bench's own tests run.
    tracing = bench_module("tracing")
    for module in tracing.LVE_MODULES:
        assert tracing.lve_module(module).__name__ == f"lve.{module}"
    for module, name in [*tracing.TRACED, *tracing.OWN_NAMES]:
        assert module in tracing.LVE_MODULES, module
        assert callable(getattr(tracing.lve_module(module), name, None)), f"lve.{module}.{name}"
