"""The package namespace."""

from __future__ import annotations

import ast
import pathlib
import types

import lve


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


def test_denote_is_independent_of_the_factor_engine():
    # denote is the reference the factor routes are checked against, so it
    # shares no code with them.
    path = pathlib.Path(lve.__file__).parent / "denote.py"
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            assert node.module not in ("factors", "lve.factors"), node.lineno
            assert not (node.module is None and any(a.name == "factors" for a in node.names)), node.lineno
        elif isinstance(node, ast.Import):
            assert all(not a.name.startswith("lve.factors") for a in node.names), node.lineno
