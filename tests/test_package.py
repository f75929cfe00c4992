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
