"""The package namespace."""

from __future__ import annotations

import types

import lve


def test_all_lists_resolvable_names_and_no_modules():
    assert len(set(lve.__all__)) == len(lve.__all__)
    for name in lve.__all__:
        assert not isinstance(getattr(lve, name), types.ModuleType), name
    namespace: dict = {}
    exec("from lve import *", namespace)
    assert set(lve.__all__) <= set(namespace)
