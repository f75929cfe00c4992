"""Web enumeration, indexing, and assignment arithmetic."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from lve.errors import NotPositive, WebCapExceeded
from lve.syntax import BOOL, Arrow, PLeaf, PPair, Tensor, web_size
from lve.webs import (
    Assignment,
    WebBool,
    check_web_cap,
    dim,
    element_index,
    enumerate_assignments,
    enumerate_web,
    ht,
    pattern_read,
    sorted_vars,
)
from helpers import bvar

BB = Tensor(BOOL, BOOL)


def types(max_depth: int = 3):
    return st.recursive(
        st.just(BOOL),
        lambda inner: st.one_of(
            st.builds(Tensor, st.just(BOOL), inner),
            st.builds(Tensor, st.just(BB), inner),
            st.builds(Arrow, st.just(BOOL), inner),
            st.builds(Arrow, st.just(BB), inner),
        ),
        max_leaves=max_depth,
    )


def test_bool_web_order():
    assert [str(e) for e in enumerate_web(BOOL)] == ["t", "f"]


def test_pair_web_is_left_major():
    assert [str(e) for e in enumerate_web(BB)] == ["(t,t)", "(t,f)", "(f,t)", "(f,f)"]


def test_triple_web_order():
    t = Tensor(BOOL, BB)
    assert [str(e) for e in enumerate_web(t)][:3] == ["(t,(t,t))", "(t,(t,f))", "(t,(f,t))"]


def test_arrow_web_is_input_major():
    assert [str(e) for e in enumerate_web(Arrow(BOOL, BOOL))] == [
        "(t,t)",
        "(t,f)",
        "(f,t)",
        "(f,f)",
    ]


def test_dim_and_ht():
    assert dim(BOOL) == 2
    assert dim(BB) == 4
    assert ht(BOOL) == 1
    assert ht(BB) == 1
    assert ht(Arrow(BOOL, BOOL)) == 2
    assert ht(Arrow(BB, BOOL)) == 4
    assert ht(Tensor(BOOL, Arrow(BOOL, BOOL))) == 2
    assert ht(Arrow(BOOL, Arrow(BOOL, BOOL))) == 4


def test_dim_rejects_arrows():
    with pytest.raises(NotPositive):
        dim(Arrow(BOOL, BOOL))


@given(types())
def test_enumeration_matches_web_size(t):
    els = enumerate_web(t)
    assert len(els) == web_size(t)
    assert len(set(els)) == len(els)


@given(types(), st.integers(min_value=0, max_value=10**6))
def test_element_index_round_trip(t, k):
    idx = k % web_size(t)
    assert element_index(t, enumerate_web(t)[idx]) == idx


def test_web_cap():
    check_web_cap(4, 4)
    with pytest.raises(WebCapExceeded, match=r"^web of size 5 exceeds cap 4$"):
        check_web_cap(5, 4)
    # Past 2^32 a power of two is written by its exponent.
    with pytest.raises(WebCapExceeded, match=r"^web of size 4294967296 exceeds cap 1048576$"):
        check_web_cap(2**32)
    with pytest.raises(WebCapExceeded, match=r"^web of size 2\^2000 exceeds cap 2\^33$"):
        check_web_cap(2**2000, 2**33)
    with pytest.raises(WebCapExceeded, match=r"^web of size 3\d{954} exceeds cap 1048576$"):
        check_web_cap(3 * 10**954)


def test_sorted_vars():
    a, b, c = bvar("a"), bvar("b"), bvar("c")
    assert sorted_vars([c, a, b]) == (a, b, c)


def test_enumerate_assignments():
    a, b = bvar("a"), bvar("b")
    asgs = enumerate_assignments([b, a])
    assert len(asgs) == 4
    assert str(asgs[0]) == "{a=t, b=t}"
    assert str(asgs[1]) == "{a=t, b=f}"
    assert str(asgs[2]) == "{a=f, b=t}"


def test_assignment_union_disagreement():
    a = bvar("a")
    left = Assignment.of([(a, WebBool(True))])
    right = Assignment.of([(a, WebBool(False))])
    with pytest.raises(ValueError):
        left.union(right)


def test_assignment_get_missing():
    with pytest.raises(KeyError):
        Assignment(()).get(bvar("a"))


def test_pattern_read_bind_round_trip():
    a, b, c = bvar("a"), bvar("b"), bvar("c")
    p = PPair(PLeaf(a), PPair(PLeaf(b), PLeaf(c)))
    for el, asg in zip(enumerate_web(Tensor(BOOL, BB)), enumerate_assignments([c, a, b]), strict=True):
        assert pattern_read(p, asg) == el

