"""Webs: the finite sets of outcomes underlying types and variable sets.

The web of Bool is {t, f} in that order; the web of a tensor or arrow is the
cartesian product of the component webs, enumerated left-major. The web of a
set of variables is the product of the variables' webs with the variables
sorted by name, again left-major, and the web of a pattern is left-major over
its leaves. The numeric core therefore never computes indices itself: a table
over such a product reshapes into one array axis per variable or leaf, and
numpy does the index arithmetic. WebElem trees and Assignments are the
readable boundary representation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from typing import Iterable

from .cost import DEFAULT_WEB_CAP
from .errors import NotPositive, WebCapExceeded
from .syntax import (
    Arrow,
    Bool,
    PLeaf,
    PPair,
    Pattern,
    Tensor,
    Ty,
    Variable,
    web_size,
)


class WebElem:
    """Base class of web elements."""


@dataclass(frozen=True)
class WebBool(WebElem):
    bit: bool

    def __str__(self) -> str:
        return "t" if self.bit else "f"


@dataclass(frozen=True)
class WebPair(WebElem):
    left: WebElem
    right: WebElem

    def __str__(self) -> str:
        return f"({self.left},{self.right})"


TRUE = WebBool(True)
FALSE = WebBool(False)


@lru_cache(maxsize=None)
def enumerate_web(t: Ty) -> tuple[WebElem, ...]:
    """All web elements of a type in canonical order."""
    if isinstance(t, Bool):
        return (TRUE, FALSE)
    assert isinstance(t, (Tensor, Arrow))
    left, right = (t.left, t.right) if isinstance(t, Tensor) else (t.input, t.result)
    return tuple(WebPair(a, b) for a in enumerate_web(left) for b in enumerate_web(right))


def element_index(t: Ty, el: WebElem) -> int:
    if isinstance(t, Bool):
        assert isinstance(el, WebBool)
        return 0 if el.bit else 1
    left, right = (t.left, t.right) if isinstance(t, Tensor) else (t.input, t.result)
    assert isinstance(el, WebPair)
    return element_index(left, el.left) * web_size(right) + element_index(right, el.right)


def dim(t: Ty) -> int:
    """Web size of a positive type."""
    if not t.is_positive:
        raise NotPositive("dim is defined on positive types only")
    return web_size(t)


def ht(t: Ty) -> int:
    """Total mass of a closed term of this type when all matrices are stochastic."""
    if t.is_positive:
        return 1
    if isinstance(t, Arrow):
        return dim(t.input) * ht(t.result)
    assert isinstance(t, Tensor)
    return ht(t.right)


# ---------------------------------------------------------------- assignments


@dataclass(frozen=True)
class Assignment:
    """A finite map from variables to web elements, stored sorted by name."""

    items: tuple[tuple[Variable, WebElem], ...]

    @staticmethod
    def of(pairs: Iterable[tuple[Variable, WebElem]]) -> "Assignment":
        return Assignment(tuple(sorted(pairs, key=lambda p: p[0].name)))

    def get(self, v: Variable) -> WebElem:
        for w, el in self.items:
            if w == v:
                return el
        raise KeyError(v.name)

    def union(self, other: "Assignment") -> "Assignment":
        mine = dict(self.items)
        for v, el in other.items:
            if v in mine and mine[v] != el:
                raise ValueError(f"assignments disagree on {v.name}")
            mine[v] = el
        return Assignment.of(mine.items())

    def __str__(self) -> str:
        return "{" + ", ".join(f"{v.name}={el}" for v, el in self.items) + "}"


def sorted_vars(vs: Iterable[Variable]) -> tuple[Variable, ...]:
    return tuple(sorted(vs, key=lambda v: v.name))


def _size_str(n: int) -> str:
    """A web size as digits, or as 2^k past 2^32: every web is a power of
    two, and a joint web's digits can run to hundreds."""
    return f"2^{n.bit_length() - 1}" if n > 2**32 and n & (n - 1) == 0 else str(n)


def check_web_cap(n: int, cap: int = DEFAULT_WEB_CAP) -> None:
    if n > cap:
        raise WebCapExceeded(f"web of size {_size_str(n)} exceeds cap {_size_str(cap)}")


def enumerate_assignments(vs: Iterable[Variable]) -> list[Assignment]:
    """All assignments of a variable set, sorted-name left-major order."""
    vs = sorted_vars(vs)
    check_web_cap(math.prod(web_size(v.ty) for v in vs))
    return [Assignment(tuple(zip(vs, els))) for els in product(*(enumerate_web(v.ty) for v in vs))]


# ---------------------------------------------------------------- pattern web bridging


def pattern_read(p: Pattern, asg: Assignment) -> WebElem:
    """The web element of a pattern's type induced by an assignment."""
    if isinstance(p, PLeaf):
        return asg.get(p.var)
    assert isinstance(p, PPair)
    return WebPair(pattern_read(p.left, asg), pattern_read(p.right, asg))
