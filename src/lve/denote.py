"""Weighted-relation semantics of terms.

A term denotes a nonnegative matrix indexed by assignments of its free
variables (rows, sorted-name order) and web elements of its type (columns,
canonical order). Variables denote identities, matrix applications their
tables, pairs multiply on shared rows, lets sum the bound value over the
binder's web, lambdas move the parameter from rows into columns, and arrow
applications are deltas linking the arrow variable's web element to argument
and result.

The rows of a matrix are left-major over the sorted variables, so the matrix
reshapes for free into a tensor with one axis per row variable and one column
axis; a pattern's web is left-major over its leaves, so a column axis splits
the same way into one axis per leaf. On those axes the pair, let and lambda
clauses are each one `np.einsum` call with an integer label per variable.
This module keeps its own clauses and shares no code with the factor engine,
which it serves as the reference for: the factor reading of a definition
(`factors.definition_factor`) never calls it, and the tests check the two
against each other.

Denotations are memoized by subterm identity (not structure) in a
DenoteContext, which also threads a multiply counter and the web-size cap; the
counter makes interpretation cost observable: a pair charges rows x n1 x n2
multiply-adds, a let rows x n_bound x n_body, and every clause its result as
a table. The context also holds the factor reading's memo, which `denote`
does not use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cost import DEFAULT_WEB_CAP, CostCounter
from .errors import LveError, NonFinite, NotClosed, WebCapExceeded
from .syntax import (
    TOL,
    Arrow,
    ArrowApp,
    Expr,
    Lam,
    Let,
    LetTerm,
    MatApp,
    Pair,
    Pattern,
    Term,
    Tensor,
    Ty,
    Var,
    Variable,
    collect_matrices,
    free_vars,
    pattern_to_expr,
    pattern_type,
    pattern_vars,
    typecheck,
    web_size,
)
from .webs import check_web_cap, ht, sorted_vars

_MAX_LABELS = 52
"""Integer sublists label einsum axes with range(52)."""


@dataclass
class Relation:
    """A denotation: row space (variables), column space (type), and the
    table, its rows left-major over `vars` and C-ordered, so that it reshapes
    for free to one axis per variable (`_axes`)."""

    vars: tuple[Variable, ...]
    ty: Ty
    matrix: np.ndarray


def _axes(rel: Relation, cols: list[int] | None = None) -> np.ndarray:
    """The table with one axis per row variable, then the column axis, or the
    given axes splitting it; a free reshape of the C-ordered matrix."""
    return rel.matrix.reshape(_dims(rel.vars) + (cols if cols is not None else [-1]))


def _dims(vs: tuple[Variable, ...]) -> list[int]:
    return [web_size(v.ty) for v in vs]


class DenoteContext:
    """Memo table, cost counter, and web cap for one denotation pipeline.

    `definitions` and `readings` are the factor reading's memos
    (`factors.factors_of`). `definitions` maps the identity of the bound of
    a scope's last definition to the scope's definitions, their factor and
    the charges reading them made, and a scope of no definition (a set of
    variables) to its constant factor; `readings` maps the identity of a
    definition's bound to its reading (`factors._Reading.record`)."""

    def __init__(self, web_cap: int = DEFAULT_WEB_CAP):
        self.counter = CostCounter()
        self.web_cap = web_cap
        self._cache: dict[int, tuple[object, Relation]] = {}
        self.definitions: dict = {}
        self.readings: dict[int, tuple] = {}

    def lookup(self, e: object) -> Relation | None:
        hit = self._cache.get(id(e))
        if hit is not None and hit[0] is e:
            return hit[1]
        return None

    def store(self, e: object, rel: Relation) -> Relation:
        rel.matrix.flags.writeable = False
        self._cache[id(e)] = (e, rel)
        return rel


def denote(t: Term, ctx: DenoteContext | None = None) -> Relation:
    """Denotation of a term; typechecks first so failures surface as type errors."""
    if ctx is None:
        ctx = DenoteContext()
    cached = ctx.lookup(t)
    if cached is not None:
        return cached
    typecheck(t)
    if not isinstance(t, LetTerm):
        return _denote(t, ctx)
    rel = _denote(pattern_to_expr(t.output), ctx)
    for binder, bound in reversed(t.defs):
        rel = _let(binder, _denote(bound, ctx), rel, ctx)
    return ctx.store(t, rel)


def _table(ctx: DenoteContext, vars: tuple[Variable, ...], ty: Ty) -> int:
    """Check a result table against the cap before it is computed, charge it
    as a table, and return its row count."""
    rows = math.prod(_dims(vars))
    check_web_cap(rows * web_size(ty), ctx.web_cap)
    ctx.counter.count(table=rows * web_size(ty))
    return rows


def _check_labels(n: int) -> None:
    if n > _MAX_LABELS:
        raise WebCapExceeded(f"einsum over {n} axes, it takes {_MAX_LABELS}")


def _denote(e: Expr, ctx: DenoteContext) -> Relation:
    """Denotation of an expression and of every subexpression not in the
    memo yet. The walk keeps an explicit stack, so nesting depth is not
    bounded by Python's recursion limit: a node is pushed back above its
    children and its clause runs once they are denoted."""
    stack = [(e, False)]
    while stack:
        node, ready = stack.pop()
        if ready:
            ctx.store(node, _clause(node, ctx))
        elif ctx.lookup(node) is None:
            stack.append((node, True))
            if isinstance(node, Pair):
                stack += ((node.snd, False), (node.fst, False))
            elif isinstance(node, Lam):
                stack.append((node.body, False))
            elif isinstance(node, Let):
                stack += ((node.body, False), (node.bound, False))
    rel = ctx.lookup(e)
    assert isinstance(rel, Relation)
    return rel


def _clause(e: Expr, ctx: DenoteContext) -> Relation:
    """One clause of the semantics, on the denotations of the children, which
    are in the memo."""
    if isinstance(e, Var):
        return Relation((e.var,), e.var.ty, np.eye(_table(ctx, (e.var,), e.var.ty)))

    if isinstance(e, MatApp):
        # Entries are left-major over the arguments in application order.
        rows = sorted_vars(e.args)
        n_out = web_size(e.matrix.out)
        n = _table(ctx, rows, e.matrix.out)
        table = e.matrix.entries.reshape([web_size(s) for s in e.matrix.slots] + [n_out])
        table = table.transpose([e.args.index(v) for v in rows] + [len(rows)])
        return Relation(rows, e.matrix.out, table.reshape(n, n_out))

    if isinstance(e, ArrowApp):
        # The arrow's web is input-major, element (a, c) at a * n_out + c, so
        # the identity on it, with its column split into the argument leaves
        # and the result, is the delta linking arrow, argument and result.
        fty = e.fn.ty
        assert isinstance(fty, Arrow)
        leaves = pattern_vars(e.args)
        rows = sorted_vars(leaves + (e.fn,))
        n_fn, n_out = web_size(fty), web_size(fty.result)
        n = _table(ctx, rows, fty.result)
        delta = np.eye(n_fn).reshape([n_fn] + _dims(leaves) + [n_out])
        axes = (e.fn,) + leaves
        table = delta.transpose([axes.index(v) for v in rows] + [len(axes)])
        return Relation(rows, fty.result, table.reshape(n, n_out))

    if isinstance(e, Pair):
        r1, r2 = ctx.lookup(e.fst), ctx.lookup(e.snd)
        assert isinstance(r1, Relation) and isinstance(r2, Relation)
        label = {v: i for i, v in enumerate(r1.vars)}
        labels2 = [label.setdefault(v, len(label)) for v in r2.vars]
        rows = sorted_vars(label)
        c1, c2 = len(label), len(label) + 1
        _check_labels(c2 + 1)
        ty = Tensor(r1.ty, r2.ty)
        n = _table(ctx, rows, ty)
        ctx.counter.count(muladds=n * r1.matrix.shape[1] * r2.matrix.shape[1])
        table = np.einsum(
            _axes(r1), [*range(len(r1.vars)), c1], _axes(r2), labels2 + [c2], [label[v] for v in rows] + [c1, c2]
        )
        return Relation(rows, ty, table.reshape(n, -1))

    if isinstance(e, Lam):
        # The parameter's leaves move from rows to columns, left-major like
        # the parameter's web; a leaf the body does not use spans ones.
        rb = ctx.lookup(e.body)
        assert isinstance(rb, Relation)
        leaves = pattern_vars(e.param)
        label = {v: i for i, v in enumerate(rb.vars)}
        unused = [v for v in leaves if v not in label]
        leaf_labels = [label.setdefault(v, len(label)) for v in leaves]
        rows = sorted_vars(v for v in rb.vars if v not in leaves)
        col = len(label)
        _check_labels(col + 1)
        ty = Arrow(pattern_type(e.param), rb.ty)
        n = _table(ctx, rows, ty)
        operands: list = [_axes(rb), [*range(len(rb.vars)), col]]
        for v in unused:
            operands += [np.ones(web_size(v.ty)), [label[v]]]
        table = np.einsum(*operands, [label[v] for v in rows] + leaf_labels + [col])
        return Relation(rows, ty, table.reshape(n, -1))

    if isinstance(e, Let):
        rb, rk = ctx.lookup(e.bound), ctx.lookup(e.body)
        assert isinstance(rb, Relation) and isinstance(rk, Relation)
        return _let(e.binder, rb, rk, ctx)

    raise TypeError(f"not an expression: {e!r}")


def _let(binder: Pattern, rb: Relation, rk: Relation, ctx: DenoteContext) -> Relation:
    """`let binder = e in k` from the denotations of e and k: the bound value
    summed over the binder's web. The bound value's column splits into the
    binder's leaves, left-major like the binder's web; each leaf has a label
    of its own, apart from a row of e with its name that it shadows in k, and
    a leaf k does not use is summed out."""
    leaves = pattern_vars(binder)
    label = {v: i for i, v in enumerate(rb.vars)}
    leaf = {v: len(label) + i for i, v in enumerate(leaves)}
    labels_k = [leaf[v] if v in leaf else label.setdefault(v, len(label) + len(leaf)) for v in rk.vars]
    rows = sorted_vars(label)
    col = len(label) + len(leaf)
    _check_labels(col + 1)
    n = _table(ctx, rows, rk.ty)
    ctx.counter.count(muladds=n * rb.matrix.shape[1] * rk.matrix.shape[1])
    table = np.einsum(
        _axes(rb, _dims(leaves)),
        [*range(len(rb.vars)), *leaf.values()],
        _axes(rk),
        labels_k + [col],
        [label[v] for v in rows] + [col],
    )
    return Relation(rows, rk.ty, table.reshape(n, -1))


def joint_vector(rel: Relation) -> np.ndarray:
    """The single row of a closed term's denotation. A value that overflowed
    to inf or NaN raises `NonFinite`."""
    if rel.vars:
        raise NotClosed(f"term has free variables {[v.name for v in rel.vars]}")
    values = rel.matrix[0].copy()
    if not np.isfinite(values).all():
        raise NonFinite(f"joint distribution is not finite: {values}")
    return values


@dataclass
class MassReport:
    mass: float
    expected: int
    ok: bool


def total_mass_check(t: Term, ctx: DenoteContext | None = None) -> MassReport:
    """Check that a closed term's denotation sums to the height of its type.

    Requires every matrix in the term to be stochastic, since the identity
    only holds for stochastic matrices.
    """
    if free_vars(t):
        raise NotClosed("total mass is defined for closed terms")
    for m in collect_matrices(t):
        if not m.stochastic:
            raise LveError(f"matrix {m.name} not verified stochastic")
    rel = denote(t, ctx)
    mass = float(rel.matrix.sum())
    expected = ht(typecheck(t))
    return MassReport(mass, expected, abs(mass - expected) <= TOL)
