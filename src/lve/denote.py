"""Weighted-relation semantics of terms.

A term denotes a nonnegative matrix indexed by assignments of its free
variables (rows) and web elements of its type (columns, canonical order).
Variables denote identities, matrix applications their tables, pairs
multiply on shared rows, lets sum the bound value over the binder's web,
lambdas move the parameter from rows into columns, and arrow applications
are deltas linking the arrow variable's web element to argument and result.

The rows of a matrix are left-major over its relation's `vars`, in the order
the relation lists them, so the matrix reshapes for free into a tensor with
one axis per row variable and one column axis; a pattern's web is left-major
over its leaves, so a column axis splits the same way into one axis per leaf.
On those axes each clause groups the variables into a few sets and is one
product, whose result keeps the row order the product gives it: a let is
(S, B, L) @ (S, L, K x column), rows (S, B, K), over the rows both sides
share (S), the bound's other rows (B), the binder leaves the body uses (L)
and the body's other rows (K); a pair is an outer product broadcast over
the first side's rows and then the second side's own; a matrix application
is its table, rows in application order; a lambda multiplies nothing and
only transposes, broadcasting the parameter leaves its body does not use.
A transpose whose permutation is the identity is skipped. Sorted-name row
order holds only at the boundary: `denote` and `denote_suffix` return their
relation with its rows sorted by name (`_sorted`, the one place that sorts
them), and no clause restores it. This module keeps its own clauses and
shares no code with the factor engine, which it serves as the reference
for: the factor reading of a definition (`factors.definition_factor`) never
calls it, and the tests check the two against each other.

Denotations are memoized by subterm identity (not structure) in a
DenoteContext, which also threads a multiply counter and the web-size cap; the
counter makes interpretation cost observable: a pair charges rows x n1 x n2
multiply-adds, a let rows x n_bound x n_body, and every clause its result as
a table. A let-term is folded from its output up, one definition at a time,
and each step is memoized on the identity of its `(binder, bound)` pair and of
the relation it folds into: a rewritten term that shares its tail with one
denoted before (`syntax.replace_defs`) folds only the definitions up to the
end of the rewritten window again, and `denote_suffix` stops the fold at a
given definition, so comparing two terms there folds no definition above it.
A memo hit charges nothing. An expression is folded in one `syntax.walk`.
The context also holds the factor reading's memo, which `denote` does not use.
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
    walk,
    web_size,
)
from .webs import check_web_cap, ht, sorted_vars

_MAX_AXES = 52
"""The most variables, leaves and columns a clause may span, einsum's label
count: a wider clause raises `WebCapExceeded` before any table is built
(numpy arrays take at most 64 axes)."""


@dataclass
class Relation:
    """A denotation: row space (variables), column space (type), and the
    table, its rows left-major over `vars` and C-ordered, so that it reshapes
    for free to one axis per variable (`_regroup`). `vars` are in whatever
    order the clause that made the table left them; only the relations
    `denote` and `denote_suffix` return have them in sorted-name order."""

    vars: tuple[Variable, ...]
    ty: Ty
    matrix: np.ndarray


def _dims(vs) -> list[int]:
    return [v.web for v in vs]


def _size(vs) -> int:
    return math.prod(_dims(vs))


def _regroup(table: np.ndarray, vars: tuple[Variable, ...], order: tuple[Variable, ...]) -> np.ndarray:
    """A table whose rows are left-major over `vars`, with its rows left-major
    over `order`, a permutation of `vars`: the table itself when the order is
    the same, else a transposed view with one axis per variable (a free
    reshape of the C-ordered table), then one column axis."""
    if order == vars:
        return table
    split = table.reshape(_dims(vars) + [-1])
    return split.transpose([vars.index(v) for v in order] + [len(vars)])


class DenoteContext:
    """Memo table, cost counter, and web cap for one denotation pipeline.

    `_folds` maps the identities of a definition and of the relation it is
    folded into (`denote` on a let-term) to the result, keeping both key
    objects alive, as `_cache` keeps its subterms, so that an identity is
    never reused while its entry stands. `definitions` and `readings` are the
    factor reading's memos (`factors.factors_of`). `definitions` maps the
    identity of the bound of a scope's last definition to the scope's
    definitions, their factor and the charges reading them made, and a scope
    of no definition (a set of variables) to its constant factor; `readings`
    maps the identity of a definition's bound to its reading
    (`factors._Reading.record`)."""

    def __init__(self, web_cap: int = DEFAULT_WEB_CAP):
        self.counter = CostCounter()
        self.web_cap = web_cap
        self._cache: dict[int, tuple[object, Relation]] = {}
        self._folds: dict[tuple[int, int], tuple[tuple, Relation, Relation]] = {}
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
    """Denotation of a term, its rows in sorted-name order; typechecks first
    so failures surface as type errors."""
    if ctx is None:
        ctx = DenoteContext()
    rel = ctx.lookup(t)
    if rel is None:
        if isinstance(t, LetTerm):
            rel = _suffix(t, 0, ctx)
        else:
            typecheck(t)
            rel = _denote(t, ctx)
    # An expression's memo entry may be the relation a clause built, whose
    # rows follow that clause; it gives way to the sorted one.
    return ctx.store(t, _sorted(rel))


def denote_suffix(t: LetTerm, start: int, ctx: DenoteContext) -> Relation:
    """`_suffix`, its rows in sorted-name order."""
    return _sorted(_suffix(t, start, ctx))


def _suffix(t: LetTerm, start: int, ctx: DenoteContext) -> Relation:
    """Denotation of the let-term made of `t`'s definitions from `start` on
    and its output, folded up through them one at a time; its rows, in the
    order the last fold left them, are the variables the suffix uses and does
    not bind. The whole term is the suffix at 0, and the definitions above
    `start` fold into this relation, so two terms with the same definitions
    above it and suffix relations equal up to row order denote the same."""
    typecheck(t)
    rel = ctx.lookup(t.output)
    if rel is None:
        rel = ctx.store(t.output, _denote(pattern_to_expr(t.output), ctx))
    for d in reversed(t.defs[start:]):
        hit = ctx._folds.get((id(d), id(rel)))
        if hit is not None and hit[0] is d and hit[1] is rel:
            rel = hit[2]
            continue
        new = _let(d[0], _denote(d[1], ctx), rel, ctx)
        new.matrix.flags.writeable = False
        ctx._folds[id(d), id(rel)] = (d, rel, new)
        rel = new
    return rel


def _sorted(rel: Relation) -> Relation:
    """`rel` with its rows in sorted-name order, the order `denote` and
    `denote_suffix` return: `rel` itself when they are in it, else a
    read-only copy. The one place where rows are sorted."""
    rows = sorted_vars(rel.vars)
    if rows == rel.vars:
        return rel
    table = _regroup(rel.matrix, rel.vars, rows).reshape(rel.matrix.shape)
    table.flags.writeable = False
    return Relation(rows, rel.ty, table)


def _table(ctx: DenoteContext, rows: int, cols: int) -> int:
    """Check a result table of `rows` x `cols` against the cap before it is
    computed, charge it as a table, and return its row count."""
    check_web_cap(rows * cols, ctx.web_cap)
    ctx.counter.count(table=rows * cols)
    return rows


def _check_axes(n: int) -> None:
    if n > _MAX_AXES:
        raise WebCapExceeded(f"clause over {n} axes, more than the {_MAX_AXES} of an einsum")


def _denote(e: Expr, ctx: DenoteContext) -> Relation:
    """Denotation of an expression and of every subexpression not in the
    memo yet, on `syntax.walk`: a leaf's clause runs on its visit, that of a
    pair, lambda or let on its children's denotations."""
    def visit(node):
        rel = ctx.lookup(node)
        if rel is not None:
            return rel
        if isinstance(node, (Pair, Lam, Let)):
            return inner(node)
        return ctx.store(node, _clause(node, ctx))

    def inner(node):
        if isinstance(node, Pair):
            children = (yield node.fst), (yield node.snd)
        elif isinstance(node, Lam):
            children = ((yield node.body),)
        else:
            children = (yield node.bound), (yield node.body)
        return ctx.store(node, _clause(node, ctx, *children))

    return walk(e, visit)


def _clause(e: Expr, ctx: DenoteContext, *children: Relation) -> Relation:
    """One clause of the semantics, on the denotations of the children, in
    the order the clause reads them."""
    if isinstance(e, Var):
        n = web_size(e.var.ty)
        return Relation((e.var,), e.var.ty, np.eye(_table(ctx, n, n)))

    if isinstance(e, MatApp):
        # Entries are left-major over the arguments in application order.
        entries = e.matrix.entries
        _table(ctx, *entries.shape)
        return Relation(e.args, e.matrix.out, entries)

    if isinstance(e, ArrowApp):
        # The arrow's web is input-major, element (a, c) at a * n_out + c, so
        # the identity on it, with its column split into the argument leaves
        # and the result, is the delta linking arrow, argument and result.
        fty = e.fn.ty
        if not isinstance(fty, Arrow):
            raise TypeError(f"not an arrow: {e.fn!r}")
        n_fn, n_out = web_size(fty), web_size(fty.result)
        n = _table(ctx, n_fn * n_fn // n_out, n_out)
        return Relation((e.fn, *pattern_vars(e.args)), fty.result, np.eye(n_fn).reshape(n, n_out))

    if not isinstance(e, (Pair, Lam, Let)):
        raise TypeError(f"not an expression: {e!r}")

    if isinstance(e, Pair):
        # An outer product on the rows both sides share, broadcast over the
        # rest: the first side's rows, then the second's own (only2), then
        # the two columns, in one product that writes the result in place.
        r1, r2 = children
        only2 = tuple(v for v in r2.vars if v not in r1.vars)
        rows = r1.vars + only2
        _check_axes(len(rows) + 2)
        ty = Tensor(r1.ty, r2.ty)
        c1, c2 = r1.matrix.shape[1], r2.matrix.shape[1]
        n = _table(ctx, r1.matrix.shape[0] * _size(only2), c1 * c2)
        ctx.counter.count(muladds=n * c1 * c2)
        a = r1.matrix.reshape(_dims(r1.vars) + [1] * len(only2) + [c1, 1])
        b = _regroup(r2.matrix, r2.vars, tuple(v for v in rows if v in r2.vars))
        b = b.reshape([v.web if v in r2.vars else 1 for v in rows] + [1, c2])
        return Relation(rows, ty, np.multiply(a, b, order="C").reshape(n, -1))

    if isinstance(e, Lam):
        # The parameter's leaves move from rows to columns, left-major like
        # the parameter's web; a leaf the body does not use spans a
        # broadcast axis.
        (rb,) = children
        leaves = pattern_vars(e.param)
        rows = tuple(v for v in rb.vars if v not in leaves)
        used = tuple(v for v in leaves if v in rb.vars)
        _check_axes(len(rb.vars) + len(leaves) - len(used) + 1)
        ty = Arrow(pattern_type(e.param), rb.ty)
        n = _table(ctx, rb.matrix.shape[0] // _size(used), web_size(ty))
        table = _regroup(rb.matrix, rb.vars, rows + used)
        if len(used) < len(leaves):
            table = table.reshape(_dims(rows + used) + [-1])
            table = np.expand_dims(table, [len(rows) + i for i, v in enumerate(leaves) if v not in used])
            table = np.broadcast_to(table, _dims(rows + leaves) + [rb.matrix.shape[1]])
        return Relation(rows, ty, table.reshape(n, -1))

    return _let(e.binder, *children, ctx)


def _let(binder: Pattern, rb: Relation, rk: Relation, ctx: DenoteContext) -> Relation:
    """`let binder = e in k` from the denotations of e and k: the bound value
    summed over the binder's web, as one batched product
    (S, B, L) @ (S, L, K x column), whose rows are the result's as they come.

    The bound value's column splits into the binder's leaves, left-major like
    the binder's web, and a leaf k does not use is summed out first. A leaf
    shadows a row of e with its name: in k the name is the leaf. The other
    rows of k are S when e has them too, else K; e's other rows are B."""
    leaves = pattern_vars(binder)
    shared: list[Variable] = []
    used: list[Variable] = []
    body: list[Variable] = []
    for v in rk.vars:
        (used if v in leaves else shared if v in rb.vars else body).append(v)
    _check_axes(len(rb.vars) + len(leaves) + len(body) + 1)
    n_shared, n_used = _size(shared), _size(used)
    n = _table(ctx, rb.matrix.shape[0] * _size(body), rk.matrix.shape[1])
    ctx.counter.count(muladds=n * rb.matrix.shape[1] * rk.matrix.shape[1])

    a = rb.matrix
    if tuple(used) != leaves:
        # Sum the unused leaves out and put the used ones in k's order.
        kept = tuple(v for v in leaves if v in used)
        split = a.reshape([-1] + _dims(leaves))
        if len(kept) < len(leaves):
            split = split.sum(axis=tuple(1 + i for i, v in enumerate(leaves) if v not in used))
        a = split.transpose([0] + [1 + kept.index(v) for v in used]).reshape(-1, n_used)
    only = tuple(v for v in rb.vars if v not in shared)
    a = _regroup(a, rb.vars, (*shared, *only)).reshape(n_shared, -1, n_used)
    b = _regroup(rk.matrix, rk.vars, (*shared, *used, *body)).reshape(n_shared, n_used, -1)
    return Relation((*shared, *only, *body), rk.ty, np.matmul(a, b).reshape(n, -1))


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
