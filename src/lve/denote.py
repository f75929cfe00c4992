"""Weighted-relation semantics of terms.

A term denotes a nonnegative matrix indexed by assignments of its free
variables (rows, sorted-name order) and web elements of its type (columns,
canonical order). Variables denote identities, matrix applications their
tables, pairs multiply on shared rows, lets sum the bound value over the
binder's web, lambdas move the parameter from rows into columns, and arrow
applications are deltas linking the arrow variable's web element to argument
and result.

Denotations are memoized by subterm identity (not structure) in a
DenoteContext, which also threads a multiply counter and the web-size cap; the
counter makes interpretation cost observable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cost import DEFAULT_WEB_CAP, CostCounter
from .errors import LveError, NotClosed
from .syntax import (
    Arrow,
    ArrowApp,
    Expr,
    Lam,
    Let,
    LetTerm,
    MatApp,
    Pair,
    Pattern,
    StochasticMatrix,
    Term,
    Tensor,
    Ty,
    Var,
    Variable,
    free_vars,
    occurrences,
    pattern_fv,
    pattern_to_expr,
    pattern_type,
    pattern_vars,
    typecheck,
    web_size,
)
from .webs import VarSpace, check_web_cap, ht, pattern_digits, pattern_index, sorted_vars


@dataclass
class Relation:
    """A denotation: row space (variables), column space (type), and the table."""

    vars: tuple[Variable, ...]
    ty: Ty
    matrix: np.ndarray


class DenoteContext:
    """Memo table, cost counter, and web cap for one denotation pipeline."""

    def __init__(self, counter: CostCounter | None = None, web_cap: int = DEFAULT_WEB_CAP):
        self.counter = counter if counter is not None else CostCounter()
        self.web_cap = web_cap
        self._cache: dict[int, tuple[object, Relation]] = {}
        self._spaces: dict[tuple[Variable, ...], VarSpace] = {}

    def space(self, vars: tuple[Variable, ...]) -> VarSpace:
        sp = self._spaces.get(vars)
        if sp is None:
            sp = VarSpace(vars, cap=self.web_cap)
            self._spaces[vars] = sp
        return sp

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
        return ctx.store(t, _denote(t, ctx))
    rel = _denote(pattern_to_expr(t.output), ctx)
    for binder, bound in reversed(t.defs):
        rel = _let(binder, _denote(bound, ctx), rel, ctx)
    return ctx.store(t, rel)


def _relation(ctx: DenoteContext, vars: tuple[Variable, ...], ty: Ty, matrix: np.ndarray) -> Relation:
    check_web_cap(matrix.size, ctx.web_cap)
    ctx.counter.count(table=matrix.size)
    return Relation(vars, ty, matrix)


def _denote(e: Expr, ctx: DenoteContext) -> Relation:
    cached = ctx.lookup(e)
    if cached is not None:
        return cached

    if isinstance(e, Var):
        n = web_size(e.var.ty)
        check_web_cap(n, ctx.web_cap)
        rel = _relation(ctx, (e.var,), e.var.ty, np.eye(n))

    elif isinstance(e, MatApp):
        space = ctx.space(sorted_vars(e.args))
        sizes = [web_size(s) for s in e.matrix.slots]
        rowmap = np.zeros(space.size, dtype=np.int64)
        stride = 1
        for v, n in zip(reversed(e.args), reversed(sizes)):
            rowmap += space.digit(v) * stride
            stride *= n
        rel = _relation(ctx, space.vars, e.matrix.out, e.matrix.entries[rowmap].copy())

    elif isinstance(e, ArrowApp):
        fty = e.fn.ty
        assert isinstance(fty, Arrow)
        space = ctx.space(sorted_vars(pattern_fv(e.args) | {e.fn}))
        n_out = web_size(fty.result)
        df = space.digit(e.fn)
        arg_idx = pattern_index(e.args, {v.name: space.digit(v) for v in pattern_vars(e.args)})
        table = np.zeros((space.size, n_out))
        rows = np.flatnonzero(df // n_out == arg_idx)
        table[rows, (df % n_out)[rows]] = 1.0
        rel = _relation(ctx, space.vars, fty.result, table)

    elif isinstance(e, Pair):
        r1 = _denote(e.fst, ctx)
        r2 = _denote(e.snd, ctx)
        space = ctx.space(sorted_vars(set(r1.vars) | set(r2.vars)))
        a = r1.matrix[space.restriction_map(ctx.space(r1.vars))]
        b = r2.matrix[space.restriction_map(ctx.space(r2.vars))]
        n1, n2 = a.shape[1], b.shape[1]
        ctx.counter.count(muladds=space.size * n1 * n2)
        table = np.einsum("ab,ac->abc", a, b).reshape(space.size, n1 * n2)
        rel = _relation(ctx, space.vars, Tensor(r1.ty, r2.ty), table)

    elif isinstance(e, Lam):
        rb = _denote(e.body, ctx)
        pv = pattern_fv(e.param)
        space = ctx.space(sorted_vars(set(rb.vars) - pv))
        bspace = ctx.space(rb.vars)
        n_in = web_size(pattern_type(e.param))
        par = pattern_digits(e.param, np.arange(n_in))
        rowbase = np.zeros(space.size, dtype=np.int64)
        mid = np.zeros(n_in, dtype=np.int64)
        for k, v in enumerate(bspace.vars):
            if v in pv:
                mid += par[v.name] * bspace.strides[k]
            else:
                rowbase += space.digit(v) * bspace.strides[k]
        picked = rb.matrix[rowbase[:, None] + mid[None, :]]
        n_res = picked.shape[2]
        rel = _relation(
            ctx,
            space.vars,
            Arrow(pattern_type(e.param), rb.ty),
            picked.reshape(space.size, n_in * n_res),
        )

    elif isinstance(e, Let):
        rel = _let(e.binder, _denote(e.bound, ctx), _denote(e.body, ctx), ctx)

    else:
        raise TypeError(f"not an expression: {e!r}")

    return ctx.store(e, rel)


def _let(binder: Pattern, rb: Relation, rk: Relation, ctx: DenoteContext) -> Relation:
    """`let binder = e in k` from the denotations of e and k: the bound value
    summed over the binder's web."""
    pv = pattern_fv(binder)
    space = ctx.space(sorted_vars(set(rb.vars) | (set(rk.vars) - pv)))
    kspace = ctx.space(rk.vars)
    n_mid = web_size(rb.ty)
    binder_dig = pattern_digits(binder, np.arange(n_mid))
    rowbase = np.zeros(space.size, dtype=np.int64)
    mid = np.zeros(n_mid, dtype=np.int64)
    for k, v in enumerate(kspace.vars):
        if v in pv:
            mid += binder_dig[v.name] * kspace.strides[k]
        else:
            rowbase += space.digit(v) * kspace.strides[k]
    a = rb.matrix[space.restriction_map(ctx.space(rb.vars))]
    b = rk.matrix[rowbase[:, None] + mid[None, :]]
    ctx.counter.count(muladds=space.size * n_mid * b.shape[2])
    return _relation(ctx, space.vars, rk.ty, np.einsum("ak,akb->ab", a, b))


def joint_vector(rel: Relation) -> np.ndarray:
    """The single row of a closed term's denotation."""
    if rel.vars:
        raise NotClosed(f"term has free variables {[v.name for v in rel.vars]}")
    return rel.matrix[0].copy()


@dataclass
class MassReport:
    mass: float
    expected: int
    ok: bool


def total_mass_check(t: Term, ctx: DenoteContext | None = None, tol: float = 1e-9) -> MassReport:
    """Check that a closed term's denotation sums to the height of its type.

    Requires every matrix in the term to carry the verified-stochastic flag,
    since the identity only holds for stochastic matrices.
    """
    if free_vars(t):
        raise NotClosed("total mass is defined for closed terms")
    for m in collect_matrices(t):
        if not m.stochastic:
            raise LveError(f"matrix {m.name} not verified stochastic")
    rel = denote(t, ctx)
    mass = float(rel.matrix.sum())
    expected = ht(typecheck(t))
    return MassReport(mass, expected, abs(mass - expected) <= tol)


def collect_matrices(t: Term) -> list[StochasticMatrix]:
    """All distinct matrices applied in a term, in first-use order."""
    seen: dict[str, StochasticMatrix] = {}
    for m in occurrences(t):
        if isinstance(m, StochasticMatrix):
            seen.setdefault(m.name, m)
    return list(seen.values())
