"""`denote` against the index-gathering interpreter it replaced.

The oracle below is that interpreter, kept here with its own mixed-radix
digit helpers: every relation is a flat (rows, cols) matrix and each clause
gathers rows and columns through index arrays. `denote` lays the same tables
out with one axis per variable and contracts them with `np.einsum`; the two
must agree on row variables, entries (to 1e-12) and the cost counter.
Every term compared is also a gate for the factor reading
(`factors.definition_factor`): each of its definitions must read as the
factor its denotation gives (`helpers.assert_reading_agrees`).
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from lve.denote import DenoteContext, Relation, denote
from lve.errors import WebCapExceeded
from lve.network import network_to_program
from lve.orderings import random_order
from lve.rewrite import eliminate_seq
from lve.syntax import (
    BOOL,
    Arrow,
    ArrowApp,
    Expr,
    Lam,
    Let,
    LetTerm,
    MatApp,
    Pair,
    Pattern,
    PLeaf,
    PPair,
    Tensor,
    Term,
    Var,
    Variable,
    nest_vars,
    pattern_fv,
    pattern_to_expr,
    pattern_type,
    pattern_vars,
    typecheck,
    web_size,
)
from lve.verify import random_network
from lve.webs import check_web_cap, sorted_vars
from helpers import assert_reading_agrees, bvar, coin_matrix, grid_network, matrix

# ---------------------------------------------------------------- the oracle


class _Space:
    """Flat indices over a sorted variable tuple as mixed-radix numerals, the
    first variable the most significant digit."""

    def __init__(self, vars: tuple[Variable, ...], cap: int):
        self.vars = vars
        self.dims = tuple(web_size(v.ty) for v in vars)
        self.size = math.prod(self.dims)
        check_web_cap(self.size, cap)
        self.strides = tuple(math.prod(self.dims[k + 1 :]) for k in range(len(vars)))

    def digit(self, v: Variable) -> np.ndarray:
        k = self.vars.index(v)
        return (np.arange(self.size) // self.strides[k]) % self.dims[k]

    def restriction_map(self, sub: "_Space") -> np.ndarray:
        out = np.zeros(self.size, dtype=np.int64)
        for k, v in enumerate(sub.vars):
            out += self.digit(v) * sub.strides[k]
        return out


def _pattern_index(p: Pattern, digit: dict):
    if isinstance(p, PLeaf):
        return digit[p.var.name]
    return _pattern_index(p.left, digit) * web_size(pattern_type(p.right)) + _pattern_index(p.right, digit)


def _pattern_digits(p: Pattern, idx) -> dict:
    if isinstance(p, PLeaf):
        return {p.var.name: idx}
    n = web_size(pattern_type(p.right))
    out = _pattern_digits(p.left, idx // n)
    out.update(_pattern_digits(p.right, idx % n))
    return out


def oracle_denote(t: Term, ctx: DenoteContext) -> Relation:
    typecheck(t)
    if not isinstance(t, LetTerm):
        return _oracle(t, ctx)
    rel = _oracle(pattern_to_expr(t.output), ctx)
    for binder, bound in reversed(t.defs):
        rel = _oracle_let(binder, _oracle(bound, ctx), rel, ctx)
    return rel


def _relation(ctx: DenoteContext, vars, ty, table: np.ndarray) -> Relation:
    check_web_cap(table.size, ctx.web_cap)
    ctx.counter.count(table=table.size)
    return Relation(vars, ty, table)


def _oracle(e: Expr, ctx: DenoteContext) -> Relation:
    cached = ctx.lookup(e)
    if cached is not None:
        return cached
    cap = ctx.web_cap
    if isinstance(e, Var):
        rel = _relation(ctx, (e.var,), e.var.ty, np.eye(web_size(e.var.ty)))
    elif isinstance(e, MatApp):
        space = _Space(sorted_vars(e.args), cap)
        rowmap = np.zeros(space.size, dtype=np.int64)
        stride = 1
        for v, s in zip(reversed(e.args), reversed(e.matrix.slots)):
            rowmap += space.digit(v) * stride
            stride *= web_size(s)
        rel = _relation(ctx, space.vars, e.matrix.out, e.matrix.entries[rowmap].copy())
    elif isinstance(e, ArrowApp):
        fty = e.fn.ty
        space = _Space(sorted_vars(pattern_fv(e.args) | {e.fn}), cap)
        n_out = web_size(fty.result)
        df = space.digit(e.fn)
        arg_idx = _pattern_index(e.args, {v.name: space.digit(v) for v in pattern_vars(e.args)})
        table = np.zeros((space.size, n_out))
        rows = np.flatnonzero(df // n_out == arg_idx)
        table[rows, (df % n_out)[rows]] = 1.0
        rel = _relation(ctx, space.vars, fty.result, table)
    elif isinstance(e, Pair):
        r1, r2 = _oracle(e.fst, ctx), _oracle(e.snd, ctx)
        space = _Space(sorted_vars(set(r1.vars) | set(r2.vars)), cap)
        a = r1.matrix[space.restriction_map(_Space(r1.vars, cap))]
        b = r2.matrix[space.restriction_map(_Space(r2.vars, cap))]
        n1, n2 = a.shape[1], b.shape[1]
        ctx.counter.count(muladds=space.size * n1 * n2)
        table = np.einsum("ab,ac->abc", a, b).reshape(space.size, n1 * n2)
        rel = _relation(ctx, space.vars, Tensor(r1.ty, r2.ty), table)
    elif isinstance(e, Lam):
        rb = _oracle(e.body, ctx)
        pv = pattern_fv(e.param)
        space = _Space(sorted_vars(set(rb.vars) - pv), cap)
        bspace = _Space(rb.vars, cap)
        n_in = web_size(pattern_type(e.param))
        par = _pattern_digits(e.param, np.arange(n_in))
        rowbase = np.zeros(space.size, dtype=np.int64)
        mid = np.zeros(n_in, dtype=np.int64)
        for k, v in enumerate(bspace.vars):
            if v in pv:
                mid += par[v.name] * bspace.strides[k]
            else:
                rowbase += space.digit(v) * bspace.strides[k]
        picked = rb.matrix[rowbase[:, None] + mid[None, :]]
        ty = Arrow(pattern_type(e.param), rb.ty)
        rel = _relation(ctx, space.vars, ty, picked.reshape(space.size, -1))
    elif isinstance(e, Let):
        rel = _oracle_let(e.binder, _oracle(e.bound, ctx), _oracle(e.body, ctx), ctx)
    else:
        raise TypeError(f"not an expression: {e!r}")
    return ctx.store(e, rel)


def _oracle_let(binder: Pattern, rb: Relation, rk: Relation, ctx: DenoteContext) -> Relation:
    cap = ctx.web_cap
    pv = pattern_fv(binder)
    space = _Space(sorted_vars(set(rb.vars) | (set(rk.vars) - pv)), cap)
    kspace = _Space(rk.vars, cap)
    n_mid = web_size(rb.ty)
    binder_dig = _pattern_digits(binder, np.arange(n_mid))
    rowbase = np.zeros(space.size, dtype=np.int64)
    mid = np.zeros(n_mid, dtype=np.int64)
    for k, v in enumerate(kspace.vars):
        if v in pv:
            mid += binder_dig[v.name] * kspace.strides[k]
        else:
            rowbase += space.digit(v) * kspace.strides[k]
    a = rb.matrix[space.restriction_map(_Space(rb.vars, cap))]
    b = rk.matrix[rowbase[:, None] + mid[None, :]]
    ctx.counter.count(muladds=space.size * n_mid * b.shape[2])
    return _relation(ctx, space.vars, rk.ty, np.einsum("ak,akb->ab", a, b))


# ---------------------------------------------------------------- comparisons


def assert_matches_oracle(t: Term) -> None:
    new_ctx, old_ctx = DenoteContext(), DenoteContext()
    new, old = denote(t, new_ctx), oracle_denote(t, old_ctx)
    assert new.vars == old.vars
    assert new.ty == old.ty
    assert new.matrix.shape == old.matrix.shape
    assert np.allclose(new.matrix, old.matrix, rtol=0, atol=1e-12)
    assert (new_ctx.counter.muladds, new_ctx.counter.max_table) == (
        old_ctx.counter.muladds,
        old_ctx.counter.max_table,
    )
    assert_reading_agrees(t)


def assert_sorted_as_oracle(rel: Relation, t: Term) -> None:
    """A relation `denote` returned: rows in sorted-name order and, within
    1e-12, the oracle's denotation of `t`."""
    assert rel.vars == sorted_vars(rel.vars)
    old = oracle_denote(t, DenoteContext())
    assert rel.vars == old.vars
    assert np.allclose(rel.matrix, old.matrix, rtol=0, atol=1e-12)


def test_the_entry_points_return_rows_in_name_order():
    # Inside, a relation's rows follow the product that made it; `denote`
    # puts them in name order on the way out.
    z, a, y = bvar("z"), bvar("a"), bvar("y")
    ctx = DenoteContext()
    # An open term whose clauses make rows out of name order: Paired(z, a)
    # keeps its application order.
    inner = MatApp(PAIRED, (z, a))
    open_term = LetTerm(((PLeaf(y), inner),), PPair(PLeaf(y), PLeaf(a)))
    assert_sorted_as_oracle(denote(open_term, ctx), open_term)
    # `inner` is in the memo now, rows (z, a) as the clause made them; the
    # first denote of it sorts them, the second hits the sorted entry.
    assert_sorted_as_oracle(denote(Pair(inner, Var(y)), ctx), Pair(inner, Var(y)))
    first = denote(inner, ctx)
    assert first.vars == (a, z)
    assert denote(inner, ctx) is first
    assert_sorted_as_oracle(first, inner)
    # Every suffix of every rewrite step, in one context as `verify` does.
    for seed in range(8):
        term = random_network(seed).term
        ctx = DenoteContext()
        _, trace = eliminate_seq(term, random_order(term, seed))
        for step in trace.steps:
            for t in (step.before, step.after):
                for p in range(len(t.defs) + 1):
                    suffix = LetTerm(t.defs[p:], t.output)
                    assert_sorted_as_oracle(denote(suffix, ctx), suffix)


def test_random_networks_and_their_rewrite_steps_match_the_oracle():
    rules: set[str] = set()
    for seed in range(40):
        term = random_network(seed).term
        assert_matches_oracle(term)
        _, trace = eliminate_seq(term, random_order(term, seed))
        for step in trace.steps:
            rules.add(step.rule)
            assert_matches_oracle(step.before)
            assert_matches_oracle(step.after)
    # swap2 mints the lambdas and arrow applications, mult the pairs.
    assert {"swap2", "mult", "elim"} <= rules


def test_a_grid_matches_the_oracle():
    assert_matches_oracle(network_to_program(grid_network(4, 5)).term)


M = matrix("M", 1, [[0.8, 0.2], [0.1, 0.9]])
# Four distinct rows, so that swapping the two arguments changes the table.
PAIRED = matrix("Paired", 2, [[0.9, 0.1], [0.6, 0.4], [0.3, 0.7], [0.2, 0.8]])
WIDE = matrix("Wide", 0, [[0.1, 0.2, 0.3, 0.4]], out=Tensor(BOOL, BOOL))


def test_lambda_parameters_out_of_name_order():
    x, y, z = bvar("x"), bvar("y"), bvar("z")
    # The columns follow the parameter pattern, (y, x), not the names.
    assert_matches_oracle(Lam(PPair(PLeaf(y), PLeaf(x)), MatApp(PAIRED, (x, y))))
    # \(y, x). Paired(z, x): y spans ones, z stays a row.
    assert_matches_oracle(Lam(PPair(PLeaf(y), PLeaf(x)), MatApp(PAIRED, (z, x))))
    assert_matches_oracle(Lam(PLeaf(y), MatApp(coin_matrix(), ())))


def test_binders_out_of_name_order_and_unused():
    x, y, z = bvar("x"), bvar("y"), bvar("z")
    pair = Pair(MatApp(coin_matrix(), ()), MatApp(M, (z,)))
    # let (y, x) = (Coin, M(z)) in Paired(x, y): the binder's leaves split
    # its column in pattern order.
    assert_matches_oracle(Let(PPair(PLeaf(y), PLeaf(x)), pair, MatApp(PAIRED, (x, y))))
    # let (x, y) = (Coin, M(z)) in M(x): y is summed out.
    assert_matches_oracle(Let(PPair(PLeaf(x), PLeaf(y)), pair, MatApp(M, (x,))))
    assert_matches_oracle(LetTerm(((PPair(PLeaf(x), PLeaf(y)), pair),), PLeaf(x)))


def test_binder_shadowing_a_free_variable_of_its_bound_expression():
    x, w = bvar("x"), bvar("w")
    # let x = M(x) in (x, Paired(x, w)): the inner x is the binder, the free
    # x is the outer one, and the result's rows are x and w.
    body = Pair(Var(x), MatApp(PAIRED, (x, w)))
    assert_matches_oracle(Let(PLeaf(x), MatApp(M, (x,)), body))


def test_tensor_output_carrying_an_arrow():
    x, y, f = bvar("x"), bvar("y"), Variable("f", Arrow(BOOL, BOOL))
    term = LetTerm(
        ((PLeaf(x), MatApp(coin_matrix(0.5), ())), (PLeaf(f), Lam(PLeaf(y), MatApp(PAIRED, (x, y))))),
        PPair(PLeaf(x), PLeaf(f)),
    )
    assert_matches_oracle(term)


def test_open_term_with_arrow_applications_and_wide_variables():
    a, b, u, y = bvar("a"), bvar("b"), Variable("u", Tensor(BOOL, BOOL)), bvar("y")
    g = Variable("g", Arrow(Tensor(BOOL, Tensor(BOOL, BOOL)), BOOL))
    # Free g, a and u; u ranges over a four-element web and the arrow's
    # argument pattern nests, so its leaves split the arrow's input axis.
    term = LetTerm(
        (
            (PLeaf(b), MatApp(PAIRED, (a, bvar("c")))),
            (PLeaf(y), ArrowApp(g, PPair(PLeaf(b), PLeaf(u)))),
        ),
        PPair(PLeaf(a), PLeaf(y)),
    )
    assert_matches_oracle(term)
    assert_matches_oracle(ArrowApp(g, PPair(PLeaf(b), PLeaf(u))))
    # Arguments out of name order: the entries transpose to sorted rows.
    assert_matches_oracle(MatApp(PAIRED, (bvar("z"), a)))
    assert_matches_oracle(Let(PLeaf(u), MatApp(WIDE, ()), Pair(Var(u), Var(a))))


def test_einsum_label_limit_is_a_web_cap_error():
    # A lambda over 52 unused parameters reshapes its body to 53 axes; under a
    # raised cap the limit is reported as an exceeded web before anything is
    # built.
    params = nest_vars(bvar(f"p{i}") for i in range(52))
    lam = Lam(params, MatApp(coin_matrix(), ()))
    with pytest.raises(WebCapExceeded, match=r"^clause over 53 axes, more than the 52 its reshapes and transposes take$"):
        denote(lam, DenoteContext(web_cap=2**62))
