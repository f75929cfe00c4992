"""Weighted-relational semantics of terms."""

from __future__ import annotations

import numpy as np
import pytest

from lve.cost import CostCounter
from lve.denote import DenoteContext, collect_matrices, denote, joint_vector, total_mass_check
from lve.errors import LveError, NotClosed, WebCapExceeded
from lve.factors import eliminate, factors_of, marginal
from lve.network import network_to_program
from lve.orderings import min_degree_order
from lve.rewrite import eliminate_seq
from lve.syntax import (
    BOOL,
    Arrow,
    ArrowApp,
    Lam,
    LetTerm,
    MatApp,
    Pair,
    PLeaf,
    PPair,
    Tensor,
    Var,
    Variable,
    replace_defs,
    typecheck,
)
from helpers import (
    COIN_COPY_JOINT,
    COIN_PAIR_JOINT,
    SIXNODE_JOINT,
    SIXNODE_ORDER_FWD,
    SIXNODE_ORDER_REV,
    bvar,
    chain_network,
    coin_copy_term,
    coin_matrix,
    coin_pair_expr,
    grid_network,
    matrix,
    order_by_name,
)


def test_coin_copy_joint():
    values = joint_vector(denote(coin_copy_term()))
    assert np.allclose(values, COIN_COPY_JOINT, atol=1e-12, rtol=0)


def test_coin_pair_joint():
    values = joint_vector(denote(coin_pair_expr()))
    assert np.allclose(values, COIN_PAIR_JOINT, atol=1e-12, rtol=0)


def test_sixnode_joint(sixnode_term):
    values = joint_vector(denote(sixnode_term))
    assert np.allclose(values, SIXNODE_JOINT, atol=1e-9, rtol=0)
    assert values.sum() == pytest.approx(1.0, abs=1e-12)


def test_closed_matapp_is_first_row():
    m = coin_matrix(0.25)
    rel = denote(MatApp(m, ()))
    assert rel.vars == ()
    assert np.allclose(joint_vector(rel), [0.25, 0.75])


def test_open_matapp_matrix():
    m = matrix("M", 1, [[0.8, 0.2], [0.1, 0.9]])
    x = bvar("x")
    rel = denote(MatApp(m, (x,)))
    assert rel.vars == (x,)
    assert rel.ty == BOOL
    assert np.allclose(rel.matrix, [[0.8, 0.2], [0.1, 0.9]])


def test_var_denotes_identity():
    x = bvar("x")
    rel = denote(Var(x))
    assert rel.vars == (x,)
    assert np.allclose(rel.matrix, np.eye(2))


def test_duplication_is_diagonal():
    x = bvar("x")
    rel = denote(Pair(Var(x), Var(x)))
    # Row for x=t puts all mass on (t,t); row for x=f on (f,f).
    assert np.allclose(rel.matrix, [[1, 0, 0, 0], [0, 0, 0, 1]])


def test_relation_vars_are_sorted():
    m = matrix("M", 2, [[1, 0]] * 4)
    b, a = bvar("b"), bvar("a")
    rel = denote(MatApp(m, (b, a)))
    assert rel.vars == (a, b)


def test_let_chains_matrices():
    # let x = Coin in M(x) is the matrix-vector product.
    coin = coin_matrix(0.3)
    m = matrix("M", 1, [[0.8, 0.2], [0.1, 0.9]])
    x, y = bvar("x"), bvar("y")
    term = LetTerm(((PLeaf(x), MatApp(coin, ())), (PLeaf(y), MatApp(m, (x,)))), PLeaf(y))
    values = joint_vector(denote(term))
    assert np.allclose(values, [0.3 * 0.8 + 0.7 * 0.1, 0.3 * 0.2 + 0.7 * 0.9])


def arrow_var(name: str = "f") -> Variable:
    return Variable(name, Arrow(BOOL, BOOL))


def test_lambda_and_application():
    m = matrix("M", 1, [[0.8, 0.2], [0.1, 0.9]])
    x, f, y = bvar("x"), arrow_var(), bvar("y")
    lam = Lam(PLeaf(x), MatApp(m, (x,)))
    assert typecheck(lam) == Arrow(BOOL, BOOL)
    term = LetTerm(((PLeaf(f), lam), (PLeaf(y), ArrowApp(f, PLeaf(bvar("u"))))), PLeaf(y))
    rel = denote(term)
    u = bvar("u")
    assert rel.vars == (u,)
    assert np.allclose(rel.matrix, [[0.8, 0.2], [0.1, 0.9]])


def test_mass_two_term():
    # x = Coin; f = \y. And(x, y); in (x, f)   with And true iff both inputs are.
    and_m = matrix("And", 2, [[1, 0], [0, 1], [0, 1], [0, 1]])
    coin = coin_matrix(0.5)
    x, y = bvar("x"), bvar("y")
    f = arrow_var()
    term = LetTerm(
        ((PLeaf(x), MatApp(coin, ())), (PLeaf(f), Lam(PLeaf(y), MatApp(and_m, (x, y))))),
        PPair(PLeaf(x), PLeaf(f)),
    )
    assert typecheck(term) == Tensor(BOOL, Arrow(BOOL, BOOL))
    values = joint_vector(denote(term))
    # Web order: x major, then (input, output) of the arrow.
    assert np.allclose(values, [0.5, 0, 0, 0.5, 0, 0.5, 0, 0.5], atol=1e-12)
    report = total_mass_check(term)
    assert report.expected == 2
    assert report.ok


def test_total_mass_sixnode(sixnode_term):
    report = total_mass_check(sixnode_term)
    assert report.expected == 1
    assert report.ok


def test_total_mass_requires_closed():
    with pytest.raises(NotClosed):
        total_mass_check(Var(bvar("x")))


def test_total_mass_requires_stochastic_flag():
    m = matrix("M", 0, [[0.2, 0.2]])
    assert not m.stochastic
    with pytest.raises(LveError):
        total_mass_check(MatApp(m, ()))


def test_joint_vector_requires_closed():
    with pytest.raises(NotClosed):
        joint_vector(denote(Var(bvar("x"))))


def test_web_cap_enforced(sixnode_term):
    with pytest.raises(WebCapExceeded):
        denote(sixnode_term, DenoteContext(web_cap=8))


def test_context_caches_by_identity(sixnode_term):
    ctx = DenoteContext()
    first = denote(sixnode_term, ctx)
    muladds = ctx.counter.muladds
    second = denote(sixnode_term, ctx)
    assert second is first
    assert ctx.counter.muladds == muladds


def test_counter_tracks_tables(sixnode_term):
    ctx = DenoteContext()
    denote(sixnode_term, ctx)
    assert ctx.counter.max_table == 32
    assert ctx.counter.muladds > 0


@pytest.mark.parametrize(
    "net, muladds, max_table",
    [(grid_network(8, 8), 53228, 512), (chain_network(200), 1596, 4)],
    ids=["grid8x8", "chain200"],
)
def test_denote_costs_are_pinned(net, muladds, max_table):
    # Shape-derived costs of the compositional clauses, recorded from the
    # index-gathering interpreter this one replaced.
    ctx = DenoteContext()
    denote(network_to_program(net).term, ctx)
    assert (ctx.counter.muladds, ctx.counter.max_table) == (muladds, max_table)


@pytest.mark.parametrize("shape", [(r, c) for r in range(8, 12) for c in range(8, 12)] + [(12, 12)])
def test_denote_agrees_with_elimination_on_grids(shape):
    # Every grid shape the benchmark runs, and one more: lets over up to a
    # dozen shared, bound-only and body-only rows, each one matrix product.
    term = network_to_program(grid_network(*shape)).term
    fs = factors_of(term)
    expected = marginal(eliminate(fs, min_degree_order(term)), term.output)
    assert np.allclose(joint_vector(denote(term)), expected, atol=1e-9, rtol=0)


def _same(a, b) -> bool:
    return a.vars == b.vars and a.ty == b.ty and np.array_equal(a.matrix, b.matrix)


def _shared_tail(before: LetTerm, after: LetTerm) -> int:
    """How many of the last definitions the two terms share as objects."""
    k = 0
    while k < min(len(before.defs), len(after.defs)) and before.defs[-1 - k] is after.defs[-1 - k]:
        k += 1
    return k


@pytest.mark.parametrize("names", [SIXNODE_ORDER_FWD, SIXNODE_ORDER_REV])
def test_one_context_denotes_a_vel_run_as_fresh_contexts_do(sixnode_term, names):
    _, trace = eliminate_seq(sixnode_term, order_by_name(sixnode_term, names))
    ctx, fresh = DenoteContext(), CostCounter()
    for step in trace.steps:
        for t in (step.before, step.after):
            one = DenoteContext()
            assert _same(denote(t, ctx), denote(t, one))
            fresh.merge(one.counter)
        # A step's term folds again only the definitions above the tail it
        # shares with the term before it, whose output it shares too.
        assert step.after.output is step.before.output
        folds = len(ctx._folds)
        denote(replace_defs(step.after, 0, 0, ()), ctx)
        assert len(ctx._folds) == folds
    # A hit charges nothing, so the shared context charged less.
    assert ctx.counter.muladds < fresh.muladds


def test_a_replaced_window_folds_again_up_to_its_end(sixnode_term):
    defs = sixnode_term.defs
    for p in range(len(defs)):
        for w in range(1, len(defs) - p + 1):
            ctx = DenoteContext()
            denote(sixnode_term, ctx)
            # The same definitions as new pairs: the bounds are in the memo,
            # the pairs are not, and neither is anything folded above them.
            mid = tuple((binder, bound) for binder, bound in defs[p : p + w])
            variant = replace_defs(sixnode_term, p, w, mid)
            folds = len(ctx._folds)
            assert _same(denote(variant, ctx), denote(sixnode_term))
            assert len(ctx._folds) - folds == p + len(mid)
            assert _shared_tail(sixnode_term, variant) == len(defs) - p - w


def test_a_vel_step_folds_again_up_to_the_end_of_its_window(sixnode_term):
    _, trace = eliminate_seq(sixnode_term, order_by_name(sixnode_term, SIXNODE_ORDER_REV))
    for step in trace.steps:
        ctx = DenoteContext()
        denote(step.before, ctx)
        folds = len(ctx._folds)
        denote(step.after, ctx)
        assert len(ctx._folds) - folds == len(step.after.defs) - _shared_tail(step.before, step.after)


def test_dropped_terms_never_leave_a_stale_fold():
    # Each round builds new objects, often where the last round's were
    # freed; the context keeps what it keys on alive, so no identity repeats.
    ctx = DenoteContext()
    x, y = bvar("x"), bvar("y")
    for k in range(200):
        p = (k % 17 + 1) / 19
        m = matrix("M", 1, [[p, 1 - p], [1 - p, p]])
        term = LetTerm(((PLeaf(x), MatApp(coin_matrix(p), ())), (PLeaf(y), MatApp(m, (x,)))), PPair(PLeaf(x), PLeaf(y)))
        assert _same(denote(term, ctx), denote(term))
        del term, m


def test_collect_matrices_order(sixnode_term):
    names = [m.name for m in collect_matrices(sixnode_term)]
    assert names == ["M1", "M2", "M3", "M4", "M5", "M6"]
