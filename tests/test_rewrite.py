"""The five rewrite rules, guided elimination, and the cleanup pass."""

from __future__ import annotations

import itertools
import operator
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import lve
from lve import rewrite, syntax
from lve.denote import denote, joint_vector
from lve.errors import (
    InconsistentVariableTypes,
    InOutput,
    NotDefined,
    NotPositive,
    PatternTypeMismatch,
    RewriteError,
    SideConditionViolated,
    TooFewDefinitions,
    TypeCheckError,
)
from lve.factors import eliminate, factor_sets_equal, factors_of
from lve.orderings import elimination_candidates, min_degree_order, random_order
from lve.parser import parse_program
from lve.printer import program_str
from lve.rewrite import (
    RULES,
    apply_rule,
    eliminate_seq,
    eliminate_term,
    simplify,
    size_bound,
)
from lve.syntax import (
    BOOL,
    TOL,
    Arrow,
    ArrowApp,
    Lam,
    Let,
    LetTerm,
    MatApp,
    Pair,
    PLeaf,
    PPair,
    Var,
    Variable,
    collect_names,
    free_vars,
    let_typings,
    pattern_fv,
    typecheck,
)
from lve.verify import _orders, random_network
from helpers import (
    SIXNODE_GOLDEN_STEPS,
    SIXNODE_JOINT,
    bvar,
    is_normal_form,
    coin_matrix,
    eliminations,
    matrix,
    order_by_name,
    rename,
    replayed,
)

M1 = coin_matrix(0.3, name="M1")
M2 = matrix("M2", 1, [[0.8, 0.2], [0.1, 0.9]])
M4 = coin_matrix(0.45, name="M4")

X, Y, Z, U = bvar("x"), bvar("y"), bvar("z"), bvar("u")
F = Variable("f", Arrow(BOOL, BOOL))


def chain_term() -> LetTerm:
    """x = M1; y = M2(x); in (x, y)"""
    return LetTerm(
        ((PLeaf(X), MatApp(M1, ())), (PLeaf(Y), MatApp(M2, (X,)))),
        PPair(PLeaf(X), PLeaf(Y)),
    )


def independent_term() -> LetTerm:
    """x = M1; y = M4; in (x, y)"""
    return LetTerm(
        ((PLeaf(X), MatApp(M1, ())), (PLeaf(Y), MatApp(M4, ()))),
        PPair(PLeaf(X), PLeaf(Y)),
    )


def arrow_term() -> LetTerm:
    """f = \\z. M2(z); y = f(u); in y   (u free)"""
    return LetTerm(
        (
            (PLeaf(F), Lam(PLeaf(Z), MatApp(M2, (Z,)))),
            (PLeaf(Y), ArrowApp(F, PLeaf(U))),
        ),
        PLeaf(Y),
    )


def pair_arrow_term() -> LetTerm:
    """(x, f) = (let w = M1 in (w, \\z. M2(z))); y = f(x); in y"""
    w = bvar("w")
    bound = Let(
        PLeaf(w),
        MatApp(M1, ()),
        Pair(Var(w), Lam(PLeaf(Z), MatApp(M2, (Z,)))),
    )
    return LetTerm(
        (
            (PPair(PLeaf(X), PLeaf(F)), bound),
            (PLeaf(Y), ArrowApp(F, PLeaf(X))),
        ),
        PLeaf(Y),
    )


def assert_same_denotation(a, b, tol=1e-12):
    da, db = denote(a), denote(b)
    assert da.vars == db.vars
    assert np.allclose(da.matrix, db.matrix, atol=tol, rtol=0)


# ---------------------------------------------------------------- single rules


def test_mult_merges_two_definitions():
    term = chain_term()
    after = apply_rule(term, "mult", 0)
    expected = LetTerm(
        (
            (
                PPair(PLeaf(X), PLeaf(Y)),
                Let(PLeaf(X), MatApp(M1, ()), Pair(Var(X), MatApp(M2, (X,)))),
            ),
        ),
        PPair(PLeaf(X), PLeaf(Y)),
    )
    assert after == expected
    assert_same_denotation(term, after)


def test_mult_rejects_arrow_first_binder():
    with pytest.raises(SideConditionViolated):
        apply_rule(arrow_term(), "mult", 0)


def test_elim_drops_binder_variable():
    term = apply_rule(chain_term(), "mult", 0)
    term = LetTerm(term.defs, PLeaf(Y))  # forget x in the output
    after = apply_rule(term, "elim", 0, var=X)
    binder, bound = after.defs[0]
    assert binder == PLeaf(Y)
    assert isinstance(bound, Let)
    assert bound.binder == PPair(PLeaf(X), PLeaf(Y))
    assert bound.body == Var(Y)
    assert_same_denotation(term, after)
    assert X not in free_vars(after)


def test_elim_requires_variable_argument():
    with pytest.raises(ValueError):
        apply_rule(chain_term(), "elim", 0)


def test_elim_var_must_be_bound_here():
    with pytest.raises(SideConditionViolated):
        apply_rule(chain_term(), "elim", 0, var=Z)


def test_elim_var_must_be_dead_downstream():
    with pytest.raises(SideConditionViolated):
        apply_rule(chain_term(), "elim", 0, var=X)  # x feeds y and the output


def test_elim_refuses_empty_residual():
    term = LetTerm(((PLeaf(X), MatApp(M1, ())),), PLeaf(Y))
    with pytest.raises(SideConditionViolated):
        apply_rule(term, "elim", 0, var=X)


def test_swap1_reorders_independent_definitions():
    term = independent_term()
    after = apply_rule(term, "swap1", 0)
    assert after.defs == (term.defs[1], term.defs[0])
    assert after.output == term.output
    assert_same_denotation(term, after)


def test_swap1_rejects_dependence():
    with pytest.raises(SideConditionViolated):
        apply_rule(chain_term(), "swap1", 0)


def test_swap2_abstracts_the_dependent_definition():
    term = chain_term()
    after = apply_rule(term, "swap2", 0)
    g = Variable("g__1", Arrow(BOOL, BOOL))
    expected = LetTerm(
        (
            (PLeaf(g), Lam(PLeaf(X), MatApp(M2, (X,)))),
            (PLeaf(X), MatApp(M1, ())),
            (PLeaf(Y), ArrowApp(g, PLeaf(X))),
        ),
        PPair(PLeaf(X), PLeaf(Y)),
    )
    assert after == expected
    assert_same_denotation(term, after)
    # The swap preserves the factor multiset exactly.
    assert factor_sets_equal(factors_of(term), factors_of(after))


def test_swap2_rejects_independent_definitions():
    with pytest.raises(SideConditionViolated):
        apply_rule(independent_term(), "swap2", 0)


def test_swap3_merges_arrow_producer_and_consumer():
    term = pair_arrow_term()
    after = apply_rule(term, "swap3", 0)
    assert len(after.defs) == 1
    binder, bound = after.defs[0]
    assert binder == PPair(PLeaf(X), PLeaf(Y))
    assert isinstance(bound, Let)
    assert bound.binder == PPair(PLeaf(X), PLeaf(F))
    assert bound.body == Pair(Var(X), ArrowApp(F, PLeaf(X)))
    assert_same_denotation(term, after)
    assert factor_sets_equal(factors_of(term), factors_of(after))


def test_swap3_with_pure_arrow_binder():
    term = arrow_term()
    after = apply_rule(term, "swap3", 0)
    expected = LetTerm(
        (
            (
                PLeaf(Y),
                Let(PLeaf(F), Lam(PLeaf(Z), MatApp(M2, (Z,))), ArrowApp(F, PLeaf(U))),
            ),
        ),
        PLeaf(Y),
    )
    assert after == expected
    assert_same_denotation(term, after)


def test_swap3_requires_arrow_link():
    with pytest.raises(SideConditionViolated):
        apply_rule(independent_term(), "swap3", 0)


def test_rule_position_bounds():
    term = chain_term()
    with pytest.raises(TooFewDefinitions):
        apply_rule(term, "mult", 1)  # binary rule at the last definition
    with pytest.raises(TooFewDefinitions):
        apply_rule(term, "elim", 2, var=X)
    with pytest.raises(TooFewDefinitions):
        apply_rule(term, "mult", -1)


def test_unknown_rule_name():
    with pytest.raises(ValueError):
        apply_rule(chain_term(), "fuse", 0)


def test_rules_constant():
    assert RULES == ("swap1", "swap2", "swap3", "mult", "elim")


# ---------------------------------------------------------------- guided application


def test_swap_first_picks_the_applicable_rule():
    for term, rule in ((independent_term(), "swap1"), (chain_term(), "swap2"), (pair_arrow_term(), "swap3")):
        assert rewrite._swap_rule(term, 0) == rule
        apply_rule(term, rule, 0)
    with pytest.raises(TooFewDefinitions):
        apply_rule(LetTerm(((PLeaf(X), MatApp(M1, ())),), PLeaf(X)), "swap1", 0)


def test_eliminate_term_swaps_a_deep_consumer_up():
    # The only definition using x sits below an unrelated one: a swap lifts
    # it next to x's own definition, and mult and elim finish the step.
    term = LetTerm(
        ((PLeaf(X), MatApp(M1, ())), (PLeaf(Y), MatApp(M4, ())), (PLeaf(Z), MatApp(M2, (X,)))),
        PPair(PLeaf(Y), PLeaf(Z)),
    )
    after, trace = eliminate_seq(term, (X,))
    assert [(s.rule, s.position) for s in trace.steps] == [("swap1", 1), ("mult", 0), ("elim", 0)]
    # Pure swaps preserve the factor multiset exactly.
    _, swapped = itertools.islice(replayed(term, trace.steps), 2)
    assert factor_sets_equal(factors_of(term), factors_of(swapped))
    assert factor_sets_equal(factors_of(after), eliminate(factors_of(term), [X]))
    assert_same_denotation(term, after)


def test_eliminate_term_merges_two_consumers():
    m5 = matrix("M5", 2, [[0.7, 0.3], [0.4, 0.6], [0.55, 0.45], [0.15, 0.85]])
    term = LetTerm(
        ((PLeaf(X), MatApp(M1, ())), (PLeaf(Y), MatApp(M2, (X,))), (PLeaf(Z), MatApp(m5, (X, Y)))),
        PLeaf(Z),
    )
    after, steps = eliminate_term(term, X)
    assert [(s.rule, s.position) for s in steps] == [("mult", 1), ("mult", 0), ("elim", 0)]
    assert len(after.defs) == 1
    assert factor_sets_equal(factors_of(after), eliminate(factors_of(term), [X]))
    assert_same_denotation(term, after)


G = Variable("g", Arrow(BOOL, BOOL))


@pytest.mark.parametrize(
    "term, rules",
    [
        # x's neighbour is the next definition.
        (LetTerm(((PLeaf(X), MatApp(M1, ())), (PLeaf(Y), MatApp(M4, ()))), PLeaf(Y)), ["mult", "elim"]),
        # x is last: its neighbour is the one above.
        (LetTerm(((PLeaf(Y), MatApp(M4, ())), (PLeaf(X), MatApp(M2, (Y,)))), PLeaf(Y)), ["mult", "elim"]),
        # The one above binds only an arrow: x merges upwards until the
        # binder holds a positive variable besides x.
        (
            LetTerm(
                (
                    (PLeaf(Y), MatApp(M4, ())),
                    (PLeaf(G), Lam(PLeaf(Z), MatApp(M2, (Z,)))),
                    (PLeaf(X), ArrowApp(G, PLeaf(Y))),
                ),
                PLeaf(Y),
            ),
            ["swap3", "mult", "elim"],
        ),
    ],
    ids=["next", "above", "above-arrow"],
)
def test_eliminate_term_merges_a_barren_definition(term, rules):
    # Nothing below uses x and its binder holds x alone, so dropping x would
    # leave an empty binder: its definition first merges with a neighbour.
    after, steps = eliminate_term(term, X)
    assert [s.rule for s in steps] == rules
    assert X not in after.defined_vars()
    assert_same_denotation(term, after)


def test_eliminate_term_one_variable(sixnode_term):
    x1 = order_by_name(sixnode_term, ["x1"])[0]
    after, steps = eliminate_term(sixnode_term, x1)
    assert [(s.rule, s.position) for s in steps] == [("mult", 0), ("elim", 0)]
    assert x1 not in after.defined_vars()
    assert len(after.defs) == len(sixnode_term.defs) - 1
    assert len(steps) <= len(sixnode_term.defs)
    assert_same_denotation(sixnode_term, after)


def test_eliminate_term_errors(sixnode_term):
    x3 = order_by_name(sixnode_term, ["x3"])[0]
    with pytest.raises(InOutput):
        eliminate_term(sixnode_term, x3)
    with pytest.raises(NotDefined):
        eliminate_term(sixnode_term, bvar("zz"))
    with pytest.raises(SideConditionViolated):
        eliminate_term(pair_arrow_term(), F)
    bad_output = LetTerm(arrow_term().defs, PLeaf(F))
    with pytest.raises(NotPositive):
        eliminate_term(bad_output, Y)


def test_eliminate_seq_golden_step_list(sixnode_term):
    order = order_by_name(sixnode_term, ("x1", "x2", "x4", "x5"))
    final, trace = eliminate_seq(sixnode_term, order)
    got = tuple(
        (s.rule, s.position, s.var.name if s.var else None) for s in trace.steps
    )
    assert got == SIXNODE_GOLDEN_STEPS
    assert list(replayed(sixnode_term, trace.steps))[-1] == final
    reached = eliminations(sixnode_term, order)
    assert [v.name for v, _ in reached] == ["x1", "x2", "x4", "x5"]
    assert reached[-1][1] == final
    assert len(final.defs) == 1


def test_steps_chain(sixnode_term):
    order = order_by_name(sixnode_term, ("x1", "x2", "x4", "x5"))
    _, trace = eliminate_seq(sixnode_term, order)
    for before, after in itertools.pairwise(replayed(sixnode_term, trace.steps)):
        assert typecheck(before) == typecheck(after)
        assert free_vars(before) == free_vars(after)


def test_watching_shows_each_step_to_the_innermost_block(monkeypatch, sixnode_term):
    order = order_by_name(sixnode_term, ("x1", "x2", "x4", "x5"))

    def watcher(seen):
        # Each step, with whether the run holds its last edit's objects.
        def see(run, step):
            at, _, new, _ = step.edits[-1]
            seen.append((step, all(map(operator.is_, run.defs[at : at + len(new)], new))))
        return see

    outer, inner = [], []
    with rewrite.watching(watcher(outer)):
        with rewrite.watching(watcher(inner)):
            _, trace = eliminate_seq(sixnode_term, order)
        assert outer == []
        assert inner == [(s, True) for s in trace.steps]
        _, trace = eliminate_seq(sixnode_term, order)
    assert outer == [(s, True) for s in trace.steps]
    eliminate_seq(sixnode_term, order)
    assert len(outer) == len(inner) == len(trace.steps)

    # A block left through a rule that raised shows no later run.
    real_apply, calls = rewrite.apply_rule, []

    def apply_twice(*args):
        if len(calls) == 2:
            raise SideConditionViolated("third rule")
        calls.append(args[1])
        return real_apply(*args)

    monkeypatch.setattr(rewrite, "apply_rule", apply_twice)
    seen = []
    with pytest.raises(SideConditionViolated, match="third rule"):
        with rewrite.watching(watcher(seen)):
            eliminate_seq(sixnode_term, order)
    monkeypatch.undo()
    assert [s.rule for s, _ in seen] == calls
    eliminate_seq(sixnode_term, order)
    assert len(seen) == 2


def test_rebuilt_terms_are_the_terms_apply_rule_gives(monkeypatch, sixnode_term):
    # A run rewrites one array in place and records windows; replaying them
    # rebuilds the terms the public apply_rule gives one step at a time,
    # with the typings a fresh check gives, and runs no consistency pass.
    # Every recorded step is one call of the module-level apply_rule, which
    # the benchmark counts.
    hidden = sixnode_term.defined_vars() - pattern_fv(sixnode_term.output)
    cases = [(sixnode_term, list(order)) for order in itertools.permutations(hidden)]
    for i in range(60):
        term = random_network(i).term
        cases += [(term, order) for order in _orders(term, i).values()]
    real_apply = rewrite.apply_rule
    for term, order in cases:
        calls = []
        monkeypatch.setattr(rewrite, "apply_rule", lambda *args: calls.append(args[1]) or real_apply(*args))
        final, trace = eliminate_seq(term, order)
        monkeypatch.undo()
        assert calls == [s.rule for s in trace.steps]
        monkeypatch.setattr(syntax, "_collect_types", None)  # no consistency pass
        terms = list(replayed(term, trace.steps))
        monkeypatch.undo()
        prev = term
        for s, after in zip(trace.steps, terms[1:]):
            expected = apply_rule(prev, s.rule, s.position, s.var)
            assert after == expected
            assert (after._names, after._minted) == (expected._names, expected._minted)
            assert after._typings == let_typings(LetTerm(after.defs, after.output))
            prev = expected
        assert final == prev


def test_eliminate_seq_any_order_same_marginal(sixnode_term):
    for names in (("x5", "x4", "x2", "x1"), ("x2", "x5", "x1", "x4")):
        final, _ = eliminate_seq(sixnode_term, order_by_name(sixnode_term, names))
        values = joint_vector(denote(final))
        assert np.allclose(values, SIXNODE_JOINT, atol=1e-9)


def test_size_bound_check(sixnode_term):
    factors = factors_of(sixnode_term).factors
    for name in ("x1", "x2", "x4", "x5"):
        x = order_by_name(sixnode_term, [name])[0]
        after, steps = eliminate_term(sixnode_term, x)
        bound = size_bound(sixnode_term, [f.vars for f in factors if x in f.vars], after, len(steps))
        assert bound.size_ok and bound.steps_ok, f"{name}: {bound}"
        assert bound.steps <= bound.step_limit == len(sixnode_term.defs)


# ---------------------------------------------------------------- the window check
#
# A rule is checked on the definitions it rewrites, on top of the cached
# typing of the unchanged tail. These tests damage a rule's output and expect
# the error a full check of the rewritten suffix gives, on a term whose
# typings are cached (typechecked first) and on one that was never checked.

checked_or_not = pytest.mark.parametrize("checked", [True, False], ids=["cached", "fresh"])


def _damage_mid(monkeypatch, change):
    """Pass every rule's new definitions through `change` before the check."""
    real = rewrite._checked
    monkeypatch.setattr(
        rewrite, "_checked", lambda term, position, width, mid, *rest: real(term, position, width, change(mid), *rest)
    )


def _maybe_typecheck(term: LetTerm, checked: bool) -> LetTerm:
    if checked:
        typecheck(term)
    return term


@checked_or_not
def test_window_check_rejects_a_changed_free_variable(monkeypatch, checked):
    term = _maybe_typecheck(independent_term(), checked)
    _damage_mid(monkeypatch, lambda mid: ((mid[0][0], MatApp(M2, (Z,))),) + mid[1:])
    with pytest.raises(RewriteError, match=r"^swap1 changed the free variables$"):
        apply_rule(term, "swap1", 0)


@checked_or_not
def test_window_check_rejects_a_changed_type(monkeypatch, checked):
    term = _maybe_typecheck(chain_term(), checked)
    real = rewrite.replace_defs

    def new_output(run, *window):
        # The window is replaced, and with it the output: the array is typed again.
        real(run, *window)
        run.output = PLeaf(Y)
        run.typings = let_typings(LetTerm(tuple(run.defs), run.output))
        return run

    monkeypatch.setattr(rewrite, "replace_defs", new_output)
    with pytest.raises(RewriteError, match=r"^mult changed the type$"):
        apply_rule(term, "mult", 0)


@checked_or_not
def test_window_check_rejects_a_binder_of_the_wrong_type(monkeypatch, checked):
    term = _maybe_typecheck(chain_term(), checked)
    _damage_mid(monkeypatch, lambda mid: ((PLeaf(U), mid[0][1]),))
    with pytest.raises(PatternTypeMismatch, match=r"^binder has type Bool, bound expression has \(Bool \* Bool\)$"):
        apply_rule(term, "mult", 0)


def test_a_rule_types_the_whole_term_first():
    # The window is fine, but the definition above it binds a Bool to an
    # arrow: the rule reports it rather than rewriting below it.
    term = LetTerm(((PLeaf(U), Var(F)),) + chain_term().defs, PPair(PLeaf(X), PLeaf(Y)))
    with pytest.raises(TypeCheckError, match=r"^binder has type Bool, bound expression has \(Bool -o Bool\)$"):
        apply_rule(term, "mult", 1)


# ---------------------------------------------------------------- swap2's names
#
# swap2 names its arrow variable from the term's name census, which
# typechecking leaves on the term and every rule hands on.

G1 = bvar("g__1")


@checked_or_not
@pytest.mark.parametrize(
    "term, position",
    [
        (LetTerm(((PLeaf(G1), MatApp(M4, ())),) + chain_term().defs, PPair(PLeaf(G1), PLeaf(Y))), 1),
        (LetTerm(chain_term().defs + ((PLeaf(G1), MatApp(M4, ())),), PPair(PLeaf(Y), PLeaf(G1))), 0),
    ],
    ids=["above", "below"],
)
def test_swap2_names_its_arrow_fresh_for_the_whole_term(checked, term, position):
    # g__1 is taken, above or below the window, so swap2 mints g__2, and the
    # result's census is the term's with that one name added. Each run gets
    # a new LetTerm, so no census is left over from the other parametrization.
    term = _maybe_typecheck(LetTerm(term.defs, term.output), checked)
    after = apply_rule(term, "swap2", position)
    fn = after.defs[position][0].var
    assert fn == Variable("g__2", Arrow(BOOL, BOOL))
    assert after._names == {"g__1", "g__2", "x", "y"}
    typecheck(after)
    assert_same_denotation(term, after)


@pytest.mark.parametrize("taken", [{}, {"x2": "g__2", "x4": "g__4"}, {"x1": "g__1", "x3": "g__3"}])
def test_swap2_mints_the_smallest_free_name_of_a_whole_trace(taken):
    # The scan for g__k resumes past the last k minted; the names are still
    # those a scan from 1 over the whole name census gives, also past names
    # the program already uses.
    term = rename(random_network(0).term, taken)
    minted = []
    for seed in range(6):
        _, trace = eliminate_seq(term, random_order(term, seed))
        terms = itertools.pairwise(replayed(term, trace.steps))
        for step, (before, after) in zip(trace.steps, terms):
            if step.rule == "swap2":
                names = collect_names(before)
                k = 1
                while f"g__{k}" in names:
                    k += 1
                minted.append(after.defs[step.position][0].var.name)
                assert minted[-1] == f"g__{k}"
    assert len(minted) > 20 and len(set(minted)) > 3
    assert set(taken.values()).isdisjoint(minted)


def test_cached_typings_match_a_reparsed_copy():
    # Every step's term carries the typings of all its suffixes, and they are
    # what checking the printed and reparsed term from scratch gives; its
    # census, which swap2 mints names from, is every name the term mentions.
    for seed in range(10):
        term = random_network(seed).term
        typecheck(term)
        for order in (min_degree_order(term), elimination_candidates(term)[::-1]):
            _, trace = eliminate_seq(term, order)
            for after in itertools.islice(replayed(term, trace.steps), 1, None):
                assert len(after._typings) == len(after.defs) + 1
                copy = parse_program(program_str(after)).term
                typecheck(copy)
                assert after._typings == copy._typings
                assert after._names == frozenset(collect_names(after))


# ---------------------------------------------------------------- cleanup pass


def test_simplify_collapses_rebuilt_binder():
    term = LetTerm(
        ((PLeaf(Y), Let(PLeaf(X), MatApp(M1, ()), Var(X))),),
        PLeaf(Y),
    )
    assert simplify(term) == LetTerm(((PLeaf(Y), MatApp(M1, ())),), PLeaf(Y))


def test_simplify_inlines_variable_bindings():
    inner = Let(PLeaf(Z), Var(X), MatApp(M2, (Z,)))
    term = LetTerm(((PLeaf(Y), inner),), PLeaf(Y))
    assert simplify(term) == LetTerm(((PLeaf(Y), MatApp(M2, (X,))),), PLeaf(Y))


def test_simplify_collapses_let_of_matching_pair():
    # let (x, z) = (M1, M4) in (x, z) rebuilds its binder and drops away whole.
    bound = Let(
        PPair(PLeaf(X), PLeaf(Z)),
        Pair(MatApp(M1, ()), MatApp(M4, ())),
        Pair(Var(X), Var(Z)),
    )
    term = LetTerm(((PPair(PLeaf(Y), PLeaf(U)), bound),), PPair(PLeaf(Y), PLeaf(U)))
    simplified = simplify(term)
    assert simplified.defs[0][1] == Pair(MatApp(M1, ()), MatApp(M4, ()))
    assert_same_denotation(term, simplified)


def test_simplify_splits_pair_lets():
    # Body uses the binder in swapped order, so only the split rule fires.
    bound = Let(
        PPair(PLeaf(X), PLeaf(Z)),
        Pair(MatApp(M1, ()), MatApp(M4, ())),
        Pair(Var(Z), Var(X)),
    )
    term = LetTerm(((PPair(PLeaf(Y), PLeaf(U)), bound),), PPair(PLeaf(Y), PLeaf(U)))
    simplified = simplify(term)
    expected = Let(
        PLeaf(X),
        MatApp(M1, ()),
        Let(PLeaf(Z), MatApp(M4, ()), Pair(Var(Z), Var(X))),
    )
    assert simplified.defs[0][1] == expected
    assert_same_denotation(term, simplified)


def test_simplify_flattens_nested_lets():
    nested = Let(PLeaf(X), Let(PLeaf(Z), MatApp(M1, ()), MatApp(M2, (Z,))), MatApp(M2, (X,)))
    term = LetTerm(((PLeaf(Y), nested),), PLeaf(Y))
    simplified = simplify(term)
    _, new_bound = simplified.defs[0]
    assert isinstance(new_bound, Let)
    assert not isinstance(new_bound.bound, Let)
    assert_same_denotation(term, simplified)


def test_simplify_keeps_a_variable_binding_an_application_needs():
    # Inlining y := x would apply K to x twice, which application forbids.
    k = matrix("K", 2, [[0.9, 0.1], [0.4, 0.6], [0.5, 0.5], [0.2, 0.8]])
    bound = Let(PLeaf(Y), Var(X), MatApp(k, (X, Y)))
    term = LetTerm(((PLeaf(X), MatApp(M1, ())), (PLeaf(Z), bound)), PLeaf(Z))
    simplified = simplify(term)
    assert simplified.defs[1][1] == bound
    assert_same_denotation(term, simplified)


@pytest.mark.parametrize(
    "defs",
    [
        # The part bound last gives way to its lambda, under the first part's d.
        r"f = let (d, g) = (C, \d. D(d)) in g; y = C;",
        # The right component's lets and lambda stay under the left part's d.
        r"f = \e. let (a, d) = (C, let (d, h) = (C, \d. C) in h(e)) in let (a, e) = (C, D(d)) in D(e); y = C;",
        # The lambda is a part's bound; its own inner split shadows a too.
        r"f = \d. D(d); y = let (a, h) = (C, \d. let (a, h) = (D(d), \e. C) in h(a)) in h(a);",
    ],
    ids=["gives-way", "nested-split", "inner-split"],
)
def test_simplify_is_idempotent_where_a_pair_split_shadows_a_lambda(defs):
    # A pair's components are walked before its parts name their binders; a
    # part's binder must still stay apart from the lambdas it scopes over.
    source = (
        "matrix C : -> Bool = [0.5, 0.5]; matrix D : Bool -> Bool = [0.5, 0.5; 0.2, 0.8];"
        f"var f : Bool -o Bool; var g : Bool -o Bool; var h : Bool -o Bool; {defs} z = f(y); in z"
    )
    term = parse_program(source).term
    once = simplify(term)
    assert simplify(once) == once
    assert is_normal_form(once)
    assert_same_denotation(term, once)


def test_simplify_keeps_definition_structure(sixnode_term):
    # vel's result under every order of the six-node sample, and of 20 random
    # networks under each order the verifier tries.
    finals = [
        eliminate_seq(sixnode_term, order_by_name(sixnode_term, names))[0]
        for names in itertools.permutations(("x1", "x2", "x4", "x5"))
    ]
    for seed in range(20):
        term = random_network(seed).term
        finals += [eliminate_seq(term, order)[0] for order in _orders(term, seed).values()]
    for final in finals:
        cleaned = simplify(final)
        assert len(cleaned.defs) == len(final.defs)
        assert [d for d, _ in cleaned.defs] == [d for d, _ in final.defs]
        assert cleaned.output == final.output
        assert_same_denotation(final, cleaned, TOL)
        assert is_normal_form(cleaned)
        assert simplify(cleaned) == cleaned


def test_invariant_checks_survive_python_O():
    # Under -O every assert is gone; these checks must raise all the same.
    script = """
import numpy as np
from lve.errors import InvalidAxes, RewriteError, UnknownVariable
from lve.factors import Factor, eliminate, factors_of, marginal
from lve.parser import parse_program
from lve.rewrite import _subject_reduction
from lve.syntax import let_typings

one = parse_program("matrix C : -> Bool = [0.3, 0.7];\\nx = C;\\nin x").term
two = parse_program("matrix C : -> Bool = [0.3, 0.7];\\nx = C;\\ny = C;\\nin (x, y)").term
try:
    _subject_reduction(let_typings(one)[-1], let_typings(two)[-1], "mult")
except RewriteError as err:
    print("rewrite:", err)
try:
    marginal(eliminate(factors_of(one), list(one.defined_vars())), one.output)
except UnknownVariable as err:
    print("readout:", err)
x, y = sorted(two.defined_vars(), key=lambda v: v.name)
try:
    Factor((y, x), np.ones((2, 2)))
except InvalidAxes as err:
    print("axes:", err)
"""
    src = pathlib.Path(lve.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [
        "rewrite: mult changed the type",
        "readout: kept variables ['x'] are in no factor",
        "axes: factor axes ['y', 'x'] are not sorted by name",
    ]
