"""Factor scopes: each factor's variable set, read off the types alone."""

from __future__ import annotations

import importlib
import math
from collections import Counter
from itertools import permutations

import pytest

from lve.errors import NotCanonicalized
from lve.factors import check_factor_vars, eliminate, factors_of, plan_elimination
from lve.network import network_to_program
from lve.orderings import min_degree_order
from lve.parser import parse_program
from lve.rewrite import ELIM, eliminate_seq
from lve.syntax import LetTerm, MatApp, PLeaf, factor_scopes, free_vars, pattern_fv, pattern_vars, web_size
from lve.verify import ORDER_NAMES, SuiteReport, _orders, check_instance, random_network
from lve.webs import sorted_vars
from helpers import SIXNODE_ORDER_FWD, bvar, chain, coin_matrix, grid, order_by_name, tensor_network


def _web(vs) -> int:
    return math.prod(web_size(v.ty) for v in vs)


def test_scopes_are_the_variable_sets_of_the_factors(sixnode_term):
    # Every term a rewrite passes through, swap2's arrows and their folds included.
    _, trace = eliminate_seq(sixnode_term, order_by_name(sixnode_term, SIXNODE_ORDER_FWD))
    terms = [sixnode_term] + [s.after for s in trace.steps]
    folds = 0
    for term in terms:
        scopes = factor_scopes(term)
        assert [frozenset(f.vars) for f in factors_of(term).factors] == [s for s, _ in scopes]
        assert scopes[-1] == (pattern_fv(term.output), ())
        assert sorted(i for _, defs in scopes for i in defs) == list(range(len(term.defs)))
        folds += sum(len(defs) > 1 for _, defs in scopes)
    assert folds > 0


def test_scopes_are_worked_out_once_per_term(sixnode_term):
    # min_degree_order and factors_of read the same scopes, which the term
    # keeps; a term whose binders clash keeps nothing and raises again.
    term = LetTerm(sixnode_term.defs, sixnode_term.output)
    assert term._scopes is None
    min_degree_order(term)
    scopes = term._scopes
    assert scopes is not None
    factors_of(term)
    assert factor_scopes(term) is scopes and term._scopes is scopes
    x = bvar("x")
    clash = LetTerm(((PLeaf(x), MatApp(coin_matrix(), ())), (PLeaf(x), MatApp(coin_matrix(), ()))), PLeaf(x))
    for _ in range(2):
        with pytest.raises(NotCanonicalized):
            factor_scopes(clash)
        assert clash._scopes is None


def _cases(sixnode_term):
    """sixnode under all 24 orders, `random_network(i)` for i < 60 under
    `verify._orders`, and the chains and grids of the min-degree tests under
    min-degree."""
    cases = [(sixnode_term, list(p)) for p in permutations(min_degree_order(sixnode_term))]
    for i in range(60):
        term = random_network(i).term
        cases += [(term, order) for order in _orders(term, i).values()]
    for data in [chain(n) for n in (1, 2, 17, 60)] + [grid(r, c) for r, c in ((2, 2), (3, 5), (5, 5), (6, 4))]:
        term = network_to_program(data).term
        cases.append((term, min_degree_order(term)))
    return cases


def test_rewriting_costs_what_elimination_costs(sixnode_term):
    """Rewriting costs what VE costs, checked on the types alone. For each
    eliminated variable x, take the term just before vel's elim step drops
    x: the factor scope holding x there has the web of vef's product table
    for x's step (`VefStep.product_table`).

    The inputs are `_cases`: 1216 steps, all equal. The scope has
    to fold each arrow definition into the one consuming its arrow, as
    `factor_scopes` does. The merged definition's own scope, which counts an
    arrow leaf as one variable over its whole web, differs on 480 of those
    steps (474 over, 6 under); at x3's step of `random_network(5)` under
    `random_order(t, 5)` it reads 64 against 32. That per-definition reading
    was the open gap between vel's static peak and vef's `max_table`."""
    checked, mismatches, unfolded = 0, [], Counter()
    for term, order in _cases(sixnode_term):
        vef = eliminate(factors_of(term), order)
        _, trace = eliminate_seq(term, order)
        elims = [s for s in trace.steps if s.rule == ELIM]
        assert [s.var for s in elims] == list(order)
        for s, st in zip(elims, vef.steps):
            (scope,) = [scope for scope, _ in factor_scopes(s.before) if s.var in scope]
            checked += 1
            if _web(scope) != st.product_table:
                mismatches.append((s.var.name, _web(scope), st.product_table))
            binder, bound = s.before.defs[s.position]
            alone = _web(free_vars(bound) | pattern_fv(binder))
            unfolded[(alone > st.product_table) - (alone < st.product_table)] += 1
    assert checked == 1216
    assert mismatches == []
    assert (unfolded[1], unfolded[-1]) == (474, 6)


def test_the_plan_on_scopes_costs_what_elimination_costs(sixnode_term):
    """vef's whole cost is known before any table exists: the plan built
    from `factor_scopes` alone has the counters and the steps of executed
    elimination, on all `_cases` (1216 steps)."""
    checked = 0
    for term, order in _cases(sixnode_term):
        vef = eliminate(factors_of(term), order)
        steps, counter = plan_elimination([sorted_vars(scope) for scope, _ in factor_scopes(term)], order)
        assert counter == vef.counter
        assert steps == vef.steps
        checked += len(steps)
    assert checked == 1216


def _counter_gaps(term, orders) -> list:
    """The orders under which reading vel's final term charges other
    muladds or max_table than vef."""
    gaps = []
    for order in orders:
        vef = eliminate(factors_of(term), order).counter
        vel = factors_of(eliminate_seq(term, order)[0]).counter
        if (vel.muladds, vel.max_table) != (vef.muladds, vef.max_table):
            gaps.append(([v.name for v in order], vel.muladds, vel.max_table, vef.muladds, vef.max_table))
    return gaps


def test_evaluating_the_rewritten_term_costs_what_elimination_costs(sixnode_term):
    """The numeric half of the claim: reading vel's final term as factor
    contractions (`factors_of`) charges exactly vef's muladds and max_table
    for the same order, on all 272 `_cases`. Each let that drops a variable
    contracts the factors mentioning it, in the order vef's bucket lists
    them, so not even the pairwise folds differ. The readout through
    `denote` cost 3x vef's muladds and twice its peak on a chain, and 2^21
    against 2^9 on a 6x6 grid."""
    cases = _cases(sixnode_term)
    assert len(cases) == 272
    assert [gap for term, order in cases for gap in _counter_gaps(term, [order])] == []


# Two tensor-typed variables, one nested; counters depend on table shapes alone.
NESTED_TENSORS = f"""
matrix A : -> (Bool * Bool) = [0.1, 0.2, 0.3, 0.4];
matrix B : (Bool * Bool) -> Bool * (Bool * Bool) = [{"; ".join([", ".join(["0.125"] * 8)] * 4)}];
matrix C : (Bool * (Bool * Bool)) * (Bool * Bool) -> Bool = [{"; ".join(["0.5, 0.5"] * 32)}];
matrix D : Bool -> Bool = [0.3, 0.7; 0.6, 0.4];
var a : Bool * Bool;
var b : Bool * (Bool * Bool);
a = A;
b = B(a);
c = C(b, a);
d = D(c);
in d
"""


def test_tensor_typed_variables_cost_what_elimination_costs(samples_dir):
    """A variable over Bool * Bool is one bucket on both routes: the reading
    sums out all its indices in one contraction, as vef's step does, so
    `samples/tensor.lve` charges 44 and 48 muladds on both, not 52 on vel."""
    for text in ((samples_dir / "tensor.lve").read_text(), NESTED_TENSORS):
        term = parse_program(text).term
        hidden = [v for binder, _ in term.defs for v in pattern_vars(binder) if v not in pattern_fv(term.output)]
        assert _counter_gaps(term, permutations(hidden)) == []


def test_generated_tensor_networks_cost_what_elimination_costs():
    """`tensor_network(seed)` for 30 seeds under `verify._orders`: 120
    cases, every one with a hidden Bool * Bool variable, all equal, and the
    verifier finds nothing."""
    gaps, report = [], SuiteReport(30, ORDER_NAMES)
    for seed in range(30):
        term = parse_program(tensor_network(seed)).term
        gaps += _counter_gaps(term, _orders(term, seed).values())
        check_instance(term, seed, report, order_seed=seed)
    assert gaps == []
    assert report.failures == [] and report.skipped == []


def test_ordering_and_the_census_check_denote_nothing(sixnode_term, monkeypatch):
    # Every denotation, however `denote` was imported, runs its clauses.
    # (`lve.denote` the attribute is the function; the module is imported.)
    def no_denote(*args, **kwargs):
        raise AssertionError("denote called")

    denote_module = importlib.import_module("lve.denote")
    monkeypatch.setattr(denote_module, "denote", no_denote)
    monkeypatch.setattr(denote_module, "_clause", no_denote)
    _, trace = eliminate_seq(sixnode_term, order_by_name(sixnode_term, SIXNODE_ORDER_FWD))
    for term in [sixnode_term] + [s.after for s in trace.steps]:
        assert check_factor_vars(term)
        min_degree_order(term)
        factors_of(term)
