"""Elimination order strategies."""

from __future__ import annotations

from lve.cost import CostCounter
from lve.denote import DenoteContext
from lve.factors import factors_of
from lve.network import network_to_program
from lve.orderings import elimination_candidates, min_degree_order, random_order
from lve.syntax import BOOL
from lve.verify import GeneratorConfig, random_network
from helpers import SIXNODE_ORDER_REV, chain, eliminations, grid, order_by_name


def test_candidates_are_hidden_positive_vars(sixnode_term):
    cands = elimination_candidates(sixnode_term)
    assert [v.name for v in cands] == ["x1", "x2", "x4", "x5"]
    assert all(v.ty == BOOL for v in cands)


def test_min_degree_is_deterministic(sixnode_term):
    order = [v.name for v in min_degree_order(sixnode_term)]
    assert order == ["x1", "x4", "x2", "x5"]
    assert order == [v.name for v in min_degree_order(sixnode_term)]


def test_min_degree_covers_all_candidates(sixnode_term):
    assert sorted(v.name for v in min_degree_order(sixnode_term)) == [
        "x1",
        "x2",
        "x4",
        "x5",
    ]


def test_min_degree_leaves_the_context_untouched(sixnode_term):
    # Ordering reads the types alone: it charges the context nothing and
    # memoizes no denotation, also on rewritten terms holding arrows.
    reached = eliminations(sixnode_term, order_by_name(sixnode_term, SIXNODE_ORDER_REV))
    for term in [sixnode_term] + [t for _, t in reached]:
        ctx = DenoteContext()
        min_degree_order(term, ctx)
        assert ctx.counter == CostCounter()
        assert ctx._cache == {}


def test_random_order_is_a_seeded_permutation(sixnode_term):
    a = random_order(sixnode_term, 7)
    b = random_order(sixnode_term, 7)
    c = random_order(sixnode_term, 8)
    assert a == b
    assert sorted(v.name for v in a) == ["x1", "x2", "x4", "x5"]
    assert sorted(v.name for v in c) == ["x1", "x2", "x4", "x5"]
    assert any(random_order(sixnode_term, s) != a for s in range(1, 20))


def scan_min_degree_order(term):
    """The min-degree order by a full scan of the remaining candidates per
    pick: the definition the heap in `min_degree_order` must reproduce."""
    adj = {}
    for f in factors_of(term).factors:
        for v in f.vars:
            adj.setdefault(v, set()).update(u for u in f.vars if u != v)
    remaining = set(elimination_candidates(term))
    for v in remaining:
        adj.setdefault(v, set())
    order = []
    while remaining:
        pick = min(remaining, key=lambda v: (len(adj[v]), v.name))
        neighbours = adj.pop(pick)
        for u in neighbours:
            adj[u].discard(pick)
            adj[u].update(w for w in neighbours if w != u)
        remaining.remove(pick)
        order.append(pick)
    return order


def test_min_degree_heap_matches_the_scan():
    terms = [random_network(seed).term for seed in range(40)]
    wide = GeneratorConfig(min_vars=12, max_vars=30)
    terms += [random_network(seed, wide).term for seed in range(20)]
    terms += [network_to_program(chain(n)).term for n in (1, 2, 17, 60)]
    terms += [network_to_program(grid(r, c)).term for r, c in ((2, 2), (3, 5), (5, 5), (6, 4))]
    for term in terms:
        assert min_degree_order(term) == scan_min_degree_order(term)
