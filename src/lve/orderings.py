"""Elimination orders over a term's internal variables. They read types
only: the factors' variable sets come from `syntax.factor_scopes`, and no
table is built."""

from __future__ import annotations

import heapq
import random

from .syntax import LetTerm, Variable, factor_scopes, pattern_fv


def elimination_candidates(term: LetTerm) -> list[Variable]:
    """Positive defined variables outside the output, in name order."""
    out = pattern_fv(term.output)
    return sorted(
        (v for v in term.defined_vars() if not v.is_arrow and v not in out),
        key=lambda v: v.name,
    )


def min_degree_order(term: LetTerm, ctx: object = None) -> list[Variable]:
    """Greedy order: repeatedly pick the candidate with the fewest neighbours
    in the interaction graph of the factor scopes, connecting its neighbours
    as if eliminated. Ties break by name. `ctx` is ignored.

    The candidates wait in a heap keyed on (degree, rank in name order). A
    candidate whose neighbourhood changes is pushed again with its new
    degree, and a popped entry whose degree is out of date, or whose
    variable is gone, is dropped."""
    adj: dict[Variable, set[Variable]] = {}
    for scope, _ in factor_scopes(term):
        for v in scope:
            adj.setdefault(v, set()).update(scope - {v})
    candidates = elimination_candidates(term)
    rank = {v: i for i, v in enumerate(candidates)}
    for v in candidates:
        adj.setdefault(v, set())
    heap = [(len(adj[v]), i) for i, v in enumerate(candidates)]
    heapq.heapify(heap)
    order: list[Variable] = []
    while heap:
        degree, i = heapq.heappop(heap)
        pick = candidates[i]
        if pick not in adj or len(adj[pick]) != degree:
            continue
        neighbours = adj.pop(pick)
        for u in neighbours:
            a = adj[u]
            a |= neighbours
            a.discard(u)
            a.discard(pick)
            if u in rank:
                heapq.heappush(heap, (len(a), rank[u]))
        order.append(pick)
    return order


def random_order(term: LetTerm, seed: int) -> list[Variable]:
    order = elimination_candidates(term)
    random.Random(seed).shuffle(order)
    return order
