"""The cross-checking suite: brute force, random networks, batch reports."""

from __future__ import annotations

import numpy as np
import pytest

from lve.denote import denote
from lve.factors import Factor, FactorSet, constant_factor
from lve.network import network_to_program
from lve.parser import parse_program
from lve.printer import program_str
from lve.syntax import free_vars, pattern_vars, typecheck
from lve.verify import (
    CheckFailure,
    MAX_QUERY,
    GeneratorConfig,
    SuiteReport,
    ORDER_NAMES,
    _same_factors,
    brute_force_joint,
    check_instance,
    random_network,
    run_suite,
)
from helpers import bvar, coin_copy_term, coin_matrix


def test_brute_force_matches_semantics_on_coin_copy():
    term = coin_copy_term()
    rel = brute_force_joint(term)
    base = denote(term)
    assert rel.vars == base.vars == ()
    assert np.allclose(rel.matrix, base.matrix, atol=1e-12)


def test_brute_force_matches_semantics_on_sixnode(sixnode_term):
    rel = brute_force_joint(sixnode_term)
    base = denote(sixnode_term)
    assert np.allclose(rel.matrix, base.matrix, atol=1e-12)


def test_brute_force_handles_open_terms():
    from lve.syntax import LetTerm, MatApp, PLeaf, Variable
    from helpers import matrix

    m = matrix("M", 1, [[0.8, 0.2], [0.1, 0.9]])
    x = Variable("x", m.slots[0])
    term = LetTerm(((PLeaf(Variable("y", m.out)), MatApp(m, (x,))),),
                   PLeaf(Variable("y", m.out)))
    rel = brute_force_joint(term)
    assert rel.vars == (x,)
    assert np.allclose(rel.matrix, m.entries, atol=1e-12)


def test_brute_force_rejects_non_network_shapes():
    from lve.syntax import Arrow, ArrowApp, BOOL, Lam, LetTerm, MatApp, PLeaf, Var, Variable

    coin = coin_matrix()
    f = Variable("f", Arrow(BOOL, BOOL))
    x, y, z = (Variable(n, BOOL) for n in "xyz")
    term = LetTerm(
        (
            (PLeaf(x), MatApp(coin, ())),
            (PLeaf(f), Lam(PLeaf(z), Var(z))),
            (PLeaf(y), ArrowApp(f, PLeaf(x))),
        ),
        PLeaf(y),
    )
    with pytest.raises(ValueError):
        brute_force_joint(term)


def test_random_network_is_seed_deterministic():
    a = random_network(42)
    b = random_network(42)
    assert program_str(a.term) == program_str(b.term)
    assert program_str(random_network(43).term) != program_str(a.term)


@pytest.mark.parametrize("seed", range(12))
def test_random_network_well_formed(seed):
    config = GeneratorConfig()
    prog = random_network(seed, config)
    term = prog.term
    assert not free_vars(term)  # closed
    typecheck(term)
    n = len(term.defs)
    assert config.min_vars <= n <= config.max_vars

    # The last-defined node is always queried.
    out_names = {v.name for v in pattern_vars(term.output)}
    assert term.defs[-1][0].var.name in out_names
    assert len(out_names) <= MAX_QUERY

    # Every hidden node has a query descendant: walk children transitively.
    children: dict[str, set[str]] = {}
    for binder, bound in term.defs:
        child = binder.var.name
        for parent in bound.args:
            children.setdefault(parent.name, set()).add(child)
    reaches = dict.fromkeys(out_names, True)

    def reaches_query(name: str) -> bool:
        if name in reaches:
            return reaches[name]
        reaches[name] = False  # guard against revisiting
        reaches[name] = any(reaches_query(c) for c in children.get(name, ()))
        return reaches[name]

    for binder, _ in term.defs:
        assert reaches_query(binder.var.name), binder.var.name


def test_check_instance_clean_on_sixnode(sixnode_term):
    report = SuiteReport(1, ("identity",))
    check_instance(sixnode_term, 0, report)
    assert report.ok
    assert report.failures == []


RAIN_WET_QUERY_RAIN = {
    "variables": [{"name": "rain"}, {"name": "wet"}],
    "nodes": [
        {"var": "rain", "parents": [], "cpt": [[0.2, 0.8]]},
        {"var": "wet", "parents": ["rain"], "cpt": [[0.9, 0.1], [0.05, 0.95]]},
    ],
    "query": ["rain"],
}


@pytest.mark.parametrize(
    "term",
    [
        network_to_program(RAIN_WET_QUERY_RAIN).term,
        parse_program("matrix C : -> Bool = [0.3, 0.7];\nx = C;\ny = C;\nin y\n").term,
    ],
    ids=["rain-wet", "two-coins"],
)
def test_check_instance_clean_with_a_barren_node(term):
    # wet and x are barren: no definition uses them. vel merges such a
    # definition into a neighbour, which matches vef's step as a product.
    report = SuiteReport(1, ORDER_NAMES)
    check_instance(term, 0, report)
    assert report.failures == []


def test_a_barren_step_compares_only_the_differing_product():
    rain = bvar("rain")
    prior = Factor((rain,), np.array([0.2, 0.8]))
    summed = constant_factor([rain])
    other = Factor((rain,), np.array([0.3, 0.7]))
    cap = 2**20
    # vel's merged factor against vef's pair: equal as a product only.
    assert _same_factors(FactorSet([prior]), FactorSet([summed, prior]), True, cap)
    assert not _same_factors(FactorSet([prior]), FactorSet([summed, prior]), False, cap)
    assert not _same_factors(FactorSet([other]), FactorSet([summed, prior]), True, cap)
    # A scalar and a constant factor of one are the same function.
    assert _same_factors(FactorSet([prior, constant_factor([])]), FactorSet([prior, summed]), True, cap)


def test_run_suite_small_batch():
    report = run_suite(5, seed=99)
    assert report.ok
    assert report.count == 5
    assert report.orders == ("identity", "reverse", "random", "min-degree")
    assert report.elapsed > 0


def test_failure_reporting():
    f1 = CheckFailure(3, "reverse", "marginal", "off by 0.1")
    f2 = CheckFailure(4, None, "mass", "mass 1.5, expected 2")
    assert str(f1) == "marginal failed at instance 3, order reverse: off by 0.1"
    assert str(f2) == "mass failed at instance 4: mass 1.5, expected 2"
    report = SuiteReport(5, ("identity",), failures=[f1, f2])
    assert not report.ok
    assert [f for f in report.failures if f.check == "marginal"] == [f1]
    assert [f for f in report.failures if f.check in ("mass", "brute")] == [f2]
