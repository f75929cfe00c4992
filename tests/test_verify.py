"""The cross-checking suite: brute force, random networks, batch reports."""

from __future__ import annotations

import dataclasses
import sys

import numpy as np
import pytest

from lve import rewrite, syntax, verify
from lve.cli import main
from lve.denote import DenoteContext, _suffix, denote, joint_vector, total_mass_check
from lve.errors import LveError, RewriteError, WebCapExceeded
from lve.factors import (
    Factor,
    FactorSet,
    check_factor_vars,
    constant_factor,
    eliminate,
    factor_sets_equal,
    marginal,
    relation_from_factors,
)
from lve.network import network_to_program
from lve.parser import parse_program
from lve.printer import program_str
from lve.syntax import (
    BOOL,
    Arrow,
    ArrowApp,
    Lam,
    Let,
    LetTerm,
    MatApp,
    Pair,
    PLeaf,
    PPair,
    StochasticMatrix,
    Tensor,
    Var,
    Variable,
    free_vars,
    pattern_vars,
    typecheck,
    within_tol,
)
from lve.verify import (
    CheckFailure,
    MAX_QUERY,
    GeneratorConfig,
    SuiteReport,
    ORDER_NAMES,
    _orders,
    _same_denotation,
    _same_factors,
    brute_force_joint,
    check_instance,
    random_network,
    run_suite,
)
from helpers import (
    bvar,
    chain_network,
    coin_copy_term,
    coin_matrix,
    grid_network,
    matrix,
    scalar_brute_force_joint,
)


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
    m = matrix("M", 1, [[0.8, 0.2], [0.1, 0.9]])
    x = Variable("x", m.slots[0])
    term = LetTerm(((PLeaf(Variable("y", m.out)), MatApp(m, (x,))),),
                   PLeaf(Variable("y", m.out)))
    rel = brute_force_joint(term)
    assert rel.vars == (x,)
    assert np.allclose(rel.matrix, m.entries, atol=1e-12)


def test_brute_force_rejects_non_network_shapes():
    coin = coin_matrix()
    f = Variable("f", Arrow(BOOL, BOOL))
    x, y, z = (bvar(n) for n in "xyz")
    lam = (PLeaf(f), Lam(PLeaf(z), Var(z)))
    terms = {
        "brute force expects a let-term": MatApp(coin, ()),
        "brute force expects a positive output": LetTerm((lam,), PLeaf(f)),
        "brute force does not cover arrow definitions": LetTerm(
            ((PLeaf(x), MatApp(coin, ())), lam, (PLeaf(y), ArrowApp(f, PLeaf(x)))), PLeaf(y)
        ),
        # f is free here, so no arrow is defined.
        "brute force does not cover ArrowApp definitions": LetTerm(
            ((PLeaf(x), MatApp(coin, ())), (PLeaf(y), ArrowApp(f, PLeaf(x)))), PLeaf(y)
        ),
        "brute force does not cover Let definitions": LetTerm(
            ((PLeaf(y), Let(PLeaf(x), MatApp(coin, ()), Var(x))),), PLeaf(y)
        ),
    }
    for message, term in terms.items():
        with pytest.raises(ValueError) as err:
            brute_force_joint(term)
        assert str(err.value) == message


def _pair_terms() -> list[LetTerm]:
    """Closed and open terms with tensor-typed binders, pair binders bound
    to a variable, and nested pair expressions."""
    coin, flip = coin_matrix(0.3), matrix("F", 1, [[0.9, 0.1], [0.2, 0.8]])
    both = matrix("B", 2, [[0.6, 0.4], [0.1, 0.9], [0.5, 0.5], [0.7, 0.3]])
    a, b, c, d, e, x = (bvar(n) for n in "abcdex")
    p = Variable("p", Tensor(BOOL, BOOL))
    q = Variable("q", Tensor(BOOL, Tensor(BOOL, BOOL)))
    defs = (
        (PLeaf(a), MatApp(coin, ())),
        (PLeaf(p), Pair(MatApp(flip, (a,)), Var(a))),
        (PPair(PLeaf(b), PLeaf(c)), Var(p)),
        (PLeaf(q), Pair(MatApp(both, (c, b)), Pair(Var(b), MatApp(coin, ())))),
        (PPair(PLeaf(d), PLeaf(e)), Pair(MatApp(flip, (b,)), MatApp(both, (a, x)))),
    )
    return [
        LetTerm(defs[:4], PPair(PLeaf(q), PLeaf(a))),
        LetTerm(defs, PPair(PLeaf(e), PPair(PLeaf(q), PLeaf(d)))),
        LetTerm(defs[:3], PLeaf(p)),
    ]


def test_brute_force_equals_the_scalar_enumeration():
    terms = [random_network(i).term for i in range(40)] + _pair_terms() + [coin_copy_term()]
    for term in terms:
        fast, slow = brute_force_joint(term), scalar_brute_force_joint(term)
        assert fast.vars == slow.vars and fast.ty is slow.ty
        assert np.allclose(fast.matrix, slow.matrix, rtol=0, atol=1e-12)
    open_term = _pair_terms()[1]
    assert [v.name for v in brute_force_joint(open_term).vars] == ["x"]
    assert np.allclose(brute_force_joint(open_term).matrix, denote(open_term).matrix, rtol=0, atol=1e-12)


def test_brute_force_checks_the_cap_before_allocating():
    term = network_to_program(chain_network(50)).term
    with pytest.raises(WebCapExceeded, match=r"^web of size 2\^50 exceeds cap 1048576$"):
        brute_force_joint(term)


@pytest.mark.parametrize(
    "net, skipped",
    [
        (grid_network(4, 4), {("denote-step", "random")}),
        (chain_network(50), {("brute", None), ("semfacts", None), ("denote-step", "random")}),
    ],
    ids=["grid-4x4", "chain-50"],
)
def test_checks_over_the_cap_are_skipped_and_listed(net, skipped):
    report = SuiteReport(1, ORDER_NAMES)
    check_instance(network_to_program(net).term, 7, report)
    assert report.failures == []
    assert {(f.check, f.order) for f in report.skipped} == skipped
    assert all(f.instance == 7 and f.detail.endswith(" exceeds cap 1048576") for f in report.skipped)
    assert all(f.detail.startswith("web of size 2^50 ") for f in report.skipped if f.check != "denote-step")
    assert all(f.detail.split(":")[0] in ("swap1", "swap2", "swap3", "mult", "elim")
               for f in report.skipped if f.check == "denote-step")


def test_the_suite_on_seed_zero_skips_nothing():
    report = run_suite(100, seed=0)
    assert report.ok and report.skipped == []


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


def test_same_denotation_compares_suffixes_up_to_row_order():
    # M(a, b) and its transpose applied to (b, a) denote the same relation,
    # whose raw folds list the rows in the two application orders.
    a, b, c, y = bvar("a"), bvar("b"), bvar("c"), bvar("y")
    rows = np.array([[0.9, 0.1], [0.6, 0.4], [0.3, 0.7], [0.2, 0.8]])
    m, flipped = matrix("M", 2, rows), matrix("Mt", 2, rows.reshape(2, 2, 2).transpose(1, 0, 2).reshape(4, 2))

    def step(bound):
        # A step of a run from `before` whose last term is held as built.
        terms = rewrite._Terms(LetTerm(((PLeaf(y), MatApp(m, (a, b))),), PLeaf(y)))
        terms.edits.append(())
        terms.held[1] = LetTerm(((PLeaf(y), bound),), PLeaf(y))
        return rewrite.RewriteStep("swap1", 0, None, (), terms, 0)

    ctx = DenoteContext()
    same = step(MatApp(flipped, (b, a)))
    assert (_suffix(same.before, 0, ctx).vars, _suffix(same.after, 0, ctx).vars) == ((a, b), (b, a))
    assert _same_denotation(same, ctx)
    assert not _same_denotation(step(MatApp(m, (b, a))), ctx)
    assert not _same_denotation(step(MatApp(m, (a, c))), ctx)


def test_check_instance_walks_each_let_term_once_for_its_size(monkeypatch):
    # A let-term keeps its size. Typing walks terms too, so only the walks
    # `size` starts are counted.
    walked = []
    occurrences = syntax.occurrences

    def counted(t):
        if sys._getframe(1).f_code is syntax.size.__code__:
            walked.append(t)
        return occurrences(t)

    monkeypatch.setattr(syntax, "occurrences", counted)
    report = SuiteReport(1, ORDER_NAMES)
    check_instance(random_network(3).term, 0, report)
    assert report.ok and len(walked) > 4
    assert len({id(t) for t in walked}) == len(walked)


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


# ---------------------------------------------------------------- shared prefixes


def _reference_check_instance(term, instance, order_seed=0):
    """`check_instance` as one separate run per order, sharing nothing between
    orders: its failures, and the order prefixes it rewrote. Rewriting,
    bounds and factor extraction go through `verify`'s globals, so a test's
    patches reach both."""
    failures, prefixes = [], set()
    fail = failures.append
    ctx = DenoteContext()
    base = verify.denote(term, ctx)
    brute = brute_force_joint(term)
    if not (base.vars == brute.vars and within_tol(base.matrix, brute.matrix)):
        fail(CheckFailure(instance, None, "brute", "enumeration disagrees with the semantics"))
    fs0 = verify.factors_of(term, ctx)
    rebuilt = relation_from_factors(term, ctx)
    if not (base.vars == rebuilt.vars and within_tol(base.matrix, rebuilt.matrix)):
        fail(CheckFailure(instance, None, "semfacts", "factor product disagrees with the semantics"))
    if not check_factor_vars(term):
        fail(CheckFailure(instance, None, "varset", "factor variable census is off"))
    mass = total_mass_check(term, ctx)
    if not mass.ok:
        fail(CheckFailure(instance, None, "mass", f"mass {mass.mass!r}, expected {mass.expected}"))
    base_marg = joint_vector(base)

    for name, order in _orders(term, order_seed).items():
        vef = eliminate(fs0, order, ctx.web_cap)
        for st in vef.steps:
            if st.muladds > 2 * st.group_size * st.product_table:
                detail = f"step {st.var.name}: {st.muladds} > 2*{st.group_size}*{st.product_table}"
                fail(CheckFailure(instance, name, "counter-bound", detail))
        if not within_tol(marginal(vef, term.output, ctx.web_cap), base_marg):
            fail(CheckFailure(instance, name, "marginal", "classical elimination marginal is off"))
        cur, cur_fs, merged, failed = term, fs0, False, False
        for k, x in enumerate(order):
            prefixes.add(tuple(order[: k + 1]))
            barren = not any(x in free_vars(bound) for _, bound in cur.defs)
            merged = merged or barren
            try:
                nxt, steps = verify.eliminate_term(cur, x)
            except LveError as err:
                fail(CheckFailure(instance, name, "rewrite", f"{x.name}: {err}"))
                failed = True
                break
            bound = verify.size_bound(cur, [f.vars for f in cur_fs.factors if x in f.vars], nxt, len(steps))
            if not bound.steps_ok:
                detail = f"{bound.steps} steps for {bound.step_limit} definitions"
                fail(CheckFailure(instance, name, "step-bound", detail))
            if not bound.size_ok:
                detail = (
                    f"{bound.size_before} grew to {bound.size_after} with {bound.allowance // 4} internal variables"
                )
                fail(CheckFailure(instance, name, "size-bound", detail))
            for s in steps:
                da, db = verify.denote(s.before, ctx), verify.denote(s.after, ctx)
                if not (da.vars == db.vars and within_tol(da.matrix, db.matrix)):
                    fail(CheckFailure(instance, name, "denote-step", f"{s.rule} changed the denotation"))
                if s.rule.startswith("swap") and not factor_sets_equal(
                    verify.factors_of(s.before, ctx), verify.factors_of(s.after, ctx)
                ):
                    fail(CheckFailure(instance, name, "swap-facts", f"{s.rule} changed the factor multiset"))
            nxt_fs = verify.factors_of(nxt, ctx)
            if not _same_factors(nxt_fs, eliminate(cur_fs, [x], ctx.web_cap), barren, ctx.web_cap):
                detail = f"factors after dropping {x.name} are not one step"
                fail(CheckFailure(instance, name, "facts-step", detail))
            cur, cur_fs = nxt, nxt_fs
        if failed:
            continue
        if not _same_factors(cur_fs, vef, merged, ctx.web_cap):
            fail(CheckFailure(instance, name, "facts-seq", "rewritten factors differ from classical elimination"))
        if not within_tol(marginal(cur_fs, term.output, ctx.web_cap), base_marg):
            fail(CheckFailure(instance, name, "marginal", "rewriting marginal is off"))
    return failures, prefixes


def _count_calls(monkeypatch, name):
    calls = []
    fn = getattr(verify, name)

    def counted(*args):
        calls.append(args)
        return fn(*args)

    monkeypatch.setattr(verify, name, counted)
    return calls


@pytest.mark.parametrize("i", range(60))
def test_shared_prefixes_report_as_separate_runs(monkeypatch, i):
    term = random_network(i).term
    expected, prefixes = _reference_check_instance(term, i, order_seed=i)
    calls = _count_calls(monkeypatch, "eliminate_term")
    report = SuiteReport(1, ORDER_NAMES)
    check_instance(term, i, report, order_seed=i)
    assert report.failures == expected == []
    assert len(calls) == len(prefixes)


# random_network(2): identity and min-degree both run x1, x2, ..., x7, so the
# step that eliminates x2 lies on a prefix two orders share.
SHARED = 2


@pytest.mark.parametrize("fault", ["step-bound", "rewrite"])
def test_a_failing_shared_step_is_reported_under_every_order(monkeypatch, fault):
    term = random_network(SHARED).term
    orders = _orders(term, SHARED)
    assert orders["identity"][:2] == orders["min-degree"][:2]
    x2 = orders["identity"][1]
    assert x2.name == "x2"
    if fault == "step-bound":
        size_bound = verify.size_bound

        def failing_size_bound(before, touched, after, steps):
            bound = size_bound(before, touched, after, steps)
            if x2 in before.defined_vars() and x2 not in after.defined_vars():
                return dataclasses.replace(bound, steps=bound.step_limit + 1)
            return bound

        monkeypatch.setattr(verify, "size_bound", failing_size_bound)
    else:
        eliminate_term = verify.eliminate_term

        def failing_eliminate_term(cur, x):
            if x is x2:
                raise RewriteError("injected")
            return eliminate_term(cur, x)

        monkeypatch.setattr(verify, "eliminate_term", failing_eliminate_term)
    expected, prefixes = _reference_check_instance(term, SHARED, order_seed=SHARED)
    calls = _count_calls(monkeypatch, "eliminate_term")
    report = SuiteReport(1, ORDER_NAMES)
    check_instance(term, SHARED, report, order_seed=SHARED)

    assert report.failures == expected
    assert {f.order for f in expected if f.check == fault} == set(ORDER_NAMES)
    assert len(calls) == len(prefixes) < sum(map(len, orders.values()))


# ---------------------------------------------------------------- the route table


def test_one_route_table_feeds_compare_and_check_instance(monkeypatch, capsys, samples_dir, sixnode_term):
    # A vef route whose marginal is off by 1e-6 shows in both consumers, so
    # both read `verify.ROUTES` rather than a copy of the routes.
    vef = verify.ROUTES["vef"]

    def off(term, order, ctx):
        run = vef(term, order, ctx)
        return dataclasses.replace(run, marginal=run.marginal + 1e-6)

    monkeypatch.setitem(verify.ROUTES, "vef", off)
    assert main(["compare", "--order", "x1,x2,x4,x5", str(samples_dir / "sixnode.lve")]) == 1
    out = capsys.readouterr().out.splitlines()
    assert "agree: no" in out and "vef cost: muladds=76 max_table=16" in out
    report = SuiteReport(1, ORDER_NAMES)
    check_instance(sixnode_term, 0, report)
    detail = "classical elimination marginal is off"
    assert report.failures == [CheckFailure(0, name, "marginal", detail) for name in ORDER_NAMES]


# ---------------------------------------------------------------- injected faults


def _flip(e):
    """`e` with its first matrix application, left first, reading its table
    with the columns reversed; `e` itself when it holds none."""
    if isinstance(e, MatApp):
        m = e.matrix
        return MatApp(StochasticMatrix(m.name, m.slots, m.out, m.entries[:, ::-1]), e.args)
    if isinstance(e, Pair):
        return Pair(_flip(e.fst), e.snd)
    if isinstance(e, Let):
        return Let(e.binder, _flip(e.bound), e.body)
    if isinstance(e, Lam):
        return Lam(e.param, _flip(e.body))
    return e


def _faulty_replace_defs(fault):
    """`rewrite.replace_defs` with a fault: "window", swap1 flips a matrix in
    the definitions it swaps; "above", a rule at a position past 0 also
    replaces definition 0 with a flipped copy."""
    replace_defs = rewrite.replace_defs

    def faulty(t, position, width, mid, minted=None):
        swap1 = width == 2 and len(mid) == 2 and mid[0] == t.defs[position + 1] and mid[1] == t.defs[position]
        if fault == "window" and swap1:
            mid = ((mid[0][0], _flip(mid[0][1])), mid[1])
        after = replace_defs(t, position, width, mid, minted)
        if fault == "above" and position > 0:
            binder, bound = after.defs[0]
            flipped = _flip(bound)
            if flipped is not bound:
                after = replace_defs(after, 0, 1, ((binder, flipped),))
        return after

    return faulty


@pytest.mark.parametrize("fault, caught_on", [("window", 33), ("above", 38)])
def test_a_rule_that_changes_the_denotation_fails_denote_step(monkeypatch, fault, caught_on):
    # Each step is checked on its suffix and on the identity of the
    # definitions above it; the reference denotes both terms whole.
    monkeypatch.setattr(rewrite, "replace_defs", _faulty_replace_defs(fault))
    caught = 0
    for i in range(40):
        term = random_network(i).term
        expected, _ = _reference_check_instance(term, i, order_seed=i)
        report = SuiteReport(1, ORDER_NAMES)
        check_instance(term, i, report, order_seed=i)
        assert report.failures == expected, i
        caught += any(f.check == "denote-step" for f in expected)
    assert caught == caught_on
