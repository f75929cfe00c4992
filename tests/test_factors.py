"""Factor algebra, factor sets of terms, and classical variable elimination."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from lve import factors
from lve.cost import CostCounter
from lve.denote import DenoteContext, denote
from lve.errors import (
    BinderCapture,
    InvalidAxes,
    NotCanonicalized,
    SharedVarTypeMismatch,
    UnknownVariable,
    WebCapExceeded,
)
from lve.factors import (
    Factor,
    FactorSet,
    ScopeFactors,
    check_factor_vars,
    constant_factor,
    contract,
    definition_factor,
    dump_factors,
    eliminate,
    factor_sets_equal,
    factors_allclose,
    factors_of,
    marginal,
    relation_from_factors,
    unmatched_factors,
)
from lve.network import network_to_program
from lve.orderings import min_degree_order, random_order
from lve.parser import parse_program
from lve.rewrite import eliminate_seq
from lve.syntax import BOOL, Let, LetTerm, MatApp, PLeaf, PPair, Tensor, Var, Variable, web_size, within_tol
from lve.verify import _orders, random_network
from lve.webs import enumerate_assignments, sorted_vars
from helpers import (
    SIXNODE_JOINT,
    SIXNODE_MAX_TABLE_FWD,
    SIXNODE_MAX_TABLE_REV,
    SIXNODE_ORDER_FWD,
    SIXNODE_ORDER_REV,
    assert_reading_agrees,
    bvar,
    chain_network,
    coin_copy_term,
    matrix,
    order_by_name,
)

A, B, C = bvar("a"), bvar("b"), bvar("c")


def rng_factor(rng, vs) -> Factor:
    dims = tuple(2 for _ in vs)
    return Factor(tuple(vs), rng.random(dims))


def same_function(f: Factor, g: Factor, tol: float = 1e-9) -> bool:
    """Equality as functions of the union variables, order-independent."""
    union = set(f.vars) | set(g.vars)
    return all(
        abs(f.value(asg) - g.value(asg)) <= tol
        for asg in enumerate_assignments(union)
    )


def test_factor_axes_must_be_sorted():
    with pytest.raises(InvalidAxes):
        Factor((B, A), np.ones((2, 2)))
    with pytest.raises(InvalidAxes):
        Factor((A,), np.ones(3))


def test_factor_table_is_readonly():
    f = constant_factor([A, B])
    with pytest.raises(ValueError):
        f.table[0, 0] = 2.0


def test_constant_factor():
    f = constant_factor([B, A], 3.0)
    assert f.vars == (A, B)
    assert np.all(f.table == 3.0)
    scalar = constant_factor([])
    assert scalar.vars == () and scalar.flat().shape == (1,)


def test_product_values():
    rng = np.random.default_rng(0)
    f = rng_factor(rng, [A])
    g = rng_factor(rng, [A, B])
    h = contract([f, g], [A, B])
    assert h.vars == (A, B)
    for asg in enumerate_assignments([A, B]):
        expected = f.value(asg) * g.value(asg)
        assert h.value(asg) == pytest.approx(expected, abs=1e-12)


def test_product_counts_cost():
    counter = CostCounter()
    contract([constant_factor([A]), constant_factor([B])], [A, B], counter)
    assert counter.muladds == 4
    assert counter.max_table == 4


def test_product_web_cap():
    vs = [bvar(f"v{i}") for i in range(6)]
    with pytest.raises(WebCapExceeded):
        contract([constant_factor(vs[:3]), constant_factor(vs[3:])], vs, cap=32)


def test_product_rejects_type_clash():
    from lve.syntax import Tensor, Variable

    a2 = Variable("a", Tensor(BOOL, BOOL))
    with pytest.raises(SharedVarTypeMismatch):
        contract([constant_factor([A]), constant_factor([a2])], [A])


def test_sum_out_values():
    rng = np.random.default_rng(1)
    f = rng_factor(rng, [A, B, C])
    g = contract([f], [A, C])
    assert g.vars == (A, C)
    for asg in enumerate_assignments([A, C]):
        total = sum(
            f.value(asg.union(basg)) for basg in enumerate_assignments([B])
        )
        assert g.value(asg) == pytest.approx(total, abs=1e-12)


def test_contract_equals_product_then_sum():
    rng = np.random.default_rng(2)
    for _ in range(50):
        f = rng_factor(rng, [A, B])
        g = rng_factor(rng, [B, C])
        direct = contract([f, g], [A, C])
        staged = contract([contract([f, g], [A, B, C])], [A, C])
        assert direct.vars == staged.vars
        assert np.allclose(direct.table, staged.table, atol=1e-12)


def test_contract_caps_result_not_product():
    vs = [bvar(f"v{i}") for i in range(4)]
    f = constant_factor(vs[:3])
    g = constant_factor(vs[1:])
    # The product web has 16 entries, above the cap, but the contracted
    # result (everything summed) is a scalar and passes.
    out = contract([f, g], [], cap=8)
    assert out.vars == ()
    with pytest.raises(WebCapExceeded):
        contract([f, g], vs, cap=8)


def test_contract_keeping_everything_is_the_product():
    rng = np.random.default_rng(3)
    fs = [rng_factor(rng, [A]), rng_factor(rng, [B]), rng_factor(rng, [A, C])]
    acc = contract(fs, [A, B, C])
    assert acc.vars == (A, B, C)
    empty = contract([], [])
    assert empty.vars == () and empty.flat()[0] == 1.0


POOL = (A, B, C, Variable("d", Tensor(BOOL, BOOL)), bvar("e"))


@given(st.data())
def test_contract_equals_product_then_sum_fold(data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    subsets = st.lists(st.sampled_from(POOL), max_size=3, unique=True)
    fs = [
        Factor(vs, rng.random(tuple(web_size(v.ty) for v in vs)))
        for vs in (sorted_vars(d) for d in data.draw(st.lists(subsets, max_size=5)))
    ]
    union = sorted_vars({v for f in fs for v in f.vars})
    keep = data.draw(st.lists(st.sampled_from(union), unique=True)) if union else []
    staged = constant_factor(())
    for f in fs:
        staged = contract([staged, f], staged.vars + f.vars)
    staged = contract([staged], keep)
    direct = contract(fs, keep)
    assert direct.vars == staged.vars
    assert np.allclose(direct.table, staged.table, rtol=1e-12)


def test_contract_rejects_kept_variable_outside_the_factors():
    with pytest.raises(UnknownVariable):
        contract([constant_factor([A])], [A, B])


def _star(query: str) -> LetTerm:
    """x with 100 children y1 .. y100."""
    leaves = [f"y{i}" for i in range(1, 101)]
    net = {
        "variables": [{"name": v} for v in ["x"] + leaves],
        "nodes": [{"var": "x", "parents": [], "cpt": [[0.3, 0.7]]}]
        + [{"var": y, "parents": ["x"], "cpt": [[0.9, 0.1], [0.2, 0.8]]} for y in leaves],
        "query": [query],
    }
    return network_to_program(net).term


def test_star_past_einsum_operand_limit_matches_denote():
    term = _star("x")
    fs = eliminate(factors_of(term), min_degree_order(term))
    assert len(fs) > 64
    values = marginal(fs, term.output)
    assert np.allclose(values, denote(term).matrix.reshape(-1), atol=1e-12)
    assert np.allclose(values, [0.3, 0.7], atol=1e-12)


def test_eliminate_chunks_a_bucket_past_the_operand_limit():
    # Querying a leaf, min-degree sums the 99 other leaves out first, one
    # factor over x each, and x's bucket then holds 101 factors: its einsum
    # runs in chunks.
    term = _star("y1")
    *leaves, x = min_degree_order(term)
    assert x.name == "x"
    fs = eliminate(factors_of(term), leaves)
    bucket = [f.vars for f in fs.factors if x in f.vars]
    assert len(bucket) == 101
    last = eliminate(fs, [x])
    assert last.steps[0].group_size == 101
    # The charge rule: each fold the union's web so far, then the product's
    # web as multiply-adds and the result's as a table.
    union: set[Variable] = set()
    folds = []
    for vs in bucket:
        union.update(vs)
        folds.append(2 ** len(union))
    product = folds[-1]
    assert last.counter.muladds == sum(folds[1:]) + product
    assert last.counter.max_table == max(folds[1:] + [product // 2])
    whole = eliminate(factors_of(term), leaves + [x])
    assert whole.counter.muladds == fs.counter.muladds + last.counter.muladds
    values = marginal(last, term.output)
    assert np.allclose(values, denote(term).matrix.reshape(-1), atol=1e-12)


def test_definition_factor_values():
    m = matrix("M", 1, [[0.8, 0.2], [0.1, 0.9]])
    x, y = bvar("x"), bvar("y")
    fac = definition_factor(PLeaf(y), MatApp(m, (x,)))
    assert fac.vars == (x, y)
    for asg in enumerate_assignments([x, y]):
        row = 0 if str(asg.get(x)) == "t" else 1
        col = 0 if str(asg.get(y)) == "t" else 1
        assert fac.value(asg) == pytest.approx(m.entries[row, col])


def test_definition_factor_duplication():
    x, y = bvar("x"), bvar("y")
    fac = definition_factor(PLeaf(y), Var(x))
    assert same_function(fac, Factor((x, y), np.eye(2)))


def test_definition_factor_rejects_capture():
    x = bvar("x")
    with pytest.raises(BinderCapture):
        definition_factor(PLeaf(x), Var(x))


def test_factors_of_sixnode(sixnode_term):
    fs = factors_of(sixnode_term)
    assert len(fs) == 7  # one per definition plus the output constant
    assert check_factor_vars(sixnode_term)
    by_vars = {tuple(v.name for v in f.vars) for f in fs.factors}
    assert ("x1",) in by_vars
    assert ("x3", "x4", "x5") in by_vars
    assert ("x3", "x6") in by_vars  # the output constant


def test_factors_of_rejects_shadowing():
    m = matrix("M", 0, [[0.5, 0.5]])
    x = bvar("x")
    term = LetTerm(((PLeaf(x), MatApp(m, ())), (PLeaf(x), MatApp(m, ()))), PLeaf(x))
    with pytest.raises(NotCanonicalized):
        factors_of(term)


def test_a_factor_set_carried_by_scope_equals_the_rewritten_terms():
    # Along every vel step, the factor set carried by scope equals the factor
    # multiset of the term the step leaves, read afresh; a scope the step
    # does not add keeps its factor, the same object.
    for i in range(60):
        term = random_network(i).term
        for order in _orders(term, i).values():
            carried, ref = ScopeFactors(term, DenoteContext()), DenoteContext()
            assert factor_sets_equal(carried.factors(), factors_of(term, ref))
            for step in eliminate_seq(term, order)[1].steps:
                before = {id(f) for f in carried.factors()}
                dropped, added = carried.update(step.edits)
                after = carried.factors()
                assert factor_sets_equal(after, factors_of(step.after, ref)), (i, step.rule)
                new = {id(carried.factor(s)) for s in added}
                assert {id(f) for f in after} - new <= before
                assert len(after) == len(before) - len(dropped) + len(added)


def test_relation_from_factors_matches_denote(sixnode_term):
    ctx = DenoteContext()
    direct = denote(sixnode_term, ctx)
    rebuilt = relation_from_factors(sixnode_term, ctx)
    assert rebuilt.vars == direct.vars
    assert rebuilt.ty == direct.ty
    assert np.allclose(rebuilt.matrix, direct.matrix, atol=1e-9)


def test_relation_from_factors_open_term():
    # y = M(x) with x free: the rebuilt relation is the matrix itself.
    m = matrix("M", 1, [[0.8, 0.2], [0.1, 0.9]])
    x, y = bvar("x"), bvar("y")
    term = LetTerm(((PLeaf(y), MatApp(m, (x,))),), PLeaf(y))
    rel = relation_from_factors(term)
    assert rel.vars == (x,)
    assert np.allclose(rel.matrix, [[0.8, 0.2], [0.1, 0.9]])


def test_eliminate_marginal_invariant_under_order(sixnode_term):
    fs0 = factors_of(sixnode_term)
    results = []
    for names in (SIXNODE_ORDER_FWD, SIXNODE_ORDER_REV, ("x4", "x1", "x5", "x2")):
        fs = eliminate(fs0, order_by_name(sixnode_term, names))
        results.append(marginal(fs, sixnode_term.output))
    for got in results:
        assert np.allclose(got, SIXNODE_JOINT, atol=1e-9)


def test_eliminate_records_steps_and_cost(sixnode_term):
    fs = eliminate(factors_of(sixnode_term), order_by_name(sixnode_term, SIXNODE_ORDER_FWD))
    assert [s.var.name for s in fs.steps] == list(SIXNODE_ORDER_FWD)
    assert fs.counter.max_table == SIXNODE_MAX_TABLE_FWD
    for st in fs.steps:
        assert st.muladds <= 2 * st.group_size * st.product_table
    rev = eliminate(factors_of(sixnode_term), order_by_name(sixnode_term, SIXNODE_ORDER_REV))
    assert rev.counter.max_table == SIXNODE_MAX_TABLE_REV


def test_eliminate_unknown_variable(sixnode_term):
    with pytest.raises(UnknownVariable):
        eliminate(factors_of(sixnode_term), [bvar("nope")])


def test_eliminate_leaves_input_untouched(sixnode_term):
    fs0 = factors_of(sixnode_term)
    n = len(fs0)
    eliminate(fs0, order_by_name(sixnode_term, SIXNODE_ORDER_FWD))
    assert len(fs0) == n
    assert fs0.steps == []


def test_marginal_without_elimination(sixnode_term):
    values = marginal(factors_of(sixnode_term), sixnode_term.output)
    assert np.allclose(values, SIXNODE_JOINT, atol=1e-9)


def test_marginal_of_sub_pattern(sixnode_term):
    out = sixnode_term.output
    assert isinstance(out, PPair)
    fs = factors_of(sixnode_term)
    x3_only = marginal(fs, out.left)
    joint = np.asarray(SIXNODE_JOINT).reshape(2, 2)
    assert np.allclose(x3_only, joint.sum(axis=1), atol=1e-9)


def test_marginal_of_a_variable_in_no_factor_raises():
    fs = FactorSet([Factor((A,), np.array([0.3, 0.7]))])
    with pytest.raises(UnknownVariable):
        marginal(fs, PPair(PLeaf(A), PLeaf(B)))


def test_a_readout_leaves_the_factor_set_counter_alone():
    # vel's readout and vef then cost what their factor sets say, whether or
    # not a marginal was read off them.
    term = network_to_program(chain_network(50)).term
    order = min_degree_order(term)
    vef = eliminate(factors_of(term), order)
    final, _ = eliminate_seq(term, order)
    vel = factors_of(final)
    for fs in (vef, vel):
        before = (fs.counter.muladds, fs.counter.max_table)
        marginal(fs, term.output)
        assert (fs.counter.muladds, fs.counter.max_table) == before
    assert vel.counter.muladds == vef.counter.muladds == 392


def test_onto_reads_diagonals_and_ones_without_contracting():
    f = Factor((A, B), np.arange(1.0, 5.0).reshape(2, 2))
    counter = CostCounter()
    table = factors._onto([f], (B, A, B, C), counter, 16, False)
    assert (counter.muladds, counter.max_table) == (0, 0)
    assert table.shape == (2, 2, 2, 2)
    with pytest.raises(WebCapExceeded):  # the whole table, not the product
        factors._onto([f], (B, A, B, C), counter, 8, False)
    for a, b, b2, c in np.ndindex(table.shape):
        assert table[b, a, b2, c] == (f.table[a, b] if b == b2 else 0.0)
    summed = factors._onto([f], (B,), counter, 16, False)
    assert summed.tolist() == [4.0, 6.0] and (counter.muladds, counter.max_table) == (4, 2)


COPY_PROGRAM = """matrix M : -> Bool = [0.3, 0.7];
matrix C : Bool -> Bool = [0.9, 0.1; 0.2, 0.8];
(a, b) = let x = M in (x, x);
c = C(a);
in (b, c)"""

UNUSED_PARAMETER_PROGRAM = """matrix M : -> Bool = [0.3, 0.7];
var f : Bool -o Bool;
f = \\p. M;
x = M;
y = f(x);
in y"""


@pytest.mark.parametrize("text", [COPY_PROGRAM, UNUSED_PARAMETER_PROGRAM], ids=["copy", "unused-parameter"])
def test_copies_and_unused_parameters_read_as_views(text):
    # A value that repeats an index spans the diagonal, and a parameter no
    # factor holds spans ones; neither is a contraction to charge.
    term = parse_program(text).term
    assert_reading_agrees(term)
    fs = factors_of(term)
    assert (fs.counter.muladds, fs.counter.max_table) == (0, 0)


def test_relation_from_factors_output_repeats_a_free_variable():
    # x is free and in the output: its output axis is the rows' diagonal.
    m = matrix("M", 1, [[0.8, 0.2], [0.1, 0.9]])
    x, y = bvar("x"), bvar("y")
    term = LetTerm(((PLeaf(y), MatApp(m, (x,))),), PPair(PLeaf(x), PLeaf(y)))
    rebuilt, direct = relation_from_factors(term), denote(term)
    assert rebuilt.vars == direct.vars == (x,)
    assert within_tol(rebuilt.matrix, direct.matrix)
    assert rebuilt.matrix.tolist() == [[0.8, 0.2, 0.0, 0.0], [0.0, 0.0, 0.1, 0.9]]


def test_factors_allclose():
    f = constant_factor([A])
    g = constant_factor([A], 1.0 + 5e-10)
    h = constant_factor([B])
    assert factors_allclose(f, g)
    assert not factors_allclose(f, h)
    assert not factors_allclose(f, constant_factor([A], 2.0))


@pytest.mark.parametrize("entry", [0.0, np.inf, -np.inf, np.nan])
def test_a_factor_compared_with_itself_answers_as_the_subtraction(entry):
    # inf - inf and NaN fail the tolerance, as for an equal copy.
    table = np.array([[0.25, 0.75], [1.0, entry]])
    f, copy = Factor((A, B), table), Factor((A, B), table)
    with np.errstate(invalid="ignore"):
        expected = factors_allclose(f, copy)
    assert expected is bool(np.isfinite(entry))
    assert factors_allclose(f, f) is expected


def test_factor_sets_equal_is_multiset_equality():
    f, g = constant_factor([A]), constant_factor([B], 2.0)
    assert factor_sets_equal([f, g], [g, f])
    assert not factor_sets_equal([f, g], [f, f])
    assert not factor_sets_equal([f], [f, g])


def _unmatched_by_scan(xs, ys):
    """Each x paired with the first close factor left anywhere in ys."""
    left, right = [], list(ys)
    for f in xs:
        match = next((i for i, g in enumerate(right) if factors_allclose(f, g)), None)
        if match is None:
            left.append(f)
        else:
            right.pop(match)
    return left, right


def test_unmatched_factors_pairs_as_the_scan_does():
    rng = np.random.default_rng(5)
    scopes = [(), (A,), (B,), (A, B)]
    values = [0.25, 0.25 + 5e-10, 0.5, np.nan, np.inf]
    for _ in range(300):
        pool = [
            Factor(vs, np.full((2,) * len(vs), values[rng.integers(len(values))]))
            for vs in (scopes[k] for k in rng.integers(len(scopes), size=rng.integers(0, 9)))
        ]
        xs = [pool[k] for k in rng.integers(len(pool), size=rng.integers(0, 9))] if pool else []
        ys = [pool[k] for k in rng.integers(len(pool), size=rng.integers(0, 9))] if pool else []
        got, want = unmatched_factors(xs, ys), _unmatched_by_scan(xs, ys)
        assert [list(map(id, side)) for side in got] == [list(map(id, side)) for side in want]
    nan = Factor((A,), np.array([np.nan, 1.0]))
    (left,), (right,) = unmatched_factors([nan], [nan])
    assert left is right is nan


def test_dump_factors_stable():
    f = Factor((A, B), np.array([[0.25, 0.75], [1.0, 0.0]]))
    text = dump_factors([f, constant_factor([])])
    assert text == (
        "factor a:Bool b:Bool\n"
        "  0.25 0.75 1 0\n"
        "factor (scalar)\n"
        "  1"
    )


def test_coin_copy_factors():
    term = coin_copy_term()
    fs = factors_of(term)
    assert len(fs) == 3
    values = marginal(fs, term.output)
    assert np.allclose(values, [0.3, 0.0, 0.0, 0.7], atol=1e-12)


def test_reading_agrees_with_denote_on_a_vel_run(sixnode_term):
    # Every term of the run: swap2's lambdas and arrow applications, swap3's
    # and mult's nested lets, and the arrow folds between definitions.
    _, trace = eliminate_seq(sixnode_term, order_by_name(sixnode_term, SIXNODE_ORDER_FWD))
    assert {s.rule for s in trace.steps} == {"swap1", "swap2", "swap3", "mult", "elim"}
    for term in [sixnode_term] + [s.after for s in trace.steps]:
        assert_reading_agrees(term)


def test_a_context_that_read_before_gives_the_same_factors_and_charges(sixnode_term):
    """One context across a vel run, as `check_instance` reads it, gives
    each term the factors and counters a fresh context gives: a definition
    read again returns its factor, and a bound nested in a new definition
    is taken from its recorded reading, charging again what the first
    reading charged."""
    cases = [(sixnode_term, order_by_name(sixnode_term, names)) for names in (SIXNODE_ORDER_FWD, SIXNODE_ORDER_REV)]
    for i in range(8):
        term = random_network(i).term
        cases.append((term, random_order(term, i)))
    for term, order in cases:
        _, trace = eliminate_seq(term, order)
        ctx = DenoteContext()
        for t in [term] + [s.after for s in trace.steps]:
            warm, fresh = factors_of(t, ctx), factors_of(t)
            assert (warm.counter.muladds, warm.counter.max_table) == (fresh.counter.muladds, fresh.counter.max_table)
            assert factor_sets_equal(warm, fresh)
            again = factors_of(t, ctx)
            assert all(f is g for f, g in zip(warm.factors[:-1], again.factors))
        assert ctx.readings


def test_sum_outs_build_no_factor(monkeypatch, sixnode_term):
    # Each sum-out stays a `_Table`: no `Factor` is checked or copied inside
    # `_Reading.sum_out`, across every term of a vel run.
    inside, contractions, built = [False], [], []
    sum_out, post_init, contract_ = factors._Reading.sum_out, Factor.__post_init__, factors._contract

    def watched_sum_out(self, *args):
        inside[0] = True
        try:
            sum_out(self, *args)
        finally:
            inside[0] = False

    def watched_post_init(self):
        built.append(inside[0])
        post_init(self)

    def watched_contract(*args, **kwargs):
        contractions.append(inside[0])
        return contract_(*args, **kwargs)

    monkeypatch.setattr(factors._Reading, "sum_out", watched_sum_out)
    monkeypatch.setattr(Factor, "__post_init__", watched_post_init)
    monkeypatch.setattr(factors, "_contract", watched_contract)
    _, trace = eliminate_seq(sixnode_term, order_by_name(sixnode_term, SIXNODE_ORDER_FWD))
    for term in [sixnode_term] + [s.after for s in trace.steps]:
        factors_of(term)
    assert any(contractions) and built
    assert not any(built)


def test_find_points_the_path_at_its_representative():
    reading = factors._Reading(CostCounter(), 2**20, {})
    a = reading.atoms(4)
    for x, y in zip(a, a[1:]):
        reading.identify(x, y)
    reading.factors.append(factors._Table((a[0], a[2]), np.arange(4.0).reshape(2, 2)))
    assert reading.find(a[0]) is a[3]
    assert reading.alias[a[0]] is reading.alias[a[1]] is a[3]
    # Resolved factors are read once, until the next identification.
    (f,) = reading.resolved()
    assert f.vars == (a[3], a[3]) and f.table.tolist() == [[0.0, 1.0], [2.0, 3.0]]
    # The contraction reads the repeated index as the table's diagonal.
    assert factors._onto([f], [a[3]], None, 2**20, False).tolist() == [0.0, 3.0]
    calls = []
    reading.find = lambda x: calls.append(x) or factors._Reading.find(reading, x)
    assert reading.resolved() == [f] and not calls
    b = reading.atoms(1)[0]
    reading.identify(a[3], b)
    assert reading.resolved()[0].vars == (b, b)


def test_a_recorded_reading_is_not_taken_where_its_variables_coincide():
    # The bound e reads x and y apart; nested under `let y = x`, both are one
    # index, where e's contraction is smaller than the recorded one.
    x, y, c = bvar("x"), bvar("y"), bvar("c")
    paired = matrix("Paired", 2, [[0.9, 0.1], [0.6, 0.4], [0.3, 0.7], [0.2, 0.8]])
    m = matrix("M", 1, [[0.8, 0.2], [0.1, 0.9]])
    e = Let(PLeaf(c), MatApp(paired, (x, y)), MatApp(m, (c,)))
    first = LetTerm(((PLeaf(bvar("a")), e),), PLeaf(bvar("a")))
    second = LetTerm(((PLeaf(bvar("b")), Let(PLeaf(y), Var(x), e)),), PLeaf(bvar("b")))
    ctx = DenoteContext()
    factors_of(first, ctx)
    warm, fresh = factors_of(second, ctx), factors_of(second)
    assert (warm.counter.muladds, warm.counter.max_table) == (fresh.counter.muladds, fresh.counter.max_table)
    assert factor_sets_equal(warm, fresh)
    assert_reading_agrees(second)
