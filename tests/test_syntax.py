"""Terms, types, the linear typing discipline, and name hygiene."""

from __future__ import annotations

import copy
import pickle
import warnings
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import given, strategies as st

from lve.errors import (
    ApplicationMismatch,
    ArrowSharing,
    InconsistentVariableTypes,
    InvalidPattern,
    NonPositiveLamParam,
    PatternTypeMismatch,
    TypeCheckError,
    UnusedArrowBinder,
)
from lve import syntax
from lve.factors import Factor
from lve.network import network_to_program
from lve.parser import parse_program
from lve.rewrite import apply_rule, simplify
from lve.verify import run_suite
from lve.syntax import (
    BOOL,
    _check,
    Arrow,
    Bool,
    ArrowApp,
    FreshNames,
    Lam,
    Let,
    LetTerm,
    MatApp,
    Pair,
    PLeaf,
    PPair,
    StochasticMatrix,
    TOL,
    Tensor,
    Var,
    Variable,
    alpha_eq,
    collect_names,
    free_vars,
    nest_vars,
    pattern_fv,
    pattern_remove,
    pattern_split,
    pattern_to_expr,
    pattern_type,
    pattern_vars,
    size,
    type_str,
    typecheck,
    web_size,
    within_tol,
)
from helpers import bvar, chain_network, coin_copy_term, matrix

BB = Tensor(BOOL, BOOL)
AR = Arrow(BOOL, BOOL)


def test_type_str():
    assert type_str(BOOL) == "Bool"
    assert type_str(BB) == "(Bool * Bool)"
    assert type_str(AR) == "(Bool -o Bool)"
    assert type_str(Tensor(BOOL, AR)) == "(Bool * (Bool -o Bool))"


def test_web_size():
    assert web_size(BOOL) == 2
    assert web_size(Tensor(BB, BB)) == 16
    assert web_size(Arrow(BB, BOOL)) == 8


def test_matrix_rows_overflowing_their_sum_build_quietly():
    # Each row sums past the largest float: no overflow warning, and the
    # matrix is not stochastic.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        m = matrix("M", 0, [[1e308, 1e308]])
    assert m.stochastic is False


@pytest.mark.parametrize("build", [list, np.asarray])
@pytest.mark.parametrize(
    "rows, message",
    [
        ([[np.nan, 0.5]], "matrix M: non-finite entry"),
        ([[np.inf, 0.5]], "matrix M: non-finite entry"),
        ([[-np.inf, 0.5]], "matrix M: non-finite entry"),
        ([[np.nan, -0.5]], "matrix M: non-finite entry"),  # reported before the negative one
        ([[-0.5, 1.5]], "matrix M: negative entry"),
        ([[-0.0, 1.0], [0.5, -1e-300]], "matrix M: negative entry"),
        ([[0.5, 0.25, 0.25]], "matrix M: table shape (1, 3) != (1, 2)"),
        ([[0.5, 0.5], [0.5, 0.5], [0.5, 0.5]], "matrix M: table shape (3, 2) != (1, 2)"),
    ],
)
def test_matrix_checks_keep_their_messages(build, rows, message):
    slots = (BOOL,) if len(rows) == 2 else ()
    with pytest.raises(TypeCheckError) as err:
        StochasticMatrix("M", slots, BOOL, build(rows))
    assert type(err.value) is TypeCheckError
    assert str(err.value) == message


def test_stochastic_flag_is_the_largest_row_deviation_within_tol():
    # Rows summing to 1 +- TOL, a float either side of it, and twice as far.
    flags = set()
    for d in (TOL, -TOL):
        for x in (d, np.nextafter(d, 0), np.nextafter(d, 2 * d), 2 * d):
            for rows in (
                [[0.5, 0.5 + x]],
                [[1.0 + x, 0.0]],
                [[0.25, 0.75], [0.5 + x, 0.5]],
                [[0.5, 0.5 - x / 2], [0.5 + x, 0.5], [0.25, 0.75], [1.0, 0.0]],
            ):
                expected = bool(np.abs(np.asarray(rows).sum(axis=1) - 1.0).max() <= TOL)
                assert matrix("M", len(rows).bit_length() - 1, rows).stochastic is expected, rows
                flags.add(expected)
    assert flags == {True, False}


def test_within_tol_holds_answers_to_their_scale():
    # TOL absolutely up to one and relatively above it; a NaN or inf fails,
    # even against itself.
    half, big = np.array([0.5]), np.array([5e30, 1.0])
    assert within_tol(half, half + TOL / 2) and not within_tol(half, half + 2 * TOL)
    assert within_tol(big, big * (1 + TOL / 2)) and not within_tol(big, big * (1 + 2 * TOL))
    for bad in (np.inf, -np.inf, np.nan):
        assert not within_tol(np.array([bad, 1.0]), np.array([bad, 1.0]))
        assert not within_tol(np.array([bad, 1.0]), big)
    assert not within_tol(half, big)


def test_within_tol_is_quiet_on_infinities():
    # inf - inf is NaN: the answer is False, with no RuntimeWarning, which the
    # suite's warnings-as-errors setting would raise.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for bad in (np.inf, -np.inf, np.nan):
            for other in (np.inf, -np.inf, np.nan, 1.0):
                assert not within_tol(np.array([bad, 1.0]), np.array([other, 1.0]))
                assert not within_tol(np.array([[other], [1.0]]), np.array([[bad], [1.0]]))


def test_a_matrix_freezes_a_copy_of_the_callers_array():
    a = np.array([[0.5, 0.5]])
    m = StochasticMatrix("M", (), BOOL, a)
    a[0, 0] = 0.25  # the caller's array stays writable
    assert m.entries.tolist() == [[0.5, 0.5]] and m.stochastic
    assert not m.entries.flags.writeable
    # An array already read-only is kept as it is.
    assert StochasticMatrix("N", (), BOOL, m.entries).entries is m.entries


def test_a_factor_freezes_a_copy_of_the_callers_array():
    a = np.array([0.5, 0.5])
    f = Factor((bvar("a"),), a)
    a[0] = 0.25  # the caller's array stays writable
    assert f.table.tolist() == [0.5, 0.5]
    assert not f.table.flags.writeable
    # An array already read-only is kept as it is.
    assert Factor((bvar("a"),), f.table).table is f.table


def test_tensor_left_must_be_positive():
    with pytest.raises(TypeCheckError):
        Tensor(AR, BOOL)
    with pytest.raises(TypeCheckError):
        Arrow(AR, BOOL)
    # An arrow on the right is allowed.
    assert not Tensor(BOOL, AR).is_positive


def test_variable_rejects_mixed_type():
    with pytest.raises(TypeCheckError):
        Variable("v", Tensor(BOOL, AR))


def test_bad_types_raise_the_same_errors():
    # The exact class and message; a failed construction stores nothing.
    mixed = Tensor(BOOL, AR)
    before = len(syntax._TABLE)
    for build, message in (
        (lambda: Tensor(AR, BOOL), "tensor left component must be positive"),
        (lambda: Arrow(mixed, BOOL), "arrow input type must be positive"),
        (lambda: Variable("v", mixed), "variable v has mixed-tensor type (Bool * (Bool -o Bool))"),
    ):
        with pytest.raises(TypeCheckError) as err:
            build()
        assert type(err.value) is TypeCheckError
        assert str(err.value) == message
    assert len(syntax._TABLE) == before
    with pytest.raises(TypeError, match="not a type"):
        web_size(bvar("x"))


def test_equal_types_and_variables_are_one_object():
    assert Bool() is BOOL
    assert Tensor(Bool(), Bool()) is BB
    assert Arrow(Tensor(BOOL, BOOL), AR) is Arrow(BB, Arrow(BOOL, BOOL))
    assert Tensor(BOOL, AR) is not Arrow(BOOL, AR)
    assert Variable("f", Arrow(BOOL, BOOL)) is Variable("f", AR)
    assert Variable("x", BOOL) is not Variable("x", BB)
    assert web_size(Arrow(BB, AR)) == 16 and not Tensor(BOOL, AR).is_positive
    assert repr(Variable("f", AR)) == "Variable(name='f', ty=Arrow(input=Bool(), result=Bool()))"
    assert repr(Tensor(BOOL, BOOL)) == "Tensor(left=Bool(), right=Bool())"


def test_parsed_compiled_and_rewritten_variables_are_the_constructed_ones():
    program = parse_program(
        "matrix C : -> Bool = [0.3, 0.7];\n"
        "matrix D : Bool -> (Bool * Bool) = [1, 0, 0, 0; 0, 0, 0, 1];\n"
        "matrix M : Bool -> Bool = [0.8, 0.2; 0.1, 0.9];\n"
        "var p : Bool * Bool;\n"
        "x = C;\np = D(x);\ny = let x = C in M(x);\nin (p, y)"
    )
    term = program.term
    assert term.defs[1][0].var is Variable("p", BB)
    assert term.defs[1][1].matrix.out is BB
    assert term.defs[0][0].var is bvar("x")

    compiled = network_to_program(chain_network(3)).term
    assert [binder.var for binder, _ in compiled.defs] == [bvar(f"x{i}") for i in (1, 2, 3)]
    assert all(binder.var is bvar(f"x{i}") for (binder, _), i in zip(compiled.defs, (1, 2, 3)))

    # swap2 abstracts the dependent definition under a fresh arrow variable.
    swapped = apply_rule(LetTerm(compiled.defs[:2], PLeaf(bvar("x2"))), "swap2", 0)
    assert swapped.defs[0][0].var is Variable("g__1", AR)

    # simplify renames the inner x apart from the outer one.
    inner = simplify(term).defs[2][1]
    assert isinstance(inner, Let) and inner.binder.var is bvar("x__1")


def test_types_and_variables_copy_and_pickle_to_themselves():
    f = Variable("f", Arrow(BB, AR))
    for node in (BOOL, BB, f.ty, f):
        assert copy.copy(node) is node
        assert copy.deepcopy(node) is node
        assert pickle.loads(pickle.dumps(node)) is node
    term = coin_copy_term()
    assert copy.deepcopy(term).defs[0][0].var is term.defs[0][0].var


def test_types_and_variables_are_frozen():
    v = bvar("x")
    for node, name in ((v, "name"), (v, "ty"), (BB, "left"), (AR, "result"), (BOOL, "is_positive")):
        with pytest.raises(FrozenInstanceError):
            setattr(node, name, BOOL)
    with pytest.raises(FrozenInstanceError):
        del v.name
    assert v.name == "x" and v.ty is BOOL


def test_a_repeated_suite_adds_no_table_entries():
    run_suite(5, seed=0)
    before = len(syntax._TABLE)
    run_suite(5, seed=0)
    assert len(syntax._TABLE) == before


def test_pattern_helpers():
    a, b, f = bvar("a"), bvar("b"), Variable("f", AR)
    p = PPair(PLeaf(a), PPair(PLeaf(b), PLeaf(f)))
    assert pattern_vars(p) == (a, b, f)
    assert pattern_fv(p) == frozenset({a, b, f})
    assert pattern_type(p) == Tensor(BOOL, Tensor(BOOL, AR))
    arrow, positive = pattern_split(p)
    assert arrow == f
    assert pattern_vars(positive) == (a, b)
    assert pattern_remove(PLeaf(a), a) is None
    assert pattern_remove(p, b) == PPair(PLeaf(a), PLeaf(f))
    assert nest_vars([a, b, f]) == p


def test_pattern_rejects_duplicates():
    a = bvar("a")
    with pytest.raises(InvalidPattern):
        pattern_fv(PPair(PLeaf(a), PLeaf(a)))


def test_arrow_must_be_rightmost():
    f = Variable("f", AR)
    with pytest.raises(InvalidPattern):
        pattern_type(PPair(PLeaf(f), PLeaf(bvar("a"))))


def test_typecheck_positive_duplication_allowed():
    x = bvar("x")
    e = Pair(Var(x), Var(x))
    assert typecheck(e) == BB


def test_pair_first_component_must_be_positive():
    f = Variable("f", AR)
    with pytest.raises(TypeCheckError):
        typecheck(Pair(Var(f), Var(bvar("x"))))


def test_typecheck_arrow_used_twice_in_defs():
    f, a, y, z = Variable("f", AR), bvar("a"), bvar("y"), bvar("z")
    term = LetTerm(
        (
            (PLeaf(f), Lam(PLeaf(a), Var(a))),
            (PLeaf(y), ArrowApp(f, PLeaf(bvar("u")))),
            (PLeaf(z), ArrowApp(f, PLeaf(bvar("u")))),
        ),
        PPair(PLeaf(y), PLeaf(z)),
    )
    with pytest.raises(ArrowSharing):
        typecheck(term)


def test_typecheck_unused_arrow_binder():
    f, x = Variable("f", AR), bvar("x")
    e = Let(PLeaf(f), Lam(PLeaf(x), Var(x)), Var(bvar("y")))
    with pytest.raises(UnusedArrowBinder):
        typecheck(e)


def test_typecheck_lambda_param_must_be_positive():
    f = Variable("f", AR)
    with pytest.raises(NonPositiveLamParam):
        typecheck(Lam(PLeaf(f), ArrowApp(f, PLeaf(bvar("x")))))


def test_typecheck_matapp_arity():
    m = matrix("M", 1, [[0.5, 0.5], [0.5, 0.5]])
    with pytest.raises(ApplicationMismatch):
        typecheck(MatApp(m, ()))
    with pytest.raises(ApplicationMismatch):
        typecheck(MatApp(m, (Variable("p", BB),)))
    assert typecheck(MatApp(m, (bvar("x"),))) == BOOL


def test_typecheck_arrowapp_type():
    f = Variable("f", Arrow(BB, BOOL))
    a, b = bvar("a"), bvar("b")
    assert typecheck(ArrowApp(f, PPair(PLeaf(a), PLeaf(b)))) == BOOL
    with pytest.raises(ApplicationMismatch):
        typecheck(ArrowApp(f, PLeaf(a)))


def test_typecheck_let_binder_mismatch():
    m = matrix("M", 0, [[0.5, 0.5]])
    a, b = bvar("a"), bvar("b")
    with pytest.raises(TypeCheckError):
        typecheck(Let(PPair(PLeaf(a), PLeaf(b)), MatApp(m, ()), Var(a)))


def test_typecheck_rejects_a_binder_used_at_another_type():
    coin = matrix("C", 0, [[0.3, 0.7]])
    x, y = bvar("x"), Variable("y", BB)
    term = LetTerm(((PLeaf(x), MatApp(coin, ())), (PLeaf(y), Var(Variable("x", BB)))), PLeaf(y))
    with pytest.raises(InconsistentVariableTypes, match=r"x used at Bool and \(Bool \* Bool\)"):
        typecheck(term)


def test_typecheck_rejects_a_lambda_parameter_at_another_type():
    # x = C; p = (x, x); f = \x. C; y = f(p); in y, the lambda's x a pair.
    coin = matrix("C", 0, [[0.3, 0.7]])
    x, p, y = bvar("x"), Variable("p", BB), bvar("y")
    f = Variable("f", Arrow(BB, BOOL))

    def term(param: Variable) -> LetTerm:
        return LetTerm(
            (
                (PLeaf(x), MatApp(coin, ())),
                (PLeaf(p), Pair(Var(x), Var(x))),
                (PLeaf(f), Lam(PLeaf(param), MatApp(coin, ()))),
                (PLeaf(y), ArrowApp(f, PLeaf(p))),
            ),
            PLeaf(y),
        )

    assert typecheck(term(Variable("q", BB))) == BOOL
    with pytest.raises(InconsistentVariableTypes, match=r"x used at Bool and \(Bool \* Bool\)"):
        typecheck(term(Variable("x", BB)))


def test_free_vars():
    x, y = bvar("x"), bvar("y")
    e = Let(PLeaf(y), Var(x), Pair(Var(y), Var(x)))
    assert free_vars(e) == frozenset({x})
    f = Variable("f", AR)
    e2 = ArrowApp(f, PLeaf(x))
    assert free_vars(e2) == frozenset({f, x})
    assert _check(e2)[2] == frozenset({f})  # the free arrow variables


def test_free_vars_of_an_ill_typed_term_raise_its_type_error():
    # free_vars reads the typing, so an ill-typed term has none to read off.
    f, x, y = Variable("f", AR), bvar("x"), bvar("y")
    with pytest.raises(ArrowSharing):
        free_vars(Pair(ArrowApp(f, PLeaf(x)), ArrowApp(f, PLeaf(y))))
    # The lower definition types, the upper one does not: a let-term caches
    # its typings and census whole or not at all.
    term = LetTerm(((PLeaf(y), Var(f)), (PLeaf(x), Var(y))), PLeaf(x))
    with pytest.raises(PatternTypeMismatch):
        free_vars(term)
    assert term._typings is None and term._names is None


def test_coin_copy_typechecks():
    assert typecheck(coin_copy_term()) == BB


def test_collect_names():
    term = coin_copy_term()
    assert {"v", "v'"} <= collect_names(term)


def test_fresh_names():
    fresh = FreshNames({"g", "g__1"})
    first = fresh.fresh("g")
    second = fresh.fresh("g")
    assert first not in {"g", "g__1"}
    assert second not in {"g", "g__1", first}


def test_alpha_eq_renames_binders():
    m = matrix("M", 0, [[0.5, 0.5]])
    x, y = bvar("x"), bvar("y")
    a = LetTerm(((PLeaf(x), MatApp(m, ())),), PLeaf(x))
    b = LetTerm(((PLeaf(y), MatApp(m, ())),), PLeaf(y))
    assert alpha_eq(a, b)


def test_alpha_eq_distinguishes_free_vars():
    x, y = bvar("x"), bvar("y")
    assert not alpha_eq(Var(x), Var(y))
    assert alpha_eq(Var(x), Var(x))


def test_alpha_eq_distinguishes_structure():
    m = matrix("M", 0, [[0.5, 0.5]])
    x, y = bvar("x"), bvar("y")
    a = LetTerm(((PLeaf(x), MatApp(m, ())),), PLeaf(x))
    b = LetTerm((), PLeaf(x))
    assert not alpha_eq(a, b)
    # Let-terms of different lengths, and ones with different outputs.
    two = a.defs + ((PLeaf(y), MatApp(m, ())),)
    assert not alpha_eq(a, LetTerm(two, PLeaf(x)))
    assert not alpha_eq(LetTerm(two, PLeaf(x)), a)
    assert alpha_eq(LetTerm(two, PLeaf(y)), LetTerm(two, PLeaf(y)))
    assert not alpha_eq(LetTerm(two, PLeaf(x)), LetTerm(two, PLeaf(y)))
    assert not alpha_eq(LetTerm(two, nest_vars([x, y])), LetTerm(two, nest_vars([y, x])))


def test_alpha_eq_compares_binder_shapes():
    a, b, c = bvar("a"), bvar("b"), bvar("c")
    right = PPair(PLeaf(a), PPair(PLeaf(b), PLeaf(c)))
    left = PPair(PPair(PLeaf(a), PLeaf(b)), PLeaf(c))
    out = pattern_to_expr(nest_vars([a, b, c]))
    assert alpha_eq(Lam(right, out), Lam(right, out))
    assert not alpha_eq(Lam(right, out), Lam(left, out))
    m = matrix("M", 0, [[0.125] * 8], out=pattern_type(right))
    assert not alpha_eq(LetTerm(((right, MatApp(m, ())),), PLeaf(a)), LetTerm(((left, MatApp(m, ())),), PLeaf(a)))


def test_alpha_eq_compares_applications():
    x, y = bvar("x"), bvar("y")
    f, g = Variable("f", Arrow(BOOL, BOOL)), Variable("g", Arrow(BOOL, BOOL))
    assert alpha_eq(ArrowApp(f, PLeaf(x)), ArrowApp(f, PLeaf(x)))
    assert not alpha_eq(ArrowApp(f, PLeaf(x)), ArrowApp(g, PLeaf(x)))
    h = Variable("h", Arrow(Tensor(BOOL, BOOL), BOOL))
    xy, yx = PPair(PLeaf(x), PLeaf(y)), PPair(PLeaf(y), PLeaf(x))
    assert alpha_eq(ArrowApp(h, xy), ArrowApp(h, xy))
    assert not alpha_eq(ArrowApp(h, xy), ArrowApp(h, yx))
    m, n = matrix("M", 1, [[0.5, 0.5], [0.5, 0.5]]), matrix("N", 1, [[0.5, 0.5], [0.5, 0.5]])
    assert alpha_eq(MatApp(m, (x,)), MatApp(m, (x,)))
    assert not alpha_eq(MatApp(m, (x,)), MatApp(n, (x,)))


def test_alpha_eq_respects_scopes():
    m = matrix("M", 0, [[0.5, 0.5]])
    x, y = bvar("x"), bvar("y")
    # A let's binder goes out of scope at its end: the x and y after it are free.
    def let_then(binder: Variable, after: Variable) -> Pair:
        return Pair(Let(PLeaf(binder), MatApp(m, ()), Var(binder)), Var(after))

    assert alpha_eq(let_then(x, x), let_then(y, x))
    assert not alpha_eq(let_then(x, x), let_then(y, y))
    # \x. \y. x returns the outer binder, \x. \x. x the inner one.
    assert not alpha_eq(Lam(PLeaf(x), Lam(PLeaf(y), Var(x))), Lam(PLeaf(x), Lam(PLeaf(x), Var(x))))
    assert not alpha_eq(Lam(PLeaf(x), Lam(PLeaf(x), Var(x))), Lam(PLeaf(x), Lam(PLeaf(y), Var(x))))
    assert alpha_eq(Lam(PLeaf(x), Lam(PLeaf(y), Var(x))), Lam(PLeaf(y), Lam(PLeaf(x), Var(y))))


def nested_lets(term: LetTerm) -> Let:
    """A two-definition let-term as nested lets."""
    (p1, e1), (p2, e2) = term.defs
    return Let(p1, e1, Let(p2, e2, pattern_to_expr(term.output)))


def test_size_counts_nodes():
    x = bvar("x")
    assert size(Var(x)) < size(Pair(Var(x), Var(x)))
    term = coin_copy_term()
    assert size(term) == size(nested_lets(term))
    # let (a, b) = M(x) in \u. f (u, a): the binder's 2 variables, the head
    # M and its argument, the parameter u, then the head f and its 2 arguments.
    a, b, u = bvar("a"), bvar("b"), bvar("u")
    f = Variable("f", Arrow(Tensor(BOOL, BOOL), BOOL))
    m = matrix("M", 1, [[0.25] * 4] * 2, out=Tensor(BOOL, BOOL))
    body = Lam(PLeaf(u), ArrowApp(f, PPair(PLeaf(u), PLeaf(a))))
    term = Let(PPair(PLeaf(a), PLeaf(b)), MatApp(m, (x,)), body)
    assert size(term) == 8
    # As a definition of a let-term with output a: 2 + 2, then 1.
    assert size(LetTerm(((PPair(PLeaf(a), PLeaf(b)), MatApp(m, (x,))),), PLeaf(a))) == 5


@pytest.mark.parametrize("sample, expected", [("sixnode.lve", 20), ("coin_copy.lve", 8)])
def test_size_of_the_samples_by_hand(samples_dir, sample, expected):
    # sixnode: x1 = M1 and x4 = M4 count 2 each, the one-argument matrix
    # applications 3 each, the two-argument ones 4 each, the output 2.
    # coin_copy: x = Coin 2, (y, z) = Copy(x) 4, the output 2.
    assert size(parse_program((samples_dir / sample).read_text()).term) == expected


def test_let_term_round_trip():
    term = coin_copy_term()
    assert term.is_positive
    assert {v.name for v in term.defined_vars()} == {"v", "v'"}
    assert typecheck(nested_lets(term)) == typecheck(term)


names = st.sampled_from(["a", "b", "c", "d"])


@given(st.lists(names, min_size=1, max_size=4, unique=True))
def test_nest_vars_keeps_order(ns):
    p = nest_vars([bvar(n) for n in ns])
    assert [v.name for v in pattern_vars(p)] == ns
