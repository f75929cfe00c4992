"""Terms with thousands of definitions, under the default recursion limit."""

from __future__ import annotations

import gc
import json
import sys
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from lve import syntax
from lve.cli import main
from lve.denote import DenoteContext, denote, joint_vector
from lve.errors import PatternTypeMismatch
from lve.factors import eliminate, factors_of, marginal
from lve.network import load_network, network_to_program
from lve.orderings import min_degree_order, random_order
from lve.parser import parse_program
from lve.printer import program_str
from lve.rewrite import eliminate_seq, simplify
from lve.syntax import (
    BOOL,
    Let,
    LetTerm,
    MatApp,
    PLeaf,
    StochasticMatrix,
    Var,
    Variable,
    alpha_eq,
    collect_names,
    free_vars,
    occurrences,
    size,
    typecheck,
)
from helpers import chain_network, grid_network, rename

LENGTH = 2000
VEL_LENGTH = 1000
WIDTH = 3000


def test_long_chain_runs_every_route_but_vel(tmp_path, capsys):
    assert sys.getrecursionlimit() <= 1000
    net = chain_network(LENGTH)
    term = network_to_program(net).term
    assert len(term.defs) == LENGTH

    reparsed = parse_program(program_str(term)).term
    assert len(reparsed.defs) == LENGTH
    typecheck(reparsed)
    assert free_vars(reparsed) == frozenset()

    # The marginal of the last node, by one vector-matrix product per edge.
    expected = np.array(net["nodes"][0]["cpt"][0])
    for node in net["nodes"][1:]:
        expected = expected @ np.array(node["cpt"])

    assert np.allclose(joint_vector(denote(reparsed)), expected, atol=1e-9)
    ctx = DenoteContext()
    fs = eliminate(factors_of(reparsed, ctx), min_degree_order(reparsed, ctx))
    assert np.allclose(marginal(fs, reparsed.output), expected, atol=1e-9)

    path = tmp_path / "chain.json"
    path.write_text(json.dumps(net))
    assert main(["vef", str(path)]) == 0
    # Min-degree eliminates x1, x2, ... in turn: each step multiplies a
    # one-variable message into a two-variable CPT (4 multiply-adds) and sums
    # one variable out of the 4-entry product (4 more).
    assert capsys.readouterr().out.splitlines()[-2:] == [f"muladds: {8 * (LENGTH - 1)}", "max_table: 4"]


def typing_calls_per_rule(monkeypatch, n: int) -> dict[str, float]:
    """`_bind` and `_check` calls per rule while vel eliminates a typechecked
    n-node chain in min-degree order."""
    term = network_to_program(chain_network(n)).term
    typecheck(term)
    order = min_degree_order(term)
    calls: Counter = Counter()
    for name in ("_bind", "_check"):
        real = getattr(syntax, name)

        def counted(*args, real=real, name=name):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(syntax, name, counted)
    final, trace = eliminate_seq(term, order)
    monkeypatch.undo()
    assert len(trace.steps) == 2 * (n - 1)
    assert len(final.defs) == 1 and free_vars(final) == frozenset()
    return {name: count / len(trace.steps) for name, count in calls.items()}


def test_vel_rules_cost_the_definitions_they_touch(monkeypatch):
    # Each mult and elim types its new nodes on top of cached typings, so the
    # typing work per rule does not grow with the chain, and rewriting a
    # 1000-node chain stays under the default recursion limit.
    assert sys.getrecursionlimit() <= 1000
    short = typing_calls_per_rule(monkeypatch, 100)
    assert short == typing_calls_per_rule(monkeypatch, VEL_LENGTH)
    assert set(short) == {"_bind", "_check"}


@pytest.mark.parametrize("side", [6, 10])
def test_swap2_mints_its_names_without_a_consistency_pass(monkeypatch, side):
    # Each term of the run carries its name census on, so swap2 takes the
    # next free g__k from it and no rule runs the consistency pass again.
    term = network_to_program(grid_network(side, side)).term
    typecheck(term)
    order = min_degree_order(term)
    passes = []
    real = syntax._collect_types

    def counted(t):
        if isinstance(t, LetTerm):
            passes.append(len(t.defs))
        return real(t)

    monkeypatch.setattr(syntax, "_collect_types", counted)
    final, trace = eliminate_seq(term, order)
    monkeypatch.undo()
    assert passes == []
    minted = [s.after.defs[s.position][0].var.name for s in trace.steps if s.rule == "swap2"]
    assert minted == [f"g__{k}" for k in range(1, len(minted) + 1)]
    assert minted
    arrows = {v.name for v in occurrences(final) if isinstance(v, Variable) and v.is_arrow}
    assert arrows == set(minted)


def _held_mb(term: LetTerm, order) -> float:
    """Megabytes that `eliminate_seq`'s final term and trace hold (tracemalloc)."""
    typecheck(term)  # the input's own typings are not the run's
    gc.collect()
    tracemalloc.start()
    try:
        result = eliminate_seq(term, order)
        gc.collect()
        return tracemalloc.get_traced_memory()[0] / 1e6
    finally:
        tracemalloc.stop()


def test_a_vel_trace_holds_windows_not_terms():
    # A step records the windows it replaced, not two whole terms, so the
    # memory a run holds grows with the chain, not with its square.
    held = []
    for n in (1000, 2000):
        term = network_to_program(chain_network(n)).term
        held.append(_held_mb(term, min_degree_order(term)))
    assert held[1] <= 2.5 * held[0], held
    # 16920 steps, mostly swaps under a random order.
    term = network_to_program(chain_network(200)).term
    assert _held_mb(term, random_order(term, 3)) < 20


def test_vel_reads_out_a_long_chain(tmp_path, capsys):
    # vel's merged definition nests two lets per eliminated variable; the
    # readout denotes it and `size` measures it without recursing per level.
    assert sys.getrecursionlimit() <= 1000
    net = chain_network(VEL_LENGTH)
    term = network_to_program(net).term
    ctx = DenoteContext()
    order = min_degree_order(term, ctx)
    final, _ = eliminate_seq(term, order)
    vel = marginal(factors_of(final, ctx), term.output)
    vef = marginal(eliminate(factors_of(term, ctx), order), term.output)
    assert np.allclose(vel, vef, atol=1e-9)
    # 7n - 4, as the recursive walk measured at 400 nodes (2796).
    assert size(final) == 7 * VEL_LENGTH - 4

    path = tmp_path / "chain.json"
    path.write_text(json.dumps(net))
    assert main(["vel", str(path)]) == 0
    printed = capsys.readouterr().out.splitlines()[-2:]
    assert [line.split(": ")[0] for line in printed] == ["t", "f"]
    assert np.allclose([float(line.split(": ")[1]) for line in printed], vef, atol=1e-9)


def test_vel_emits_the_term_of_a_long_chain(tmp_path, capsys):
    # The printer walks vel's merged definition, two nested lets per
    # eliminated variable, on syntax.walk.
    assert sys.getrecursionlimit() <= 1000
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(chain_network(VEL_LENGTH)))
    assert main(["vel", "--emit-term", str(path)]) == 0
    printed = capsys.readouterr().out.splitlines()
    assert printed[-1] == f"in x{VEL_LENGTH}"
    assert sum(line.count("let ") for line in printed) == 2 * (VEL_LENGTH - 1)


def test_vel_simplifies_the_term_of_a_long_chain(tmp_path, capsys):
    # simplify reads vel's merged definition back as one flat spine, one let
    # per message passed down the chain, in one walk on syntax.walk.
    assert sys.getrecursionlimit() <= 1000
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(chain_network(VEL_LENGTH)))
    assert main(["vel", "--emit-term", "--simplify", str(path)]) == 0
    printed = capsys.readouterr().out.splitlines()
    assert printed[-1] == f"in x{VEL_LENGTH}"
    assert sum(line.count("let ") for line in printed) == VEL_LENGTH - 1

    assert main(["vel", str(path)]) == 0
    plain = capsys.readouterr().out
    assert main(["vel", "--simplify", str(path)]) == 0
    assert capsys.readouterr().out == plain


def test_alpha_eq_compares_the_term_of_a_long_chain():
    # vel's merged definition nests two lets per eliminated variable; alpha_eq
    # walks it on syntax.walk and undoes each scope's bindings.
    assert sys.getrecursionlimit() <= 1000
    term = network_to_program(chain_network(VEL_LENGTH)).term
    final, _ = eliminate_seq(term, min_degree_order(term))
    assert alpha_eq(final, final)
    cleaned = simplify(final)
    assert alpha_eq(cleaned, cleaned)

    # The term is closed, so renaming every variable renames binders only.
    renamed = rename(final, {n: f"{n}_r" for n in collect_names(final)})
    assert collect_names(renamed).isdisjoint(collect_names(final))
    assert alpha_eq(final, renamed) and alpha_eq(renamed, final)

    # Under its outermost let, the definition has that let's binder free.
    (_, bound), = final.defs
    assert isinstance(bound, Let)
    inner = bound.body
    (free,) = {v.name for v in free_vars(inner)} - {v.name for v in free_vars(bound)}
    assert alpha_eq(inner, rename(inner, {n: f"{n}_r" for n in collect_names(inner) - {free}}))
    assert not alpha_eq(inner, rename(inner, {free: f"{free}_r"}))


def _coin_definitions() -> str:
    return "matrix C : -> Bool = [0.5, 0.5];\n" + "".join(f"a{i} = C;\n" for i in range(WIDTH))


def _tuple(base: str) -> str:
    return "(" + ", ".join(f"{base}{i}" for i in range(WIDTH)) + ")"


def test_a_deep_let_nest_types_and_denotes():
    # Typing and the semantics both fold an expression on syntax.walk, so a
    # let nested 3000 deep is read under the default recursion limit.
    assert sys.getrecursionlimit() <= 1000
    start = StochasticMatrix("C", (), BOOL, np.array([[0.3, 0.7]]))
    # Each step keeps t with probability 0.999, so every fold shows in the
    # result: t ends at 0.3 * 0.999^3000, about 0.015.
    step = StochasticMatrix("M", (BOOL,), BOOL, np.array([[0.999, 0.001], [0.0, 1.0]]))
    xs = [Variable(f"a{i}", BOOL) for i in range(WIDTH + 1)]
    e = Var(xs[-1])
    for i in range(WIDTH, 0, -1):
        e = Let(PLeaf(xs[i]), MatApp(step, (xs[i - 1],)), e)
    e = Let(PLeaf(xs[0]), MatApp(start, ()), e)
    assert typecheck(e) is BOOL
    rel = denote(e)
    assert rel.vars == ()
    kept = 0.3 * 0.999**WIDTH
    assert np.allclose(rel.matrix, [[kept, 1 - kept]], atol=1e-9)


def test_a_wide_tuple_against_a_bool_binder_is_a_type_error():
    # The bound is a 3000-component tuple; the mismatch message prints its
    # type, whose right spine `type_str` reads in a loop.
    term = parse_program(f"{_coin_definitions()}t = {_tuple('a')};\nin t\n").term
    with pytest.raises(PatternTypeMismatch, match=r"^binder has type Bool, bound expression has \(Bool \* \(Bool"):
        typecheck(term)


def test_a_wide_pattern_binds_and_compares():
    # A 3000-leaf binder: the pattern helpers read its right spine in a loop.
    term = parse_program(f"{_coin_definitions()}{_tuple('b')} = {_tuple('a')};\nin (b0, b2999)\n").term
    assert typecheck(term) is not BOOL
    assert alpha_eq(term, term)


def test_the_pattern_helpers_take_a_3000_leaf_pattern():
    # Each pair keeps its leaves' names, so building and rebuilding the
    # pattern is linear, and the helpers read the right spine in a loop.
    vs = [Variable(f"v{i}", BOOL) for i in range(3000)]
    w = Variable("w", BOOL)
    p = syntax.nest_vars(vs)
    assert syntax.pattern_remove(p, vs[-1]) == syntax.nest_vars(vs[:-1])
    assert syntax.pattern_remove(p, vs[1500]) == syntax.nest_vars(vs[:1500] + vs[1501:])
    assert syntax.pattern_remove(p, w) is p
    assert syntax._map_pattern(p, {}) == p
    assert syntax._map_pattern(p, {"v0": w}) == syntax.nest_vars([w, *vs[1:]])
    with pytest.raises(syntax.InvalidPattern, match=r"repeats \['v7'\]"):
        syntax.PPair(syntax.PLeaf(vs[7]), p)


def test_3000_leaf_patterns_compare_and_hash_by_structure():
    # `==` and `hash` read the right spine in a loop, so neither a pattern
    # nor a let-term whose output it is hits the recursion limit.
    vs = [Variable(f"v{i}", BOOL) for i in range(3000)]
    p, q = syntax.nest_vars(vs), syntax.nest_vars(vs)
    assert p is not q and p == q and hash(p) == hash(q)
    regrouped = syntax.PPair(syntax.nest_vars(vs[:1500]), syntax.nest_vars(vs[1500:]))
    for other in (regrouped, syntax.nest_vars(vs[::-1]), syntax.nest_vars(vs[:-1]), PLeaf(vs[0])):
        assert p != other and other != p
    assert LetTerm((), p) == LetTerm((), q) and hash(LetTerm((), p)) == hash(LetTerm((), q))
    assert LetTerm((), p) != LetTerm((), regrouped)


def test_a_network_querying_1200_variables_loads(tmp_path, capsys):
    # The output pattern is right-nested over the query (`nest_vars`); it
    # loads and types, and `check` stops at the web cap, not the recursion
    # limit.
    names = [f"v{i}" for i in range(1200)]
    net = {
        "variables": [{"name": n} for n in names],
        "nodes": [{"var": n, "parents": [], "cpt": [[0.5, 0.5]]} for n in names],
        "query": names,
    }
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(net))
    program = load_network(path)
    assert len(program.term.defs) == 1200
    typecheck(program.term)
    assert main(["check", str(path)]) == 2
    err = capsys.readouterr().err
    assert "web of size" in err and "exceeds cap" in err
