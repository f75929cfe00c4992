"""Shared builders and frozen expected values for the test suite.

The numeric constants here were produced by independent hand calculation or
exhaustive enumeration before the library code was run on the same inputs;
tests compare against them rather than against the library's own output.
"""

from __future__ import annotations

import dataclasses
import importlib.util
import pathlib
import types
from typing import Iterable, Iterator

import numpy as np

from lve.denote import Relation, denote
from lve.factors import Factor, definition_factor, factors_allclose, relation_from_factors
from lve.rewrite import RewriteStep, eliminate_term
from lve.syntax import (
    BOOL,
    TOL,
    Definitions,
    Expr,
    Lam,
    Let,
    LetTerm,
    MatApp,
    Pair,
    PLeaf,
    Pattern,
    PPair,
    StochasticMatrix,
    Tensor,
    Term,
    Ty,
    Var,
    Variable,
    free_vars,
    pattern_to_expr,
    pattern_type,
    pattern_vars,
    typecheck,
    web_size,
)
from lve.webs import Assignment, WebElem, WebPair, element_index, enumerate_assignments, pattern_read, sorted_vars

# Joint distribution of samples/sixnode.lve over (x3, x6), web order
# (t,t), (t,f), (f,t), (f,f): frozen from an exhaustive enumeration over all
# 64 assignments of x1..x6 done with pencil-and-spreadsheet arithmetic.
SIXNODE_JOINT = (0.170571125, 0.320928875, 0.17440725, 0.33409275)

# Elimination orders used by the cost checks and the table sizes the classical
# route reaches under each: forward peaks at the x2 step (product over
# x2,x3,x5,x6), reverse at the x5 step (product over x2,x3,x4,x5,x6).
SIXNODE_ORDER_FWD = ("x1", "x2", "x4", "x5")
SIXNODE_ORDER_REV = ("x5", "x4", "x2", "x1")
SIXNODE_MAX_TABLE_FWD = 16
SIXNODE_MAX_TABLE_REV = 32

# The full rule sequence eliminating x1, x2, x4, x5 in that order, one tuple
# (rule, definition index, eliminated variable or None) per step.
SIXNODE_GOLDEN_STEPS = (
    ("mult", 0, None),
    ("elim", 0, "x1"),
    ("swap2", 3, None),
    ("swap1", 2, None),
    ("mult", 1, None),
    ("mult", 0, None),
    ("elim", 0, "x2"),
    ("mult", 1, None),
    ("elim", 1, "x4"),
    ("swap2", 0, None),
    ("mult", 2, None),
    ("elim", 2, "x5"),
    ("swap3", 1, None),
    ("swap3", 0, None),
)


BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"


def bench_module(name: str) -> types.ModuleType:
    """`bench/<name>.py`, loaded by its path: the bench is scripts, not a package."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def bvar(name: str) -> Variable:
    return Variable(name, BOOL)


def matrix(name: str, n_slots: int, rows, out=BOOL) -> StochasticMatrix:
    return StochasticMatrix(name, (BOOL,) * n_slots, out, np.asarray(rows, dtype=float))


def coin_matrix(p: float = 0.3, name: str = "Coin") -> StochasticMatrix:
    return matrix(name, 0, [[p, 1.0 - p]])


def coin_copy_term(p: float = 0.3) -> LetTerm:
    """let v = Coin in let v' = v in (v, v')"""
    v, v2 = bvar("v"), bvar("v'")
    coin = coin_matrix(p)
    return LetTerm(
        ((PLeaf(v), MatApp(coin, ())), (PLeaf(v2), Var(v))),
        PPair(PLeaf(v), PLeaf(v2)),
    )


def coin_pair_expr(p: float = 0.3) -> Pair:
    """(Coin, Coin): two independent draws of the same biased coin."""
    coin = coin_matrix(p)
    return Pair(MatApp(coin, ()), MatApp(coin, ()))


# Expected joints for the 0.3-biased coin, web order (t,t), (t,f), (f,t), (f,f).
COIN_COPY_JOINT = (0.3, 0.0, 0.0, 0.7)
COIN_PAIR_JOINT = (0.09, 0.21, 0.21, 0.49)


def denoted_factor(binder: Pattern, bound: Expr) -> Factor:
    """A definition's factor through `denote`, the reference the factor
    reading is checked against: the denotation's rows are the free
    variables, sorted, and its column splits into the binder's leaves."""
    rel = denote(bound)
    axes = rel.vars + pattern_vars(binder)
    union = sorted_vars(axes)
    table = rel.matrix.reshape([web_size(v.ty) for v in axes]).transpose([axes.index(v) for v in union])
    return Factor(union, table)


def _binder(ty: Ty, k: int = 0) -> Pattern:
    """A binder of the given type over fresh variables `_out<k>`, ...; a
    mixed tensor splits, as no variable has its type."""
    if ty.is_positive or not isinstance(ty, Tensor):
        return PLeaf(Variable(f"_out{k}", ty))
    return PPair(PLeaf(Variable(f"_out{k}", ty.left)), _binder(ty.right, k + 1))


def assert_reading_agrees(t: Term) -> None:
    """The factor reading of every definition of `t` (of `t` itself under a
    fresh binder, for an expression) agrees with `denote` within TOL; for a
    let-term, so does the relation rebuilt from its factor set."""
    defs = t.defs if isinstance(t, LetTerm) else ((_binder(typecheck(t)), t),)
    for binder, bound in defs:
        assert factors_allclose(definition_factor(binder, bound), denoted_factor(binder, bound))
    if isinstance(t, LetTerm):
        rebuilt, direct = relation_from_factors(t), denote(t)
        assert rebuilt.vars == direct.vars
        assert np.allclose(rebuilt.matrix, direct.matrix, rtol=0, atol=TOL)


def scalar_brute_force_joint(term: LetTerm) -> Relation:
    """`verify.brute_force_joint` one assignment and one definition at a
    time, the oracle it is checked against: every total assignment is
    enumerated as web elements, and its weight is a product of table lookups
    added into the cell its free variables and output read."""
    typecheck(term)
    fv = sorted_vars(free_vars(term))
    all_vars = set(fv).union(*(pattern_vars(binder) for binder, _ in term.defs))
    out_ty = pattern_type(term.output)
    strides: dict[Variable, int] = {}
    acc = 1
    for v in reversed(fv):
        strides[v] = acc
        acc *= web_size(v.ty)
    matrix = np.zeros((acc, web_size(out_ty)))
    for asg in enumerate_assignments(all_vars):
        w = 1.0
        for binder, bound in term.defs:
            w *= _def_weight(pattern_read(binder, asg), bound, asg)
        row = sum(strides[v] * element_index(v.ty, asg.get(v)) for v in fv)
        matrix[row, element_index(out_ty, pattern_read(term.output, asg))] += w
    return Relation(fv, out_ty, matrix)


def _def_weight(target: WebElem, e: Expr, asg: Assignment) -> float:
    if isinstance(e, Var):
        return 1.0 if target == asg.get(e.var) else 0.0
    if isinstance(e, MatApp):
        row = 0
        for v in e.args:
            row = row * web_size(v.ty) + element_index(v.ty, asg.get(v))
        return float(e.matrix.entries[row, element_index(e.matrix.out, target)])
    assert isinstance(e, Pair) and isinstance(target, WebPair), e
    return _def_weight(target.left, e.fst, asg) * _def_weight(target.right, e.snd, asg)


def order_by_name(term: LetTerm, names) -> list[Variable]:
    by = {v.name: v for v in term.defined_vars()}
    return [by[n] for n in names]


def eliminations(term: LetTerm, order) -> list[tuple[Variable, LetTerm]]:
    """Each variable of `order` with the term reached once it is eliminated,
    by `eliminate_term` one variable at a time from `term`."""
    reached = []
    for x in order:
        term, _ = eliminate_term(term, x)
        reached.append((x, term))
    return reached


def replayed(term: LetTerm, steps: Iterable[RewriteStep]) -> Iterator[LetTerm]:
    """The terms of a rewrite derivation from `term`: `term`, then the term
    each step leaves, rebuilt by replaying the steps' windows on one array
    (`Definitions.apply`, which types each window only). So each carries the
    typings and name census the run held."""
    run = Definitions(term)
    yield term
    for step in steps:
        for edit in step.edits:
            run.apply(edit)
        yield run.term()


def is_normal_form(term: LetTerm) -> bool:
    """No let in the bound expressions is administrative: none binds a let
    or a variable, none binds a pair pattern to a pair, and none has its own
    binder as its body. The walk keeps an explicit stack."""
    stack = [bound for _, bound in term.defs]
    while stack:
        e = stack.pop()
        if isinstance(e, Let):
            if (
                isinstance(e.bound, (Let, Var))
                or (isinstance(e.binder, PPair) and isinstance(e.bound, Pair))
                or e.body == pattern_to_expr(e.binder)
            ):
                return False
            stack += (e.bound, e.body)
        elif isinstance(e, Pair):
            stack += (e.fst, e.snd)
        elif isinstance(e, Lam):
            stack.append(e.body)
    return True


def rename(t, names: dict[str, str]):
    """`t` with every occurrence of the variables named in `names`, free or
    bound, renamed. Nodes are rebuilt bottom-up with an explicit stack."""
    nodes = (Expr, Pattern, LetTerm)

    def parts(x):
        if isinstance(x, tuple):
            return [p for y in x for p in parts(y)]
        return [x] if isinstance(x, nodes) else []

    def new(x):
        if isinstance(x, Variable):
            return Variable(names.get(x.name, x.name), x.ty)
        if isinstance(x, tuple):
            return tuple(new(y) for y in x)
        return done[id(x)] if isinstance(x, nodes) else x

    done: dict[int, object] = {}
    stack = [t]
    while stack:
        node = stack[-1]
        fields = tuple(getattr(node, f.name) for f in dataclasses.fields(node))
        todo = [p for p in parts(fields) if id(p) not in done]
        if todo:
            stack += todo
            continue
        stack.pop()
        done[id(node)] = type(node)(*map(new, fields))
    return done[id(t)]


def _row(k: int) -> list[float]:
    p = round(0.1 + 0.8 * ((7 * k) % 11) / 10, 2)
    return [p, 1 - p]


def chain_network(n: int) -> dict:
    """x1 -> x2 -> ... -> xn, querying xn; each row is [p, 1 - p] with p in 0.1..0.9."""
    names = [f"x{i + 1}" for i in range(n)]
    nodes = [{"var": names[0], "parents": [], "cpt": [_row(0)]}]
    for i in range(1, n):
        nodes.append({"var": names[i], "parents": [names[i - 1]], "cpt": [_row(2 * i), _row(2 * i + 1)]})
    return {"variables": [{"name": v} for v in names], "nodes": nodes, "query": [names[-1]]}


def grid_network(rows: int, cols: int) -> dict:
    """A rows x cols grid whose nodes have the node above and the node to the
    left as parents, querying the bottom-right corner; rows as in chain_network."""
    names, nodes = [], []
    for i in range(rows):
        for j in range(cols):
            parents = ([f"v{i - 1}_{j}"] if i else []) + ([f"v{i}_{j - 1}"] if j else [])
            cpt = [_row(len(names) + k) for k in range(2 ** len(parents))]
            names.append(f"v{i}_{j}")
            nodes.append({"var": names[-1], "parents": parents, "cpt": cpt})
    return {"variables": [{"name": v} for v in names], "nodes": nodes, "query": [names[-1]]}


def _flat_network(parents: dict[str, list[str]], query: list[str]) -> dict:
    nodes = [
        {"var": v, "parents": ps, "cpt": [[0.25, 0.75]] * 2 ** len(ps)} for v, ps in parents.items()
    ]
    return {"variables": [{"name": v} for v in parents], "nodes": nodes, "query": query}


def chain(n: int) -> dict:
    """c0 -> c1 -> ... -> c(n-1), querying the last; every row [0.25, 0.75]."""
    names = [f"c{i}" for i in range(n)]
    return _flat_network({v: names[i - 1 : i] for i, v in enumerate(names)}, [names[-1]])


def grid(rows: int, cols: int) -> dict:
    """A rows x cols grid as in grid_network, every row [0.25, 0.75]."""
    parents = {
        f"v{i}_{j}": ([f"v{i - 1}_{j}"] if i else []) + ([f"v{i}_{j - 1}"] if j else [])
        for i in range(rows)
        for j in range(cols)
    }
    return _flat_network(parents, [f"v{rows - 1}_{cols - 1}"])


def tensor_network(seed: int) -> str:
    """A seeded `.lve` program of 4 to 6 nodes, each typed Bool or Bool *
    Bool, querying the last: a node has at most 2 parents, all earlier, and
    every other node has a later child. Rows are Dirichlet draws."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 7))
    tys = ["Bool * Bool" if rng.random() < 0.5 else "Bool" for _ in range(n)]
    parents: list[set[int]] = [set() for _ in range(n)]
    for i in range(n - 2, -1, -1):
        parents[int(rng.choice([j for j in range(i + 1, n) if len(parents[j]) < 2]))].add(i)
    for j in range(1, n):
        if len(parents[j]) < 2 and rng.random() < 0.3:
            parents[j].add(int(rng.integers(0, j)))
    matrices, defs = [], []
    for j, ty in enumerate(tys):
        ps = sorted(parents[j])
        ins = " * ".join(f"({tys[i]})" for i in ps)
        n_rows = 2 ** sum(tys[i].count("Bool") for i in ps)
        rows = rng.dirichlet(np.ones(2 ** ty.count("Bool")), size=n_rows)
        entries = "; ".join(", ".join(map(repr, map(float, row))) for row in rows)
        matrices.append(f"matrix M{j} : {ins} -> ({ty}) = [{entries}];")
        args = ", ".join(f"n{i}" for i in ps)
        defs.append(f"n{j} = M{j}({args});" if ps else f"n{j} = M{j};")
    var_decls = [f"var n{j} : {ty};" for j, ty in enumerate(tys)]
    return "\n".join(matrices + var_decls + defs + [f"in n{n - 1}"])
