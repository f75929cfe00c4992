"""Factors over finite-web variables and variable elimination on factor sets.

A factor pairs a variable set with a nonnegative table over that set's web;
tables are dense numpy arrays with one axis per variable, axes sorted by
variable name, so the C-order flattening is the canonical web enumeration.
Elimination of a variable multiplies the factors mentioning it and sums it
out; `eliminate` works out every step on the variable sets first
(`plan_elimination`, which is all `lve cost` reads), then runs one einsum per
step. A let-term induces a factor set with one factor per definition plus a
constant factor on the output variables, and the term's denotation is
recovered by multiplying everything and summing the internal variables.
Which variables each factor spans, and which arrow definitions fold into
their consumer, is decided from the types alone by `syntax.factor_scopes`;
`factors_of` only fills in the tables.

A definition's table is read off its bound expression as factor
contractions (`_Reading`), never through `denote`, which stays the
independent reference: variables and arrows are identifications of indices,
and each `let` contracts the factors of the indices it leaves behind, one
index at a time, as one step of `eliminate` would. Reading a term vel has
rewritten therefore costs what `eliminate` costs for the same order.
"""

from __future__ import annotations

import functools
import math
from collections import defaultdict
from dataclasses import dataclass, field
from itertools import chain
from operator import attrgetter
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .cost import DEFAULT_WEB_CAP, CostCounter
from .denote import DenoteContext, Relation
from .errors import (
    BinderCapture,
    InvalidAxes,
    NonFinite,
    SharedVarTypeMismatch,
    UnknownVariable,
    WebCapExceeded,
)
from .syntax import (
    BOOL,
    ArrowApp,
    Expr,
    FreshNames,
    Lam,
    Let,
    LetTerm,
    MatApp,
    Pair,
    Pattern,
    PLeaf,
    Ty,
    Var,
    Variable,
    factor_scopes,
    free_vars,
    pattern_fv,
    pattern_type,
    pattern_vars,
    walk,
    web_size,
    within_tol,
)
from .webs import (
    Assignment,
    check_web_cap,
    element_index,
    sorted_vars,
)


@dataclass(frozen=True, eq=False)
class Factor:
    """A variable set with a table over its web; axes follow sorted names."""

    vars: tuple[Variable, ...]
    table: np.ndarray
    _finite = None  # whether every entry is finite, once `factors_allclose` asked

    def __post_init__(self) -> None:
        names = [v.name for v in self.vars]
        if names != sorted(names):
            raise InvalidAxes(f"factor axes {names} are not sorted by name")
        arr = np.asarray(self.table, dtype=float)
        if arr is self.table and arr.flags.writeable:
            arr = arr.copy()  # freeze a copy, not the caller's array
        dims = tuple([v.web for v in self.vars])
        if arr.shape != dims:
            raise InvalidAxes(f"factor table of shape {arr.shape} on axes of sizes {dims}")
        arr.flags.writeable = False
        object.__setattr__(self, "table", arr)

    def value(self, asg: Assignment) -> float:
        idx = tuple(element_index(v.ty, asg.get(v)) for v in self.vars)
        return float(self.table[idx])

    def flat(self) -> np.ndarray:
        """Table values in canonical web order."""
        return self.table.reshape(-1)


def constant_factor(vars: Iterable[Variable], value: float = 1.0) -> Factor:
    vs = sorted_vars(vars)
    dims = tuple(web_size(v.ty) for v in vs)
    return Factor(vs, np.full(dims, value))


class VefStep(NamedTuple):
    """One elimination step: its cost, then its plan (`plan_elimination`):
    the keys and einsum labels of the bucket's factors, and the result's
    labels and variables."""

    var: Variable
    group_size: int
    product_table: int
    muladds: int
    keys: list[int]
    labels: list[list[int]]
    out_labels: list[int]
    vars: tuple[Variable, ...]


@dataclass
class FactorSet:
    """An ordered multiset of factors plus accumulated operation counts."""

    factors: list[Factor]
    counter: CostCounter = field(default_factory=CostCounter)
    steps: list[VefStep] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.factors)


# ---------------------------------------------------------------- factor algebra

_MAX_OPERANDS = 31
"""Arrays per einsum call, as numpy 1.x takes 32 counting the output; a
contraction over more factors runs in chunks."""

_MAX_LABELS = 52
"""Integer sublists label einsum axes with range(52)."""


_name = attrgetter("name")


def _web(vs: Iterable[Variable]) -> int:
    return math.prod([v.web for v in vs])


def _layout(
    scopes: Sequence[Sequence[Variable]], keep: set[Variable], counter: CostCounter | None,
    cap: int | None, bucket: bool,
) -> tuple[tuple[Variable, ...], list[list[int]], list[int], int]:
    """A contraction worked out on the factors' scopes alone: the result's
    variables, the einsum labels of the operands and the result (the union
    numbered by first occurrence), and the product's web. Raises what
    `contract` raises (`bucket` as there); a cap of None checks no web and
    no label limit. The counter is charged each pairwise fold, in list
    order, the union's web so far, as multiply-adds and as a table; and the
    sum the product's web as multiply-adds and the result's web as a table."""
    label: dict[Variable, int] = {}
    labels: list[list[int]] = []
    webs: list[int] = []
    size = 1
    for vs in scopes:
        ls = []
        for v in vs:
            at = label.get(v)
            if at is None:
                at = label[v] = len(label)
                size *= v.web
            ls.append(at)
        labels.append(ls)
        webs.append(size)
    if bucket and cap is not None and len(scopes) > 1:
        check_web_cap(size, cap)
    if len(set(map(_name, label))) < len(label):
        first: dict[str, Variable] = {}
        clash = next(v for v in label if first.setdefault(v.name, v) is not v)
        raise SharedVarTypeMismatch(f"variable {clash.name} carried two types")
    out = [v for v in label if v in keep]
    if len(out) < len(keep):
        raise UnknownVariable(f"kept variables {sorted(v.name for v in keep - set(out))} are in no factor")
    out.sort(key=_name)
    out_size = _web(out)
    if cap is not None:
        check_web_cap(out_size, cap)
        if len(label) > _MAX_LABELS:
            raise WebCapExceeded(f"contraction over {len(label)} variables, einsum takes {_MAX_LABELS}")
    if counter is not None:
        folds = webs[1:]  # nondecreasing: the last is the largest table
        counter.count(sum(folds), folds[-1] if folds else None)
        if len(out) < len(label):
            counter.count(size, out_size)
    return tuple(out), labels, [label[v] for v in out], size


def _einsum(operands: list[tuple[np.ndarray, list[int]]], out_labels: list[int]) -> np.ndarray:
    """One einsum over labelled tables, in chunks of `_MAX_OPERANDS`: a chunk
    keeps the labels the result or a later operand carries. No operands give
    the scalar 1."""
    while len(operands) > _MAX_OPERANDS:
        head, operands = operands[:_MAX_OPERANDS], operands[_MAX_OPERANDS:]
        later = set(out_labels).union(*(labels for _, labels in operands))
        kept = sorted(set().union(*(labels for _, labels in head)) & later)
        operands.insert(0, (np.einsum(*chain.from_iterable(head), kept), kept))
    return np.einsum(*chain.from_iterable(operands), out_labels) if operands else np.ones(())


def contract(
    factors: Sequence[Factor],
    keep: Iterable[Variable],
    counter: CostCounter | None = None,
    cap: int = DEFAULT_WEB_CAP,
    bucket: bool = False,
) -> Factor:
    """The product of the factors with every variable outside `keep` summed
    out, by np.einsum without materializing the product; the empty product is
    the scalar 1. Every kept variable must occur in some factor. The cap
    applies to the result only, and with `bucket` also to the product of
    more than one factor; the counter is charged as `_layout` says."""
    return Factor(*_contract(factors, keep, counter, cap, bucket))


def _contract(factors: Sequence, keep: Iterable[Variable], counter: CostCounter | None, cap: int, bucket=False) -> tuple:
    """`contract`'s variables and table, unchecked and uncopied."""
    out, labels, out_labels, _ = _layout([f.vars for f in factors], set(keep), counter, cap, bucket)
    return out, _einsum([(f.table, ls) for f, ls in zip(factors, labels)], out_labels)


# ---------------------------------------------------------------- reading definitions


@functools.cache
def _atom(k: int) -> Variable:
    """The k-th index of a reading. A reading's factors span these indices
    alone, never the term's variables, so the names need only differ from
    each other."""
    return Variable(f"#{k}", BOOL)


def _leaves(ty: Ty) -> int:
    """The Bool leaves of a type: every web is a power of two."""
    return web_size(ty).bit_length() - 1


class _Table(NamedTuple):
    """A factor inside a reading: one axis per index, in the order given and
    unchecked. `contract` takes it as it takes a `Factor`."""

    vars: tuple[Variable, ...]
    table: np.ndarray


def _table(table: np.ndarray, atoms: Sequence[Variable]) -> _Table:
    """A table over the given indices; an index named twice keeps the
    diagonal."""
    if len(set(atoms)) < len(atoms):
        distinct = list(dict.fromkeys(atoms))
        table = np.einsum(table, [distinct.index(a) for a in atoms], list(range(len(distinct))))
        atoms = distinct
    return _Table(tuple(atoms), table)


class _Reading:
    """One group of definitions read as a factor expression.

    Every value is a tuple of Bool indices, one per leaf of its type, left to
    right; an arrow's input leaves come before its result's, as in its web.
    So a `Var` is the indices of its variable, a `Pair` joins its two tuples,
    a `MatApp` adds its matrix's table over the arguments' indices and fresh
    result indices, and a `Lam` is fresh parameter indices followed by its
    body's. An `ArrowApp` identifies the arrow's input indices with the
    argument's (a union-find, `alias`) and is its result indices. No arrow is
    a web, and no `Var` a table.

    A `Let` binds its binder's leaves to the bound's indices. Once its body
    is read, an index of the bound that neither the body's value nor a
    positive variable in scope carries (`uses`) is summed out: the factors
    that mention it are contracted into one `_Table`, like a vef bucket.
    Arrow variables are linear, so only positive bindings are counted. The
    indices of a variable free in the group (`free`) and those summed
    already are `fixed`: no `Let` sums them. The reading runs on
    `syntax.walk`, so nesting depth is not bounded by Python's recursion
    limit, and a node whose reading the context recorded is not walked
    (`reuse`)."""

    def __init__(self, counter: CostCounter, cap: int, readings: dict):
        self.counter = counter
        self.cap = cap
        self.readings = readings
        self.factors: list[Factor | _Table] = []
        self.env: dict[Variable, tuple[Variable, ...]] = {}
        self.free: dict[Variable, tuple[Variable, ...]] = {}
        self.fixed: set[Variable] = set()
        self.uses: dict[Variable, int] = defaultdict(int)
        self.alias: dict[Variable, Variable] = {}
        self.settled = 0
        self.fresh = 0

    def atoms(self, n: int) -> tuple[Variable, ...]:
        self.fresh += n
        return tuple(_atom(k) for k in range(self.fresh - n, self.fresh))

    def find(self, a: Variable) -> Variable:
        """The representative of an index; each index on the way is pointed at it."""
        alias, root = self.alias, a
        while root in alias:
            root = alias[root]
        while a is not root:
            alias[a], a = root, alias[a]
        return root

    def lookup(self, v: Variable) -> tuple[Variable, ...]:
        got = self.env.get(v) or self.free.get(v)
        if got is None:
            got = self.free[v] = self.atoms(_leaves(v.ty))
            self.fixed.update(got)
        return got

    def bind(self, p: Pattern, value: tuple[Variable, ...], undo: list) -> None:
        if isinstance(p, PLeaf):
            parts = [(p.var, value)]
        else:
            parts, at = [], 0
            for v in pattern_vars(p):
                n = _leaves(v.ty)
                parts.append((v, value[at : at + n]))
                at += n
        for v, part in parts:
            undo.append((v, self.env.get(v)))
            self.env[v] = part
            if not v.is_arrow:
                for a in part:
                    self.uses[self.find(a)] += 1

    def unbind(self, undo: list) -> None:
        while undo:
            v, old = undo.pop()
            if not v.is_arrow:
                for a in self.env[v]:
                    self.uses[self.find(a)] -= 1
            if old is None:
                del self.env[v]
            else:
                self.env[v] = old

    def identify(self, a: Variable, b: Variable) -> None:
        a, b = self.find(a), self.find(b)
        if a is not b:
            self.alias[a] = b
            self.settled = 0
            self.uses[b] += self.uses.pop(a, 0)
            if a in self.fixed:
                self.fixed.add(b)

    def resolved(self) -> list[Factor | _Table]:
        """The factors, with every identified index under its representative;
        the first `settled` are so already, since the last `identify`."""
        if self.alias:
            for k in range(self.settled, len(self.factors)):
                f = self.factors[k]
                atoms = tuple(map(self.find, f.vars))
                if atoms != f.vars:
                    self.factors[k] = _table(f.table, atoms)
        self.settled = len(self.factors)
        return self.factors

    def sum_out(self, bound: tuple[Variable, ...], value: tuple[Variable, ...]) -> None:
        kept = None
        for a in map(self.find, bound):
            if a in self.fixed or self.uses.get(a):
                continue
            if kept is None:
                kept = set(map(self.find, value))
            if a in kept:
                continue
            self.fixed.add(a)
            hit, rest = [], []
            for f in self.resolved():
                (hit if a in f.vars else rest).append(f)
            if not hit:
                hit = [_Table((a,), np.ones(2))]
            keep = set(chain.from_iterable(f.vars for f in hit))
            keep.discard(a)
            rest.append(_Table(*_contract(hit, keep, self.counter, self.cap)))
            self.factors, self.settled = rest, len(rest)

    def reuse(self, got: tuple) -> tuple[Variable, ...] | None:
        """The indices of the value of a bound whose reading is recorded
        (`record`), its factors added under this reading's indices and its
        charges made again; None where the bound's free variables share an
        index here."""
        _, factors, value, free, muladds, max_table = got
        rename: dict[Variable, Variable] = {}
        for v, atoms in free:
            rename.update(zip(atoms, map(self.find, self.lookup(v))))
        if len(set(rename.values())) < len(rename):
            return None
        for a in chain(value, *(f.vars for f in factors)):
            if a not in rename:
                rename[a] = self.atoms(1)[0]
        self.factors += [_Table(tuple(rename[a] for a in f.vars), f.table) for f in factors]
        self.counter.count(muladds, max_table)
        return tuple(rename[a] for a in value)

    def record(self, e: Expr) -> tuple[Variable, ...]:
        """`read(e)`, keeping the reading when `e` applies no free arrow and
        its free variables have distinct indices. Such a reading touches
        only the factors it adds, and it is the same wherever `e` occurs up
        to its indices: a later reading of a term vel builds around `e`
        takes it in place of reading `e` again (`reuse`)."""
        fv = free_vars(e)
        if id(e) in self.readings or any(v.is_arrow for v in fv):
            return self.read(e)
        outer, self.counter = self.counter, CostCounter()
        mark = len(self.factors)
        value = self.read(e)
        own, self.counter = self.counter, outer
        outer.merge(own)
        free = tuple((v, tuple(map(self.find, self.lookup(v)))) for v in fv)
        atoms = [a for _, part in free for a in part]
        if len(set(atoms)) == len(atoms):
            factors = tuple(self.resolved()[mark:])
            self.readings[id(e)] = (e, factors, tuple(map(self.find, value)), free, own.muladds, own.max_table)
        return value

    def read(self, e: Expr) -> tuple[Variable, ...]:
        """The indices of an expression's value, its factors added."""
        return walk(e, self._visit)

    def _visit(self, e: Expr):
        got = self.readings.get(id(e))
        value = None if got is None else self.reuse(got)
        if value is None:
            value = self._inner(e) if isinstance(e, (Let, Pair, Lam)) else self._leaf(e)
        return value

    def _inner(self, e: Let | Pair | Lam):
        if isinstance(e, Pair):
            return (yield e.fst) + (yield e.snd)
        undo: list = []
        if isinstance(e, Let):
            bound = yield e.bound
            self.bind(e.binder, bound, undo)
            value = yield e.body
            self.unbind(undo)
            self.sum_out(bound, value)
            return value
        param = self.atoms(_leaves(pattern_type(e.param)))
        self.bind(e.param, param, undo)
        value = param + (yield e.body)
        self.unbind(undo)
        return value

    def _leaf(self, e: Expr) -> tuple[Variable, ...]:
        if isinstance(e, Var):
            return self.lookup(e.var)
        if isinstance(e, MatApp):
            args = tuple(chain.from_iterable(map(self.lookup, e.args)))
            out = self.atoms(_leaves(e.matrix.out))
            atoms = args + out
            self.factors.append(_table(e.matrix.entries.reshape((2,) * len(atoms)), atoms))
            return out
        if isinstance(e, ArrowApp):
            fn = self.lookup(e.fn)
            args = tuple(chain.from_iterable(map(self.lookup, pattern_vars(e.args))))
            for a, b in zip(fn, args):
                self.identify(a, b)
            return fn[len(args) :]
        raise TypeError(f"not an expression: {e!r}")

    def factor(self, scope: Iterable[Variable]) -> Factor:
        """The product of the factors over the scope's variables, every other
        index summed out. A variable's axis spans its indices, left-major; an
        index two axes share is tied to a copy by an identity factor, and one
        in no factor spans ones."""
        axes = sorted_vars(scope)
        cols: list[Variable] = []
        extra: list[_Table] = []
        for v in axes:
            for a in map(self.find, self.lookup(v)):
                if a in cols:
                    copy = self.atoms(1)[0]
                    extra.append(_Table((a, copy), np.eye(2)))
                    a = copy
                cols.append(a)
        factors = self.resolved() + extra
        held = set(chain.from_iterable(f.vars for f in factors))
        missing = [a for a in cols if a not in held]
        if missing:
            factors.append(constant_factor(missing))
        if len(factors) == 1 and len(factors[0].vars) == len(cols):
            g = factors[0]
        else:
            g = contract(factors, cols, self.counter, self.cap)
        table = g.table.transpose([g.vars.index(a) for a in cols])
        return Factor(axes, table.reshape([web_size(v.ty) for v in axes]))


def _read_definitions(
    defs: Sequence[tuple[Pattern, Expr]], scope: Iterable[Variable], counter: CostCounter, cap: int, readings: dict
) -> Factor:
    """The factor of definitions read together, in order, over `scope`: an
    arrow one of them binds and a later one applies is identified, never
    built. A lone matrix application is its matrix's table, transposed to
    sorted axes. Raises `BinderCapture` when a binder variable occurs free
    in its own definition."""
    for binder, bound in defs:
        capture = free_vars(bound) & pattern_fv(binder)
        if capture:
            raise BinderCapture(f"binder variables {sorted(v.name for v in capture)} occur free in the definition")
    binder, bound = defs[0]
    if len(defs) == 1 and isinstance(bound, MatApp):
        # Entries are left-major over the arguments in application order,
        # then over the binder's leaves.
        axes = bound.args + pattern_vars(binder)
        order = sorted(range(len(axes)), key=lambda k: axes[k].name)
        table = bound.matrix.entries.reshape([v.web for v in axes]).transpose(order)
        return Factor(tuple(axes[k] for k in order), table)
    reading = _Reading(counter, cap, readings)
    undo: list = []
    for binder, bound in defs:
        reading.bind(binder, reading.record(bound), undo)
    return reading.factor(scope)


def definition_factor(binder: Pattern, bound: Expr) -> Factor:
    """The factor of one definition at the default web cap: its variables are
    the bound's free variables and the binder's, its value the bound read as
    a factor expression (`_Reading`)."""
    scope = free_vars(bound) | pattern_fv(binder)
    return _read_definitions(((binder, bound),), scope, CostCounter(), DEFAULT_WEB_CAP, {})


def factors_of(term: LetTerm, ctx: DenoteContext | None = None) -> FactorSet:
    """The factor multiset of a let-term: a table over each of its
    `factor_scopes`, in their order, reading the definitions folded into a
    scope together. The context keeps each scope's factor by the identity
    of its definitions, with the charges reading them made, which a hit
    charges again, and the output's constant factor by its variables; it
    also keeps the readings of bound expressions that a later definition
    may nest (`_Reading.record`). Either way a term's counters do not depend
    on what the context has read before."""
    if ctx is None:
        ctx = DenoteContext()
    memo = ctx.definitions
    counter = CostCounter()
    facts: list[Factor] = []
    for scope, defs in factor_scopes(term):
        if not defs:
            ones = memo.get(scope)
            if ones is None:
                ones = memo[scope] = constant_factor(scope)
            facts.append(ones)
            continue
        group = tuple(term.defs[i] for i in sorted(defs))
        hit = memo.get(id(group[-1][1]))
        if hit is None or len(hit[0]) != len(group) or not all(map(_same_definition, hit[0], group)):
            own = CostCounter()
            fac = _read_definitions(group, scope, own, ctx.web_cap, ctx.readings)
            hit = memo[id(group[-1][1])] = (group, fac, own.muladds, own.max_table)
        counter.count(hit[2], hit[3])
        facts.append(hit[1])
    return FactorSet(facts, counter)


def _same_definition(a: tuple[Pattern, Expr], b: tuple[Pattern, Expr]) -> bool:
    return a[0] is b[0] and a[1] is b[1]


def check_factor_vars(term: LetTerm) -> bool:
    """Verify the variable census of a term's factor scopes: free variables,
    plus arrow variables of the output not free in the term, plus the
    positive variables of every binder, as a disjoint union."""
    fv = free_vars(term)
    out_arrows = frozenset(v for v in pattern_fv(term.output) if v.is_arrow) - fv
    parts = [fv, out_arrows] + [frozenset(v for v in pattern_vars(b) if not v.is_arrow) for b, _ in term.defs]
    union = frozenset().union(*parts)
    scoped = frozenset().union(*(scope for scope, _ in factor_scopes(term)))
    return sum(map(len, parts)) == len(union) and scoped == union


def relation_from_factors(term: LetTerm, ctx: DenoteContext | None = None) -> Relation:
    """Rebuild a let-term's denotation from its factor set alone; the
    context's counter is charged the factor set's counters and the readout.

    Rows where a variable shared between the free variables and the output
    disagrees are zero; all other entries come from the factor product with
    the internal variables summed out.
    """
    if ctx is None:
        ctx = DenoteContext()
    fs = factors_of(term, ctx)
    rows = sorted_vars(free_vars(term))
    matrix = _readout(fs, rows, term.output, ctx.web_cap)
    fs.counter.count(table=matrix.size)
    ctx.counter.merge(fs.counter)
    return Relation(rows, pattern_type(term.output), matrix)


def _readout(fs: FactorSet, rows: tuple[Variable, ...], output: Pattern, cap: int) -> np.ndarray:
    """The factor product as a matrix from the rows' web to the output's web,
    every other variable summed out, charged to fs.counter. A row variable
    that is also in the output spans the diagonal: its output axis is a fresh
    copy tied to it by an identity factor."""
    cols = pattern_vars(output)
    g = contract(fs.factors, set(rows + cols), fs.counter, cap, bucket=True)
    names = FreshNames(v.name for v in g.vars)
    copies = {v: Variable(names.fresh(v.name), v.ty) for v in cols if v in rows}
    eyes = [Factor((v, w), np.eye(web_size(v.ty))) for v, w in copies.items()]
    axes = rows + tuple(copies.get(v, v) for v in cols)
    h = contract([g] + eyes, axes, None, cap)
    return h.table.transpose([h.vars.index(v) for v in axes]).reshape(_web(rows), -1)


# ---------------------------------------------------------------- elimination


def plan_elimination(
    scopes: Sequence[Sequence[Variable]], order: Sequence[Variable], cap: int | None = DEFAULT_WEB_CAP
) -> tuple[list[VefStep], CostCounter]:
    """Bucket elimination on the factors' variable tuples alone, making every
    check of `eliminate` in step order (a cap of None makes none against
    webs). Input factor k has key k and step j's result key -j - 1. An index
    from variables to keys finds each bucket; it keeps the keys of consumed
    factors, which the lookup skips."""
    live = dict(enumerate(scopes))
    index: dict[Variable, list[int]] = defaultdict(list)
    for k, vs in live.items():
        for v in set(vs):
            index[v].append(k)
    counter = CostCounter()
    steps: list[VefStep] = []
    for key, v in enumerate(order, start=1):
        keys = sorted(k for k in index.pop(v, ()) if k in live)
        if not keys:
            raise UnknownVariable(f"variable {v.name} not present in the factor set")
        hit = [live.pop(k) for k in keys]
        keep = set(chain.from_iterable(hit))
        keep.discard(v)
        before = counter.muladds
        out, labels, out_labels, size = _layout(hit, keep, counter, cap, True)
        steps.append(VefStep(v, len(hit), size, counter.muladds - before, keys, labels, out_labels, out))
        live[-key] = out
        for u in out:
            index[u].append(-key)
    return steps, counter


def eliminate(fs: FactorSet, order: Sequence[Variable], cap: int = DEFAULT_WEB_CAP) -> FactorSet:
    """Bucket elimination, one variable at a time: the plan, then one einsum
    per step. Each step multiplies the factors mentioning the variable and
    sums it out; the result carries fresh counters and one cost record per
    step, and lists the new factors newest first, then the untouched input
    factors, the same objects, in input order."""
    steps, counter = plan_elimination([f.vars for f in fs.factors], order, cap)
    tables: dict[int, np.ndarray] = {}
    for key, step in enumerate(steps, start=1):
        operands = [(tables.pop(k) if k < 0 else fs.factors[k].table, ls) for k, ls in zip(step.keys, step.labels)]
        tables[-key] = _einsum(operands, step.out_labels)
    used = {k for step in steps for k in step.keys}
    new = [Factor(steps[-k - 1].vars, tables[k]) for k in sorted(tables)]
    return FactorSet(new + [f for k, f in enumerate(fs.factors) if k not in used], counter, steps)


def marginal(
    fs: FactorSet,
    output: Pattern,
    cap: int = DEFAULT_WEB_CAP,
) -> np.ndarray:
    """Distribution over the output pattern's web read off a factor set: the
    factor product with every other variable summed out. A value that
    overflowed to inf or NaN raises `NonFinite`."""
    values = _readout(fs, (), output, cap).reshape(-1).copy()
    if not np.isfinite(values).all():
        raise NonFinite(f"marginal is not finite: {values}")
    return values


# ---------------------------------------------------------------- comparison and dumps


def factors_allclose(a: Factor, b: Factor) -> bool:
    """Whether two factors have the same variables and tables within TOL. A
    factor compared with itself answers as the subtraction would, from its
    finiteness, kept on it (`Factor._finite`): false for any inf or NaN entry."""
    if a is b and a._finite is None:
        object.__setattr__(a, "_finite", bool(np.isfinite(a.table).all()))
    return a._finite if a is b else a.vars == b.vars and within_tol(a.table, b.table)


def unmatched_factors(
    xs: FactorSet | Sequence[Factor], ys: FactorSet | Sequence[Factor]
) -> tuple[list[Factor], list[Factor]]:
    """The factors of each side left over once equal ones, the same variables
    and tables within TOL, are paired off."""
    left, right = [], list(ys.factors if isinstance(ys, FactorSet) else ys)
    # Only factors over the same variables can pair: each x takes the first
    # one left, in `right`'s order, whose table is close.
    unpaired: dict[tuple[Variable, ...], list[int]] = {}
    for i, g in enumerate(right):
        unpaired.setdefault(g.vars, []).append(i)
    for f in xs.factors if isinstance(xs, FactorSet) else xs:
        same = unpaired.get(f.vars, [])
        match = next((k for k, i in enumerate(same) if factors_allclose(f, right[i])), None)
        if match is None:
            left.append(f)
        else:
            same.pop(match)
    return left, [right[i] for i in sorted(i for same in unpaired.values() for i in same)]


def factor_sets_equal(xs: FactorSet | Sequence[Factor], ys: FactorSet | Sequence[Factor]) -> bool:
    """Multiset equality: match factors by variable set, then tables within TOL."""
    return unmatched_factors(xs, ys) == ([], [])


def dump_factors(fs: FactorSet | Sequence[Factor]) -> str:
    """Stable text rendering: one header line and one value line per factor."""
    from .syntax import type_str

    factors = fs.factors if isinstance(fs, FactorSet) else list(fs)
    lines = []
    for f in factors:
        head = " ".join(f"{v.name}:{type_str(v.ty)}" for v in f.vars)
        lines.append(f"factor {head if head else '(scalar)'}")
        lines.append("  " + " ".join(format(x, ".12g") for x in f.flat()))
    return "\n".join(lines)
