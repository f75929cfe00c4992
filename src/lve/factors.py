"""Factors over finite-web variables and variable elimination on factor sets.

A factor pairs a variable set with a nonnegative table over that set's web;
tables are dense numpy arrays with one axis per variable, axes sorted by
variable name, so the C-order flattening is the canonical web enumeration.
Elimination of a variable multiplies the factors mentioning it and sums it
out. A let-term induces a factor set with one factor per definition plus a
constant factor on the output variables, and the term's denotation is
recovered by multiplying everything and summing the internal variables.
Which variables each factor spans, and which arrow definitions fold into
their consumer, is decided from the types alone by `syntax.factor_scopes`;
`factors_of` only fills in the tables.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field
from itertools import chain
from typing import Iterable, Sequence

import numpy as np

from .cost import DEFAULT_WEB_CAP, CostCounter
from .denote import DenoteContext, Relation, denote
from .errors import (
    BinderCapture,
    InvalidAxes,
    NonFinite,
    SharedVarTypeMismatch,
    UnknownVariable,
    WebCapExceeded,
)
from .syntax import (
    TOL,
    Expr,
    FreshNames,
    LetTerm,
    Pattern,
    Variable,
    factor_scopes,
    free_vars,
    pattern_fv,
    pattern_split,
    pattern_type,
    pattern_vars,
    web_size,
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

    def __post_init__(self) -> None:
        if list(self.vars) != sorted(self.vars, key=lambda v: v.name):
            raise InvalidAxes(f"factor axes {[v.name for v in self.vars]} are not sorted by name")
        arr = np.asarray(self.table, dtype=float)
        dims = tuple(web_size(v.ty) for v in self.vars)
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


@dataclass
class VefStep:
    """Cost record of one elimination step."""

    var: Variable
    group_size: int
    product_table: int
    muladds: int


@dataclass
class FactorSet:
    """An ordered multiset of factors plus accumulated operation counts."""

    factors: list[Factor]
    counter: CostCounter = field(default_factory=CostCounter)
    steps: list[VefStep] = field(default_factory=list)

    def vars(self) -> frozenset[Variable]:
        out: set[Variable] = set()
        for f in self.factors:
            out.update(f.vars)
        return frozenset(out)

    def __len__(self) -> int:
        return len(self.factors)


# ---------------------------------------------------------------- factor algebra

_MAX_OPERANDS = 31
"""Arrays per einsum call, as numpy 1.x takes 32 counting the output; a
contraction over more factors runs in chunks."""

_MAX_LABELS = 52
"""Integer sublists label einsum axes with range(52)."""


def _web(vs: Iterable[Variable]) -> int:
    return math.prod(web_size(v.ty) for v in vs)


def contract(
    factors: Sequence[Factor],
    keep: Iterable[Variable],
    counter: CostCounter | None = None,
    cap: int = DEFAULT_WEB_CAP,
) -> Factor:
    """The product of the factors with every variable outside `keep` summed
    out, by np.einsum without materializing the product; the empty product is
    the scalar 1. Every kept variable must occur in some factor.

    The cap applies to the result only. The counter is charged, from shapes,
    what multiplying the factors pairwise in list order and then summing out
    costs: each fold the web of the union so far, as multiply-adds and as a
    table; the sum the product's web as multiply-adds and the result's web as
    a table.
    """
    union: dict[str, Variable] = {}
    webs: list[int] = []
    size = 1
    for f in factors:
        for v, d in zip(f.vars, f.table.shape):
            if v.name not in union:
                union[v.name] = v
                size *= d
            elif union[v.name].ty != v.ty:
                raise SharedVarTypeMismatch(f"variable {v.name} carried two types")
        webs.append(size)
    keep = set(keep)
    out = sorted_vars(v for v in union.values() if v in keep)
    if len(out) < len(keep):
        raise UnknownVariable(f"kept variables {sorted(v.name for v in keep - set(out))} are in no factor")
    out_size = _web(out)
    check_web_cap(out_size, cap)
    if len(union) > _MAX_LABELS:
        raise WebCapExceeded(f"contraction over {len(union)} variables, einsum takes {_MAX_LABELS}")
    label = {name: i for i, name in enumerate(union)}
    operands = [(f.table, [label[v.name] for v in f.vars]) for f in factors]
    out_labels = [label[v.name] for v in out]
    while len(operands) > _MAX_OPERANDS:
        head, operands = operands[:_MAX_OPERANDS], operands[_MAX_OPERANDS:]
        later = set(out_labels).union(*(labels for _, labels in operands))
        kept = sorted(set().union(*(labels for _, labels in head)) & later)
        operands.insert(0, (np.einsum(*chain.from_iterable(head), kept), kept))
    table = np.einsum(*chain.from_iterable(operands), out_labels) if operands else np.ones(())
    if counter is not None:
        for web in webs[1:]:
            counter.count(muladds=web, table=web)
        if len(out) < len(union):
            counter.count(muladds=size, table=out_size)
    return Factor(out, table)


# ---------------------------------------------------------------- factors of a let-term


def definition_factor(
    binder: Pattern,
    bound: Expr,
    ctx: DenoteContext | None = None,
    counter: CostCounter | None = None,
) -> Factor:
    """The factor of one definition: its variables are the free variables of
    the expression plus the binder's variables, its value the denotation entry."""
    if ctx is None:
        ctx = DenoteContext()
    fve = free_vars(bound)
    pv = pattern_fv(binder)
    if fve & pv:
        raise BinderCapture(
            f"binder variables {sorted(v.name for v in fve & pv)} occur free in the definition"
        )
    rel = denote(bound, ctx)
    # A denotation's rows range over exactly the free variables, sorted, so
    # the matrix reshapes to one axis per variable.
    axes = rel.vars + pattern_vars(binder)
    union = sorted_vars(axes)
    table = rel.matrix.reshape([web_size(v.ty) for v in axes]).transpose([axes.index(v) for v in union])
    if counter is not None:
        counter.count(table=table.size)
    return Factor(union, table)


def factors_of(term: LetTerm, ctx: DenoteContext | None = None) -> FactorSet:
    """The factor multiset of a let-term: a table over each of its
    `factor_scopes`, in their order; an arrow definition folded into a scope
    multiplies in its table and sums the arrow out on the spot."""
    if ctx is None:
        ctx = DenoteContext()
    counter = CostCounter()
    facts: list[Factor] = []
    for scope, defs in factor_scopes(term):
        tables = [definition_factor(*term.defs[i], ctx, counter) for i in defs]
        fac = tables[0] if tables else constant_factor(scope)
        for i, folded in zip(defs[1:], tables[1:]):
            # The fold charges its product's web once and peaks at its result.
            union = set(folded.vars + fac.vars)
            fac = contract([folded, fac], union - {pattern_split(term.defs[i][0])[0]}, None, ctx.web_cap)
            counter.count(muladds=_web(union), table=fac.table.size)
        facts.append(fac)
    return FactorSet(facts, counter)


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
    """Rebuild a let-term's denotation from its factor set alone.

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
    if len(fs.factors) > 1:
        check_web_cap(_web(fs.vars()), cap)
    g = contract(fs.factors, set(rows + cols), fs.counter, cap)
    names = FreshNames(v.name for v in g.vars)
    copies = {v: Variable(names.fresh(v.name), v.ty) for v in cols if v in rows}
    eyes = [Factor((v, w), np.eye(web_size(v.ty))) for v, w in copies.items()]
    axes = rows + tuple(copies.get(v, v) for v in cols)
    h = contract([g] + eyes, axes, None, cap)
    return h.table.transpose([h.vars.index(v) for v in axes]).reshape(_web(rows), -1)


# ---------------------------------------------------------------- elimination


def eliminate(
    fs: FactorSet,
    order: Sequence[Variable],
    cap: int = DEFAULT_WEB_CAP,
) -> FactorSet:
    """Bucket elimination, one variable at a time.

    Each step multiplies the factors mentioning the variable and sums it out;
    the result set carries fresh counters and one cost record per step. An
    index from variables to factor keys finds each bucket; it keeps the keys
    of consumed factors, which the lookup skips. A new factor's key is below
    every older one, so the result lists factors newest first, then the
    untouched input factors in input order.
    """
    facts = dict(enumerate(fs.factors))
    index: dict[Variable, set[int]] = defaultdict(set)
    for k, f in facts.items():
        for v in f.vars:
            index[v].add(k)
    counter = CostCounter()
    steps: list[VefStep] = []
    for key, v in enumerate(order, start=1):
        hit = [facts.pop(k) for k in sorted(index.pop(v, ())) if k in facts]
        if not hit:
            raise UnknownVariable(f"variable {v.name} not present in the factor set")
        keep = set(chain.from_iterable(f.vars for f in hit)) - {v}
        size = _web(keep) * web_size(v.ty)
        if len(hit) > 1:
            check_web_cap(size, cap)
        before = counter.muladds
        summed = contract(hit, keep, counter, cap)
        steps.append(VefStep(v, len(hit), size, counter.muladds - before))
        facts[-key] = summed
        for u in summed.vars:
            index[u].add(-key)
    return FactorSet([facts[k] for k in sorted(facts)], counter, steps)


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
    return a.vars == b.vars and bool(np.max(np.abs(a.table - b.table), initial=0.0) <= TOL)


def unmatched_factors(
    xs: FactorSet | Sequence[Factor], ys: FactorSet | Sequence[Factor]
) -> tuple[list[Factor], list[Factor]]:
    """The factors of each side left over once equal ones, the same variables
    and tables within TOL, are paired off."""
    left, right = [], list(ys.factors if isinstance(ys, FactorSet) else ys)
    for f in xs.factors if isinstance(xs, FactorSet) else xs:
        match = next((i for i, g in enumerate(right) if factors_allclose(f, g)), None)
        if match is None:
            left.append(f)
        else:
            right.pop(match)
    return left, right


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
