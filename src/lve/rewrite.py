"""Variable elimination as term rewriting.

Five rules act on the first definition (and, for the binary rules, the one
after it) at a given position in a let-term:

  swap1  reorder two independent definitions
  swap2  when the second definition uses positive variables bound by the
         first, abstract it into a fresh arrow variable applied to them,
         letting the abstraction move above the first definition
  swap3  when the first definition binds an arrow variable the second uses,
         merge the two into one definition binding the pair
  mult   merge two definitions into one binding the pair (first binder positive)
  elim   drop a variable nothing downstream uses from a binder, summing it
         inside the definition

Every application preserves the term's type and free variables and its
denotation; swaps preserve the factor multiset on the nose.

`eliminate_term` makes one defined variable local: it gathers the definitions
involving the variable into one (via `gather`), merges the variable's own
definition into it, and drops the variable from the merged binder. The factor
set of the result equals one elimination step on the factor set of the input,
which is the bridge to classical variable elimination.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from .errors import (
    BinderCapture,
    InOutput,
    NotDefined,
    NotPositive,
    OutputOverlap,
    RewriteError,
    SideConditionViolated,
    TooFewDefinitions,
    UnknownVariable,
)
from .factors import factors_of, partition
from .syntax import (
    Arrow,
    ArrowApp,
    Expr,
    FreshNames,
    Lam,
    Let,
    LetTerm,
    Pair,
    PLeaf,
    PPair,
    Pattern,
    Variable,
    collect_names,
    expr_to_pattern,
    free_vars,
    nest_vars,
    pattern_fv,
    pattern_remove,
    pattern_split,
    pattern_to_expr,
    pattern_type,
    pattern_vars,
    size,
    subst_free_vars,
    typecheck,
)

SWAP1 = "swap1"
SWAP2 = "swap2"
SWAP3 = "swap3"
MULT = "mult"
ELIM = "elim"

RULES = (SWAP1, SWAP2, SWAP3, MULT, ELIM)


@dataclass(frozen=True)
class RewriteStep:
    """One rule application: the rule, the definition index, and both terms."""

    rule: str
    position: int
    var: Variable | None
    before: LetTerm
    after: LetTerm


@dataclass
class Trace:
    """A rewrite derivation with the term recorded after each elimination."""

    initial: LetTerm
    steps: list[RewriteStep] = field(default_factory=list)
    checkpoints: list[tuple[Variable, LetTerm]] = field(default_factory=list)

    @property
    def final(self) -> LetTerm:
        return self.steps[-1].after if self.steps else self.initial


def _suffix(term: LetTerm, position: int) -> LetTerm:
    return LetTerm(term.defs[position:], term.output)


def apply_rule(
    term: LetTerm,
    rule: str,
    position: int,
    var: Variable | None = None,
    fresh: FreshNames | None = None,
) -> LetTerm:
    """Apply one rule at a definition index; checks the side condition and
    that type and free variables are preserved."""
    n = len(term.defs)
    binary = rule in (SWAP1, SWAP2, SWAP3, MULT)
    if position < 0 or position >= n or (binary and position + 1 >= n):
        raise TooFewDefinitions(f"rule {rule} needs {'two definitions' if binary else 'a definition'} at index {position}")

    before_defs = term.defs[:position]
    p1, e1 = term.defs[position]

    if rule == ELIM:
        if var is None:
            raise ValueError("elim needs the variable to drop")
        if var not in pattern_fv(p1):
            raise SideConditionViolated(f"{var.name} not bound at definition {position}")
        rest = _suffix(term, position + 1)
        if var in free_vars(rest):
            raise SideConditionViolated(f"{var.name} still used after definition {position}")
        residual = pattern_remove(p1, var)
        if residual is None:
            raise SideConditionViolated(
                f"cannot drop {var.name}: the residual binder would be empty"
            )
        new_def = (residual, Let(p1, e1, pattern_to_expr(residual)))
        result = LetTerm(before_defs + (new_def,) + term.defs[position + 1 :], term.output)
        return _subject_reduction(term, result, rule)

    p2, e2 = term.defs[position + 1]
    after_defs = term.defs[position + 2 :]
    shared = pattern_fv(p1) & free_vars(e2)

    if rule == SWAP1:
        if shared:
            raise SideConditionViolated(
                f"definitions share {sorted(v.name for v in shared)}"
            )
        mid: tuple[tuple[Pattern, Expr], ...] = ((p2, e2), (p1, e1))
    elif rule == SWAP2:
        ordered = [v for v in pattern_vars(p1) if v in shared]
        if not ordered or any(v.is_arrow for v in ordered):
            raise SideConditionViolated("swap2 wants a nonempty positive shared set")
        if fresh is None:
            fresh = FreshNames(collect_names(term))
        param = nest_vars(ordered)
        fn = Variable(fresh.fresh("g"), Arrow(pattern_type(param), typecheck(e2)))
        mid = (
            (PLeaf(fn), Lam(param, e2)),
            (p1, e1),
            (p2, ArrowApp(fn, param)),
        )
    elif rule == SWAP3:
        arrow, positive = pattern_split(p1)
        if arrow is None or arrow not in free_vars(e2):
            raise SideConditionViolated("swap3 wants the first binder's arrow variable used next")
        if positive is None:
            mid = ((p2, Let(p1, e1, e2)),)
        else:
            mid = ((PPair(positive, p2), Let(p1, e1, Pair(pattern_to_expr(positive), e2))),)
    elif rule == MULT:
        if any(v.is_arrow for v in pattern_vars(p1)):
            raise SideConditionViolated("mult wants a positive first binder")
        mid = ((PPair(p1, p2), Let(p1, e1, Pair(pattern_to_expr(p1), e2))),)
    else:
        raise ValueError(f"unknown rule {rule!r}")

    result = LetTerm(before_defs + mid + after_defs, term.output)
    return _subject_reduction(term, result, rule)


def _subject_reduction(before: LetTerm, after: LetTerm, rule: str) -> LetTerm:
    if typecheck(after) != typecheck(before):
        raise RewriteError(f"{rule} changed the type")
    if free_vars(after) != free_vars(before):
        raise RewriteError(f"{rule} changed the free variables")
    return after


# ---------------------------------------------------------------- guided application


def swap_first(term: LetTerm, fresh: FreshNames | None = None) -> tuple[LetTerm, RewriteStep]:
    """Move the second definition above the first with the applicable swap rule."""
    if len(term.defs) < 2:
        raise TooFewDefinitions("swapping needs two definitions")
    p1, _ = term.defs[0]
    _, e2 = term.defs[1]
    shared = pattern_fv(p1) & free_vars(e2)
    if not shared:
        rule = SWAP1
    elif all(not v.is_arrow for v in shared):
        rule = SWAP2
    else:
        rule = SWAP3
    after = apply_rule(term, rule, 0, fresh=fresh)
    return after, RewriteStep(rule, 0, None, term, after)


def _prepend(term: LetTerm, d: tuple[Pattern, Expr]) -> LetTerm:
    return LetTerm((d,) + term.defs, term.output)


def _lift(steps: Sequence[RewriteStep], d: tuple[Pattern, Expr]) -> list[RewriteStep]:
    return [
        RewriteStep(s.rule, s.position + 1, s.var, _prepend(s.before, d), _prepend(s.after, d))
        for s in steps
    ]


def gather(
    term: LetTerm, targets: frozenset[Variable] | set[Variable], fresh: FreshNames | None = None
) -> tuple[LetTerm, list[RewriteStep]]:
    """Rewrite so the first definition is the merge of all definitions that
    involve the target variables (following arrow links); afterwards the
    targets occur free in the first definition's expression and nowhere later.

    Targets must be free in the term and disjoint from the output variables.
    """
    targets = frozenset(targets)
    if not targets <= free_vars(term):
        missing = sorted(v.name for v in targets - free_vars(term))
        raise UnknownVariable(f"gather targets not free in the term: {missing}")
    if targets & pattern_fv(term.output):
        raise OutputOverlap("gather targets meet the output pattern")
    if not term.is_positive:
        raise NotPositive("gathering is defined on positive terms")
    if fresh is None:
        fresh = FreshNames(collect_names(term))
    return _gather(term, targets, fresh)


def _gather(
    term: LetTerm, targets: frozenset[Variable], fresh: FreshNames
) -> tuple[LetTerm, list[RewriteStep]]:
    if not targets:
        return term, []
    p1, e1 = term.defs[0]
    tail = term.tail()
    if not targets & free_vars(e1):
        inner, steps = _gather(tail, targets, fresh)
        lifted = _lift(steps, (p1, e1))
        cur = _prepend(inner, (p1, e1))
        after, step = swap_first(cur, fresh)
        return after, lifted + [step]
    arrow, _ = pattern_split(p1)
    down = targets & free_vars(tail)
    if arrow is not None:
        down = down | {arrow}
    elif not down:
        return term, []
    inner, steps = _gather(tail, down, fresh)
    lifted = _lift(steps, (p1, e1))
    cur = _prepend(inner, (p1, e1))
    rule = MULT if arrow is None else SWAP3
    after = apply_rule(cur, rule, 0, fresh=fresh)
    return after, lifted + [RewriteStep(rule, 0, None, cur, after)]


def eliminate_term(
    term: LetTerm, x: Variable, fresh: FreshNames | None = None
) -> tuple[LetTerm, list[RewriteStep]]:
    """Make one defined positive variable local to its definition."""
    if not term.is_positive:
        raise NotPositive("elimination is defined on positive terms")
    if x.is_arrow:
        raise SideConditionViolated("cannot eliminate an arrow variable directly")
    if x not in term.defined_vars():
        raise NotDefined(f"{x.name} is not defined in the term")
    if x in pattern_fv(term.output):
        raise InOutput(f"{x.name} occurs in the output pattern")
    if fresh is None:
        fresh = FreshNames(collect_names(term))
    return _eliminate(term, x, fresh)


def _eliminate(term: LetTerm, x: Variable, fresh: FreshNames) -> tuple[LetTerm, list[RewriteStep]]:
    p1, e1 = term.defs[0]
    tail = term.tail()
    if x not in pattern_fv(p1):
        inner, steps = _eliminate(tail, x, fresh)
        lifted = _lift(steps, (p1, e1))
        cur = _prepend(inner, (p1, e1))
        after, step = swap_first(cur, fresh)
        return after, lifted + [step]
    if x not in free_vars(tail):
        after = apply_rule(term, ELIM, 0, var=x)
        return after, [RewriteStep(ELIM, 0, x, term, after)]
    arrow, _ = pattern_split(p1)
    targets = frozenset((x,)) if arrow is None else frozenset((x, arrow))
    inner, steps = _gather(tail, targets, fresh)
    lifted = _lift(steps, (p1, e1))
    cur = _prepend(inner, (p1, e1))
    rule = MULT if arrow is None else SWAP3
    merged = apply_rule(cur, rule, 0, fresh=fresh)
    steps2 = lifted + [RewriteStep(rule, 0, None, cur, merged)]
    after = apply_rule(merged, ELIM, 0, var=x)
    return after, steps2 + [RewriteStep(ELIM, 0, x, merged, after)]


def eliminate_seq(term: LetTerm, order: Sequence[Variable]) -> tuple[LetTerm, Trace]:
    """Eliminate several variables left to right, sharing one fresh-name supply."""
    fresh = FreshNames(collect_names(term))
    trace = Trace(term)
    cur = term
    for x in order:
        cur, steps = eliminate_term(cur, x, fresh)
        trace.steps.extend(steps)
        trace.checkpoints.append((x, cur))
    return cur, trace


# ---------------------------------------------------------------- bounds


@dataclass
class SizeBound:
    size_before: int
    size_after: int
    allowance: int
    steps: int
    step_limit: int

    @property
    def ok(self) -> bool:
        return (
            self.size_after <= self.size_before + self.allowance
            and self.steps <= self.step_limit
        )


def size_bound_check(term: LetTerm, x: Variable) -> SizeBound:
    """Eliminate one variable and compare growth and step count against the
    guaranteed bounds: at most one rewrite step per definition, and size growth
    at most four per internal variable of the factors touching x."""
    touched, _ = partition(factors_of(term).factors, {x})
    internal: set[Variable] = set()
    for f in touched:
        internal.update(f.vars)
    internal -= free_vars(term)
    after, steps = eliminate_term(term, x)
    return SizeBound(
        size_before=size(term),
        size_after=size(after),
        allowance=4 * len(internal),
        steps=len(steps),
        step_limit=len(term.defs),
    )


# ---------------------------------------------------------------- cleanup of administrative shapes


def simplify(term: LetTerm, fresh: FreshNames | None = None) -> LetTerm:
    """Remove the administrative let shapes the rewriting produces.

    Collapses lets that only rebuild their binder, flattens lets whose bound
    expression is itself a let, splits pair-against-pair lets, and inlines
    variable-for-variable bindings. The definition structure of the term stays
    intact; only the bound expressions change, and the denotation is preserved.
    Off by default everywhere; callers opt in.
    """
    if fresh is None:
        fresh = FreshNames(collect_names(term))
    defs = tuple((binder, _simplify_expr(bound, fresh)) for binder, bound in term.defs)
    return LetTerm(defs, term.output)


def _simplify_expr(e: Expr, fresh: FreshNames) -> Expr:
    for _ in range(200):
        reduced = _simplify_pass(e, fresh)
        if reduced == e:
            return e
        e = reduced
    return e


def _simplify_pass(e: Expr, fresh: FreshNames) -> Expr:
    if isinstance(e, Pair):
        return Pair(_simplify_pass(e.fst, fresh), _simplify_pass(e.snd, fresh))
    if isinstance(e, Lam):
        return Lam(e.param, _simplify_pass(e.body, fresh))
    if not isinstance(e, Let):
        return e
    bound = _simplify_pass(e.bound, fresh)
    body = _simplify_pass(e.body, fresh)

    # let p = b in p  ->  b
    if body == pattern_to_expr(e.binder):
        return bound

    # let p = (vars shaped like p) in body  ->  body[p := vars]
    as_pat = expr_to_pattern(bound)
    if as_pat is not None:
        sub = _pattern_match(e.binder, as_pat)
        if sub is not None:
            try:
                return subst_free_vars(body, sub)
            except BinderCapture:
                pass

    # let p = (let q = a in r) in body  ->  let q = a in (let p = r in body)
    if isinstance(bound, Let):
        q_names = {v.name for v in pattern_vars(bound.binder)}
        outside = {v.name for v in pattern_vars(e.binder)} | {
            v.name for v in free_vars(body)
        }
        inner_let = bound
        if q_names & outside:
            sub = {
                v.name: Variable(fresh.fresh(v.name), v.ty)
                for v in pattern_vars(bound.binder)
                if v.name in outside
            }
            renamed = {v.name: sub.get(v.name, v) for v in pattern_vars(bound.binder)}
            inner_let = Let(
                _map_binder(bound.binder, renamed),
                bound.bound,
                subst_free_vars(bound.body, {k: v for k, v in sub.items()}),
            )
        return Let(inner_let.binder, inner_let.bound, Let(e.binder, inner_let.body, body))

    # let (pl, pr) = (el, er) in body  ->  let pl = el in let pr = er in body
    if isinstance(e.binder, PPair) and isinstance(bound, Pair):
        pl, pr = e.binder.left, e.binder.right
        capture = {v.name for v in pattern_fv(pl)} & {v.name for v in free_vars(bound.snd)}
        if not capture:
            return Let(pl, bound.fst, Let(pr, bound.snd, body))

    return Let(e.binder, bound, body)


def _pattern_match(p: Pattern, q: Pattern) -> dict[str, Variable] | None:
    """Map p's leaves to q's when the trees have the same shape and types."""
    if isinstance(p, PLeaf) and isinstance(q, PLeaf):
        if p.var.ty != q.var.ty:
            return None
        return {p.var.name: q.var}
    if isinstance(p, PPair) and isinstance(q, PPair):
        left = _pattern_match(p.left, q.left)
        right = _pattern_match(p.right, q.right)
        if left is None or right is None:
            return None
        left.update(right)
        return left
    return None


def _map_binder(p: Pattern, env: dict[str, Variable]) -> Pattern:
    if isinstance(p, PLeaf):
        return PLeaf(env.get(p.var.name, p.var))
    assert isinstance(p, PPair)
    return PPair(_map_binder(p.left, env), _map_binder(p.right, env))
