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
from typing import Iterable, Sequence

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
    _map_pattern,
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
    replace_defs,
    size,
    subst_free_vars,
    suffix_free_vars,
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


def apply_rule(
    term: LetTerm,
    rule: str,
    position: int,
    var: Variable | None = None,
    fresh: FreshNames | None = None,
) -> LetTerm:
    """Apply one rule at a definition index; checks the side condition and
    that the rule preserves the type and free variables of the suffix from
    that index (the definitions above it are untouched). The check costs the
    definitions the rule rewrites, not the length of the term (`_checked`)."""
    n = len(term.defs)
    binary = rule in (SWAP1, SWAP2, SWAP3, MULT)
    if position < 0 or position >= n or (binary and position + 1 >= n):
        raise TooFewDefinitions(f"rule {rule} needs {'two definitions' if binary else 'a definition'} at index {position}")

    p1, e1 = term.defs[position]

    if rule == ELIM:
        if var is None:
            raise ValueError("elim needs the variable to drop")
        if var not in pattern_fv(p1):
            raise SideConditionViolated(f"{var.name} not bound at definition {position}")
        if var in free_vars(term.suffix(position + 1)):
            raise SideConditionViolated(f"{var.name} still used after definition {position}")
        residual = pattern_remove(p1, var)
        if residual is None:
            raise SideConditionViolated(
                f"cannot drop {var.name}: the residual binder would be empty"
            )
        new_def = (residual, Let(p1, e1, pattern_to_expr(residual)))
        return _checked(term, position, 1, (new_def,), rule)

    p2, e2 = term.defs[position + 1]
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

    return _checked(term, position, 2, mid, rule)


def _checked(term: LetTerm, position: int, width: int, mid: tuple[tuple[Pattern, Expr], ...], rule: str) -> LetTerm:
    """The term with the `width` definitions at `position` replaced by `mid`,
    once the suffix from `position` passes the subject-reduction check.
    `replace_defs` types only `mid`, on top of the cached typing of the tail,
    and leaves the new suffix its typing; the old suffix has one cached once
    its term was typechecked, so the check then compares cached values."""
    after = replace_defs(term, position, width, mid)
    _subject_reduction(term.suffix(position), after.suffix(position), rule)
    return after


def _subject_reduction(before: LetTerm, after: LetTerm, rule: str) -> LetTerm:
    if typecheck(after) != typecheck(before):
        raise RewriteError(f"{rule} changed the type")
    if free_vars(after) != free_vars(before):
        raise RewriteError(f"{rule} changed the free variables")
    return after


# ---------------------------------------------------------------- guided application


def _swap_rule(term: LetTerm, position: int) -> str:
    """The swap rule that moves definition position + 1 above definition position."""
    p1, _ = term.defs[position]
    _, e2 = term.defs[position + 1]
    shared = pattern_fv(p1) & free_vars(e2)
    if not shared:
        return SWAP1
    return SWAP2 if all(not v.is_arrow for v in shared) else SWAP3


Plan = list[tuple[int, str | None, Variable | None]]
"""Rule applications in order: (position, rule or None for the applicable swap, elim variable)."""


def _apply_plan(term: LetTerm, plan: Plan, fresh: FreshNames) -> tuple[LetTerm, list[RewriteStep]]:
    steps = []
    for position, rule, var in plan:
        rule = rule or _swap_rule(term, position)
        after = apply_rule(term, rule, position, var, fresh)
        steps.append(RewriteStep(rule, position, var, term, after))
        term = after
    return term, steps


def _gather_plan(term: LetTerm, start: int, targets: frozenset[Variable], fvs: list[frozenset[Variable]]) -> Plan:
    """The rules that gather the targets into definition `start`, bottom-up.

    Scanning down from `start`: a definition not using the targets is swapped
    past the gathered one; one using them is merged with it (mult, or swap3
    when it binds an arrow, which joins the targets) and the scan goes on
    with the targets still free below it; the last definition using them is
    the bottom. `fvs` holds the free variables of every suffix."""
    plan: Plan = []
    i = start
    while targets:
        binder, bound = term.defs[i]
        if targets.isdisjoint(free_vars(bound)):
            plan.append((i, None, None))
        else:
            arrow, _ = pattern_split(binder)
            targets = targets & fvs[i + 1]
            if arrow is not None:
                targets = targets | {arrow}
            elif not targets:
                break
            plan.append((i, MULT if arrow is None else SWAP3, None))
        i += 1
    return plan[::-1]


def gather(
    term: LetTerm, targets: frozenset[Variable] | set[Variable], fresh: FreshNames | None = None
) -> tuple[LetTerm, list[RewriteStep]]:
    """Rewrite so the first definition is the merge of all definitions that
    involve the target variables (following arrow links); afterwards the
    targets occur free in the first definition's expression and nowhere later.

    Targets must be free in the term and disjoint from the output variables.
    """
    targets = frozenset(targets)
    fvs = suffix_free_vars(term)
    if not targets <= fvs[0]:
        missing = sorted(v.name for v in targets - fvs[0])
        raise UnknownVariable(f"gather targets not free in the term: {missing}")
    if targets & pattern_fv(term.output):
        raise OutputOverlap("gather targets meet the output pattern")
    if not term.is_positive:
        raise NotPositive("gathering is defined on positive terms")
    if fresh is None:
        fresh = FreshNames(collect_names(term))
    return _apply_plan(term, _gather_plan(term, 0, targets, fvs), fresh)


def eliminate_term(
    term: LetTerm, x: Variable, fresh: FreshNames | None = None
) -> tuple[LetTerm, list[RewriteStep]]:
    """Make one defined positive variable local to its definition.

    With k the first definition binding x: gather the definitions below k
    that use x (or k's arrow variable) into definition k + 1, merge it into
    k, drop x from k's binder, then swap the merged definition up past
    definitions k - 1, ..., 0."""
    if not term.is_positive:
        raise NotPositive("elimination is defined on positive terms")
    if x.is_arrow:
        raise SideConditionViolated("cannot eliminate an arrow variable directly")
    k = next((i for i, (binder, _) in enumerate(term.defs) if x in pattern_fv(binder)), None)
    if k is None:
        raise NotDefined(f"{x.name} is not defined in the term")
    if x in pattern_fv(term.output):
        raise InOutput(f"{x.name} occurs in the output pattern")
    if fresh is None:
        fresh = FreshNames(collect_names(term))
    fvs = suffix_free_vars(term)
    plan: Plan = []
    if x in fvs[k + 1]:
        arrow, _ = pattern_split(term.defs[k][0])
        targets = frozenset((x,)) if arrow is None else frozenset((x, arrow))
        plan = _gather_plan(term, k + 1, targets, fvs)
        plan.append((k, MULT if arrow is None else SWAP3, None))
    plan.append((k, ELIM, x))
    plan.extend((j, None, None) for j in range(k - 1, -1, -1))
    return _apply_plan(term, plan, fresh)


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
    def size_ok(self) -> bool:
        return self.size_after <= self.size_before + self.allowance

    @property
    def steps_ok(self) -> bool:
        return self.steps <= self.step_limit

    @property
    def ok(self) -> bool:
        return self.size_ok and self.steps_ok


def size_bound(before: LetTerm, touched: Sequence[Iterable[Variable]], after: LetTerm, steps: int) -> SizeBound:
    """The guaranteed bounds on one elimination of a variable x from `before`
    to `after`, given the variable sets of the factors of `before` that touch
    x: at most one rewrite step per definition, and size growth at most four
    per internal variable of those factors."""
    internal = set().union(*touched) - free_vars(before)
    return SizeBound(
        size_before=size(before),
        size_after=size(after),
        allowance=4 * len(internal),
        steps=steps,
        step_limit=len(before.defs),
    )


# ---------------------------------------------------------------- cleanup of administrative shapes


def simplify(term: LetTerm) -> LetTerm:
    """Remove the administrative let shapes the rewriting produces.

    Collapses lets that only rebuild their binder, flattens lets whose bound
    expression is itself a let, splits pair-against-pair lets, and inlines
    variable-for-variable bindings. The definition structure of the term stays
    intact; only the bound expressions change, and the denotation is preserved.
    Off by default everywhere; callers opt in.
    """
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
                _map_pattern(bound.binder, renamed),
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
