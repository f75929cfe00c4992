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
denotation; swaps preserve the factor multiset on the nose. No rule removes a
name from a term, and swap2's arrow variable is named `g__k` with the
smallest k free in the term's name census (`LetTerm._names`), which typing
the term leaves on it and each rule hands on: the name is fresh for the whole
term. The census also carries the last k minted, so the scan for the next
name starts past it.

`eliminate_term` makes one defined variable local: it gathers the definitions
involving the variable into one (`_gather_plan`), merges the variable's own
definition into it, and drops the variable from the merged binder. The factor
set of the result equals one elimination step on the factor set of the input
(for a barren variable, as a product), which is the bridge to classical
variable elimination.

A run (`eliminate_seq`) rewrites one `syntax.Definitions` array in place:
each rule replaces its window there and types only the new definitions, and
one let-term is built at the end. A `RewriteStep` records the windows it
replaced, not the terms around it; those are rebuilt on demand by replaying
the windows on the nearest term the trace holds, and carry the typings and
census the run held, never typed whole (`Trace.term_at`). A checker sees
each step as it is made, on the array the step left (`watching`), and so
needs no term rebuilt.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Sequence

from .errors import (
    InOutput,
    NotDefined,
    NotPositive,
    RewriteError,
    SideConditionViolated,
    TooFewDefinitions,
)
from .syntax import (
    Arrow,
    ArrowApp,
    Definitions,
    Expr,
    FreshNames,
    Lam,
    Let,
    LetTerm,
    MatApp,
    Pair,
    PLeaf,
    PPair,
    Pattern,
    Typing,
    Var,
    Variable,
    _check,
    _map_pattern,
    collect_names,
    free_vars,
    fresh_name,
    nest_vars,
    pattern_fv,
    pattern_remove,
    pattern_split,
    pattern_to_expr,
    pattern_type,
    pattern_vars,
    replace_defs,
    size,
    walk,
)

SWAP1 = "swap1"
SWAP2 = "swap2"
SWAP3 = "swap3"
MULT = "mult"
ELIM = "elim"

RULES = (SWAP1, SWAP2, SWAP3, MULT, ELIM)


@dataclass(frozen=True, eq=False, slots=True)
class RewriteStep:
    """One rule application: the rule, the definition index, the variable
    elim drops, and `edits`, the windows it replaced in the run's array
    (`syntax.Definitions`; one, unless the window replacement itself did
    more), never a whole term: its trace rebuilds `before` and `after`."""

    rule: str
    position: int
    var: Variable | None
    edits: tuple[tuple, ...]
    _trace: Trace = field(repr=False)
    _index: int = field(repr=False)

    before = property(lambda self: self._trace.term_at(self._index))
    after = property(lambda self: self._trace.term_at(self._index + 1))


@dataclass(eq=False)
class Trace:
    """A rewrite derivation: its rule applications in order, and `term_at(i)`,
    the term before step i (the final term at i = len(steps)). It holds the
    first term, the last, and the last two rebuilt (`_held`); any other is
    rebuilt from the nearest held before it by replaying the steps' edits in
    between (`Definitions.apply`, which types each window only), so it
    carries the typings and census the run held and is never typed whole."""

    steps: list[RewriteStep]
    _held: dict[int, LetTerm] = field(repr=False)

    def term_at(self, i: int) -> LetTerm:
        held, last = self._held, len(self.steps)
        t = held.get(i)
        if t is None:
            if not 0 <= i <= last:
                raise IndexError(f"no term {i} in a run of {last} steps")
            j = i - 1 if i - 1 in held else max(k for k in held if k < i)
            run = Definitions(held[j])
            for step in self.steps[j:i]:
                for edit in step.edits:
                    run.apply(edit)
            self._held = held = {k: t for k, t in held.items() if k in (0, j, last)}
            t = held[i] = run.term()
        return t


def apply_rule(term: LetTerm | Definitions, rule: str, position: int, var: Variable | None = None) -> LetTerm | Definitions:
    """Apply one rule at a definition index; checks the side condition and
    that the rule preserves the type and free variables of the suffix from
    that index (the definitions above it are untouched). A let-term is typed
    first and left as it is, and the result is a new let-term; a run's
    `Definitions` array is rewritten in place and returned. Either way the
    check costs the definitions the rule rewrites, not the length of the term
    (`_checked`). swap2 names its arrow variable `g__k`, k the smallest free
    in the census, which gains that one name."""
    n = len(term.defs)
    binary = rule in (SWAP1, SWAP2, SWAP3, MULT)
    if position < 0 or position >= n or (binary and position + 1 >= n):
        raise TooFewDefinitions(f"rule {rule} needs {'two definitions' if binary else 'a definition'} at index {position}")

    run = Definitions(term) if isinstance(term, LetTerm) else term
    p1, e1 = run.defs[position]
    minted = None

    if rule == ELIM:
        if var is None:
            raise ValueError("elim needs the variable to drop")
        if var not in pattern_fv(p1):
            raise SideConditionViolated(f"{var.name} not bound at definition {position}")
        if var in run.typings[n - position - 1][1]:
            raise SideConditionViolated(f"{var.name} still used after definition {position}")
        residual = pattern_remove(p1, var)
        if residual is None:
            raise SideConditionViolated(
                f"cannot drop {var.name}: the residual binder would be empty"
            )
        mid: tuple[tuple[Pattern, Expr], ...] = ((residual, Let(p1, e1, pattern_to_expr(residual))),)
    else:
        p2, e2 = run.defs[position + 1]
        shared = pattern_fv(p1) & free_vars(e2)

    if rule == SWAP1:
        if shared:
            raise SideConditionViolated(
                f"definitions share {sorted(v.name for v in shared)}"
            )
        mid = ((p2, e2), (p1, e1))
    elif rule == SWAP2:
        ordered = [v for v in pattern_vars(p1) if v in shared]
        if not ordered or any(v.is_arrow for v in ordered):
            raise SideConditionViolated("swap2 wants a nonempty positive shared set")
        param = nest_vars(ordered)
        # Every g__j up to the last one minted on the way here is taken.
        minted = fresh_name("g", run.names, run.minted + 1)
        fn = Variable(minted, Arrow(pattern_type(param), _check(e2)[0]))
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
    elif rule != ELIM:
        raise ValueError(f"unknown rule {rule!r}")

    _checked(run, position, 2 if binary else 1, mid, rule, minted)
    return run if run is term else run.term()


def _checked(run: Definitions, position: int, width: int, mid: tuple, rule: str, minted: str | None = None) -> None:
    """Replace the `width` definitions at `position` by `mid` in place
    (`replace_defs`, which types only `mid`), then check the suffix from
    `position`: its typing before and after. `minted` is `mid`'s new name."""
    before = run.typings[len(run.defs) - position]
    replace_defs(run, position, width, mid, minted)
    _subject_reduction(before, run.typings[len(run.defs) - position], rule)


def _subject_reduction(before: Typing, after: Typing, rule: str) -> None:
    if after[0] is not before[0]:
        raise RewriteError(f"{rule} changed the type")
    if after[1] != before[1]:
        raise RewriteError(f"{rule} changed the free variables")


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


def _gather_plan(run: Definitions, start: int, targets: frozenset[Variable]) -> Plan:
    """The rules that gather the targets into definition `start`, bottom-up.

    Scanning down from `start`: a definition not using the targets is swapped
    past the gathered one; one using them is merged with it (mult, or swap3
    when it binds an arrow, which joins the targets) and the scan goes on
    with the targets still free below it; the last definition using them is
    the bottom. The array's typings give the free variables of every suffix."""
    plan: Plan = []
    i = start
    while targets:
        binder, bound = run.defs[i]
        if targets.isdisjoint(free_vars(bound)):
            plan.append((i, None, None))
        else:
            arrow, _ = pattern_split(binder)
            targets = targets & run.typings[len(run.defs) - i - 1][1]
            if arrow is not None:
                targets = targets | {arrow}
            elif not targets:
                break
            plan.append((i, MULT if arrow is None else SWAP3, None))
        i += 1
    return plan[::-1]


def eliminate_term(term: LetTerm, x: Variable) -> tuple[LetTerm, list[RewriteStep]]:
    """Make one defined positive variable local to its definition.

    With k the first definition binding x: gather the definitions below k
    that use x (or k's arrow variable) into definition k + 1, merge it into
    k, drop x from k's binder, then swap the merged definition up past
    definitions k - 1, ..., 0.

    When x is barren (nothing below k uses it) and k binds x alone, dropping
    x would leave an empty binder, so k is first merged with a neighbour: the
    next definition (mult), or for the last definition the ones above it
    (mult, or swap3 for one binding an arrow) until the binder holds more
    than x. The neighbour's factor absorbs the scalar that summing out x's
    factor gives, so the factor set matches one vef step as a product, not
    as a multiset."""
    final, trace = eliminate_seq(term, (x,))
    return final, trace.steps


_watchers: list[Callable[[Definitions, RewriteStep], None]] = []


@contextmanager
def watching(see: Callable[[Definitions, RewriteStep], None]) -> Iterator[None]:
    """Within the block, every run (`eliminate_seq`) calls `see(run, step)`
    on each step as it is made, `run` the array the step has just rewritten:
    a checker reads the step's window there, and the run builds no term for
    it. The array is the run's own, valid only during the call."""
    _watchers.append(see)
    try:
        yield
    finally:
        _watchers.pop()


def eliminate_seq(term: LetTerm, order: Sequence[Variable]) -> tuple[LetTerm, Trace]:
    """Eliminate several variables left to right (`eliminate_term`), on one
    `Definitions` array that every rule rewrites in place; the result is
    the one let-term built at the end. swap2's names are fresh for the whole
    run: `g__1`, `g__2`, ... in step order. Each step is shown to the
    innermost `watching` block, if any."""
    trace, run, see = Trace([], {0: term}), None, _watchers[-1] if _watchers else None
    for x in order:
        if not term.is_positive:
            raise NotPositive("elimination is defined on positive terms")
        if x.is_arrow:
            raise SideConditionViolated("cannot eliminate an arrow variable directly")
        k = next((i for i, (binder, _) in enumerate((run or term).defs) if x in pattern_fv(binder)), None)
        if k is None:
            raise NotDefined(f"{x.name} is not defined in the term")
        if x in pattern_fv(term.output):
            raise InOutput(f"{x.name} occurs in the output pattern")
        run = run or Definitions(term)
        plan: Plan = []
        if x in run.typings[len(run.defs) - k - 1][1]:
            arrow, _ = pattern_split(run.defs[k][0])
            targets = frozenset((x,)) if arrow is None else frozenset((x, arrow))
            plan = _gather_plan(run, k + 1, targets)
            plan.append((k, MULT if arrow is None else SWAP3, None))
        elif isinstance(run.defs[k][0], PLeaf):
            if k + 1 < len(run.defs):
                plan.append((k, MULT, None))
            else:
                for k in range(k - 1, -1, -1):
                    arrow, positive = pattern_split(run.defs[k][0])
                    plan.append((k, MULT if arrow is None else SWAP3, None))
                    if positive is not None:
                        break
        plan.append((k, ELIM, x))
        plan.extend((j, None, None) for j in range(k - 1, -1, -1))
        for position, rule, var in plan:
            rule = rule or _swap_rule(run, position)
            apply_rule(run, rule, position, var)
            trace.steps.append(RewriteStep(rule, position, var, tuple(run.edits), trace, len(trace.steps)))
            run.edits.clear()
            if see is not None:
                see(run, trace.steps[-1])
    final = trace._held[len(trace.steps)] = run.term() if run else term
    return final, trace


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
    """Remove the administrative let shapes the rewriting produces: lets
    that only rebuild their binder, lets in bound position, pair binders
    against pairs, and variables bound to variables, in one walk per bound
    expression (`_flatten`). The definitions' binders and the output stay,
    and so does the denotation. Off by default everywhere; callers opt in."""
    fresh = FreshNames(collect_names(term))
    scope = {v.name for v in free_vars(term)}
    defs = []
    for binder, bound in term.defs:
        defs.append((binder, _flatten(bound, scope, fresh)))
        scope.update(v.name for v in pattern_vars(binder))
    return LetTerm(tuple(defs), term.output)


def _flatten(e: Expr, scope: set[str], fresh: FreshNames) -> Expr:
    """`e` in normal form. A let joins the spine (flat list of definitions)
    around it: its bound's lets, its binder against the bound's result
    (`bind`), its body's lets; a body that only rebuilds the binder, or a part
    bound last, gives way to that part's bound. Pair components and lambda
    bodies keep their own spines. Binders that stay are renamed apart from
    `scope` while in scope, so none captures and substitution is a map (`env`).
    A `visit` yields its children to `syntax.walk`, so nesting costs no
    Python recursion."""
    env: dict[str, Variable | None] = {}
    undo: list[tuple[str, Variable | None]] = []
    added: list[str] = []
    hidden: set[str] = set()  # names bound inside a lambda, out of scope again

    def apart(v: Variable) -> Variable:
        w = Variable(fresh.fresh(v.name), v.ty) if v.name in scope else v
        scope.add(w.name)
        added.append(w.name)
        return w

    def rename(p: Pattern, to: Variable | None = None) -> Pattern:
        for v in pattern_vars(p):
            undo.append((v.name, env.get(v.name)))
            env[v.name] = to or apart(v)
        return _map_pattern(p, env)

    def substitute(node: Expr, spine: list) -> Expr:
        if isinstance(node, Var):
            return Var(env.get(node.var.name) or node.var)
        args = node.args if isinstance(node, MatApp) else pattern_vars(node.args)
        sub: dict[str, Variable] = {}
        for v in args:
            w = env.get(v.name) or v
            if w in sub.values():
                # Applications take distinct variables: keep this one's let.
                spine.append((PLeaf(apart(v)), Var(w)))
                w = spine[-1][0].var
            sub[v.name] = w
        if isinstance(node, MatApp):
            return MatApp(node.matrix, tuple(sub[v.name] for v in args))
        return ArrowApp(env.get(node.fn.name) or node.fn, _map_pattern(node.args, sub))

    def bind(p: Pattern, r: Expr, spine: list, parts: list) -> None:
        # Records each part's bound and the spine and names its binding took.
        at, start, named = len(parts), len(spine), len(added)
        parts.append(None)
        if isinstance(p, PPair) and isinstance(r, Pair):
            # The left part's binders scope over the right component, whose
            # lambdas were walked first: hold the names those bind until both
            # parts are named (a pattern's variables are distinct).
            held = hidden.intersection(v.name for v in pattern_vars(p.left)) - scope
            held = held and held & collect_names(r.snd)
            scope.update(held)
            for part, component in ((p.left, r.fst), (p.right, r.snd)):
                while isinstance(component, Let):
                    spine.append((component.binder, component.bound))
                    component = component.body
                bind(part, component, spine, parts)
            scope.difference_update(held)
        elif isinstance(p, PLeaf) and isinstance(r, Var):
            rename(p, r.var)
        else:
            spine.append((rename(p), r))
        parts[at] = (p, r, start, len(spine), added[named:])

    def visit(node_spine: tuple[Expr, list]):
        node, spine = node_spine
        mark, named, body = len(undo), len(added), None
        if isinstance(node, Let):
            parts: list = []
            bind(node.binder, (yield node.bound, spine), spine, parts)
            body = yield node.body, spine
            for p, r, start, end, names in parts:
                if end == len(spine) and _rebuilds(body, p, env):
                    del spine[start:]
                    scope.difference_update(names)
                    body = r
                    break
        elif isinstance(node, Pair):
            fst, snd = [], []
            body = Pair(_close(fst, (yield node.fst, fst)), _close(snd, (yield node.snd, snd)))
        elif isinstance(node, Lam):
            param, inner = rename(node.param), []
            body = Lam(param, _close(inner, (yield node.body, inner)))
            scope.difference_update(added[named:])
            hidden.update(added[named:])
        while len(undo) > mark:
            name, old = undo.pop()
            env[name] = old
        result = substitute(node, spine) if body is None else body
        _check(result)
        return result

    top: list = []
    result = walk((e, top), visit)
    scope.difference_update(added)
    return _close(top, result)


def _close(spine: list, result: Expr) -> Expr:
    """Right-nested lets, each typed as built; a last definition that the
    result only rebuilds gives way to its bound."""
    while spine and _rebuilds(result, spine[-1][0], {}):
        result = spine.pop()[1]
    for binder, bound in reversed(spine):
        result = Let(binder, bound, result)
        _check(result)
    return result


def _rebuilds(e: Expr, p: Pattern, env: dict) -> bool:
    """Whether `e` is the variable tree of `p`, its variables looked up in `env`."""
    if isinstance(p, PLeaf):
        return isinstance(e, Var) and e.var == (env.get(p.var.name) or p.var)
    assert isinstance(p, PPair)
    return isinstance(e, Pair) and _rebuilds(e.fst, p.left, env) and _rebuilds(e.snd, p.right, env)
