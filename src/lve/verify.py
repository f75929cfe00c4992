"""Cross-checks between the three semantics and the two elimination routes.

`ROUTES` is the one place the four routes to a closed let-term's marginal
are defined (`denote`, `facts`, `vef`, `vel`); `lve compare` and
`check_instance` both read it, and `compare_routes` holds compare's rule:
skip a route over the web cap, require two routes, and agree where each
cell's values are `within_tol`. `brute_force_joint` recomputes a relation
by enumerating every total assignment; `random_network` draws a two-state
Bayesian network whose every hidden node has a query descendant (so each
stays eliminable); `run_suite` checks a batch of them and records every
disagreement.
"""

from __future__ import annotations

import math
import operator
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .cost import CostCounter
from .denote import DenoteContext, Relation, _regroup, _suffix, denote, joint_vector, total_mass_check
from .errors import LveError, WebCapExceeded
from .factors import (
    FactorSet,
    _onto,
    check_factor_vars,
    eliminate,
    factor_sets_equal,
    factors_of,
    marginal,
    relation_from_factors,
    unmatched_factors,
)
from .network import network_to_program
from .orderings import min_degree_order, random_order
from .parser import SourceProgram
from .rewrite import RewriteStep, eliminate_seq, eliminate_term, size_bound
from .syntax import (
    Expr,
    LetTerm,
    MatApp,
    Pair,
    Term,
    Ty,
    Var,
    Variable,
    free_vars,
    pattern_fv,
    pattern_type,
    pattern_vars,
    typecheck,
    within_tol,
)
from .webs import check_web_cap, sorted_vars, web_size

# ---------------------------------------------------------------- brute force


def brute_force_joint(term: Term) -> Relation:
    """The relation of a term computed by total enumeration.

    Supports the shapes Bayesian networks compile to: every definition binds a
    positive pattern to a variable, a matrix application, or a pair of such
    expressions. No appeal to the compositional semantics is made; each
    assignment's weight is a plain product of table lookups. Every total
    assignment is taken at once: a variable's web index over all of them is
    one array, a definition's lookups one gather, and the weights are summed
    into the (rows x output) table by one `np.bincount`.
    """
    if not isinstance(term, LetTerm):
        raise ValueError("brute force expects a let-term")
    if not term.is_positive:
        raise ValueError("brute force expects a positive output")
    typecheck(term)
    fv = sorted_vars(free_vars(term))
    all_vars = set(fv)
    for binder, _ in term.defs:
        for v in pattern_vars(binder):
            if v.is_arrow:
                raise ValueError("brute force does not cover arrow definitions")
            all_vars.add(v)

    # Assignments are left-major over the variables sorted by name.
    count = math.prod(web_size(v.ty) for v in all_vars)
    check_web_cap(count)
    index, stride = {}, count
    for v in sorted_vars(all_vars):
        stride //= web_size(v.ty)
        index[v] = np.arange(count) // stride % web_size(v.ty)
    weight = np.ones(count)
    for binder, bound in term.defs:
        weight *= _gather(bound, pattern_type(binder), _left_major(pattern_vars(binder), index), index)
    out_ty = pattern_type(term.output)
    n_rows, n_cols = math.prod(web_size(v.ty) for v in fv), web_size(out_ty)
    cells = _left_major(fv, index) * n_cols + _left_major(pattern_vars(term.output), index)
    matrix = np.bincount(cells, weights=weight, minlength=n_rows * n_cols)
    return Relation(fv, out_ty, matrix.reshape(n_rows, n_cols))


def _left_major(vs, index: dict[Variable, np.ndarray]) -> np.ndarray | int:
    """Each assignment's web index on the variables `vs`, left-major, as a
    pattern's web is over its leaves."""
    flat = 0
    for v in vs:
        flat = flat * web_size(v.ty) + index[v]
    return flat


def _gather(e: Expr, ty: Ty, target: np.ndarray, index: dict[Variable, np.ndarray]) -> np.ndarray:
    """The weight of `e`, of type `ty`, taking the web element `target` under
    each assignment."""
    if isinstance(e, Var):
        return (target == index[e.var]).astype(float)
    if isinstance(e, MatApp):
        return e.matrix.entries[_left_major(e.args, index), target]
    if isinstance(e, Pair):
        left, right = np.divmod(target, web_size(ty.right))
        return _gather(e.fst, ty.left, left, index) * _gather(e.snd, ty.right, right, index)
    raise ValueError(f"brute force does not cover {type(e).__name__} definitions")


# ---------------------------------------------------------------- random networks


MAX_PARENTS = 3
EXTRA_EDGE_PROB = 0.25
MAX_QUERY = 3
CPT_DECIMALS = 6


@dataclass(frozen=True)
class GeneratorConfig:
    min_vars: int = 4
    max_vars: int = 8


def random_network(seed: int, config: GeneratorConfig = GeneratorConfig()) -> SourceProgram:
    """A random two-state network in which every non-query node has a query
    descendant: node i links to a witness among the later nodes, the last node
    is always queried, so a path to a query always exists."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(config.min_vars, config.max_vars + 1))
    names = [f"x{i + 1}" for i in range(n)]

    n_query = int(rng.integers(1, min(MAX_QUERY, n) + 1))
    query = {n - 1}
    while len(query) < n_query:
        query.add(int(rng.integers(0, n)))

    parents: list[set[int]] = [set() for _ in range(n)]
    for i in range(n - 2, -1, -1):
        if i in query:
            continue
        later = [j for j in range(i + 1, n) if len(parents[j]) < MAX_PARENTS]
        witness = int(rng.choice(later)) if later else int(rng.integers(i + 1, n))
        parents[witness].add(i)
    for j in range(1, n):
        for i in range(j):
            if i in parents[j] or len(parents[j]) >= MAX_PARENTS:
                continue
            if rng.random() < EXTRA_EDGE_PROB:
                parents[j].add(i)

    nodes = []
    for j in range(n):
        ps = sorted(parents[j])
        cpt = []
        for _ in range(2 ** len(ps)):
            row = np.round(rng.dirichlet((1.0, 1.0)), CPT_DECIMALS)
            row = row / row.sum()
            cpt.append([float(row[0]), float(row[1])])
        nodes.append({"var": names[j], "parents": [names[i] for i in ps], "cpt": cpt})

    data = {
        "variables": [{"name": v} for v in names],
        "nodes": nodes,
        "query": [names[i] for i in sorted(query)],
    }
    return network_to_program(data)


# ---------------------------------------------------------------- the four routes


@dataclass(frozen=True)
class RouteRun:
    """A route's marginal and its own cost, for vef and vel their factor set's
    counters. vef keeps its factor set, vel its rewrite step count."""

    marginal: np.ndarray
    muladds: int
    max_table: int
    fs: FactorSet | None = None
    steps: int | None = None


def _charged(ctx: DenoteContext, semantics, term: LetTerm) -> RouteRun:
    outer, ctx.counter = ctx.counter, CostCounter()
    values = joint_vector(semantics(term, ctx))
    own, ctx.counter = ctx.counter, outer
    outer.merge(own)
    return RouteRun(values, own.muladds, own.max_table)


def _by_vef(term: LetTerm, order: list[Variable], ctx: DenoteContext) -> RouteRun:
    fs = eliminate(factors_of(term, ctx), order, ctx.web_cap)
    return RouteRun(marginal(fs, term.output, ctx.web_cap), fs.counter.muladds, fs.counter.max_table, fs=fs)


def _by_vel(term: LetTerm, order: list[Variable], ctx: DenoteContext) -> RouteRun:
    final, trace = eliminate_seq(term, order)
    fs = factors_of(final, ctx)
    values = marginal(fs, term.output, ctx.web_cap)
    return RouteRun(values, fs.counter.muladds, fs.counter.max_table, steps=len(trace.steps))


# name -> route(term, order, ctx); denote and facts ignore the order.
ROUTES = {
    "denote": lambda term, order, ctx: _charged(ctx, denote, term),
    "facts": lambda term, order, ctx: _charged(ctx, relation_from_factors, term),
    "vef": _by_vef,
    "vel": _by_vel,
}


def compare_routes(term: LetTerm, order: list[Variable], cap: int) -> tuple[dict[str, RouteRun], dict, float, bool]:
    """Every route on a fresh context, in `ROUTES` order: the runs, the error
    of each route skipped for a table over the cap, the largest difference
    between two runs' values, and whether each cell's largest and smallest
    are `within_tol`. Unless two routes run, the first error is raised."""
    ran, skipped = {}, {}
    for name, route in ROUTES.items():
        try:
            ran[name] = route(term, order, DenoteContext(web_cap=cap))
        except WebCapExceeded as err:
            skipped[name] = err
    if len(ran) < 2:
        raise next(iter(skipped.values()))
    values = np.array([run.marginal for run in ran.values()])
    hi, lo = values.max(axis=0), values.min(axis=0)
    return ran, skipped, float(np.max(hi - lo, initial=0.0)), within_tol(hi, lo)


# ---------------------------------------------------------------- the suite


@dataclass(frozen=True)
class CheckFailure:
    instance: int
    order: str | None
    check: str
    detail: str

    def __str__(self) -> str:
        where = f"instance {self.instance}" + (f", order {self.order}" if self.order else "")
        return f"{self.check} failed at {where}: {self.detail}"


@dataclass
class SuiteReport:
    """The failures of a batch, and the checks skipped because a table they
    build would pass the web cap (the detail gives its size)."""

    count: int
    orders: tuple[str, ...]
    failures: list[CheckFailure] = field(default_factory=list)
    elapsed: float = 0.0
    skipped: list[CheckFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


ORDER_NAMES = ("identity", "reverse", "random", "min-degree")


def _orders(term: LetTerm, seed: int) -> dict[str, list[Variable]]:
    by_def = [
        v
        for binder, _ in term.defs
        for v in pattern_vars(binder)
        if not v.is_arrow and v not in pattern_fv(term.output)
    ]
    return {
        "identity": by_def,
        "reverse": list(reversed(by_def)),
        "random": random_order(term, seed),
        "min-degree": min_degree_order(term),
    }


def _same_factors(xs: FactorSet, ys: FactorSet, as_product: bool, cap: int) -> bool:
    """Multiset equality of two factor sets; with `as_product`, the factors
    the two sides do not share need only agree as a product, within TOL."""
    left, right = unmatched_factors(xs, ys)
    if not (as_product and (left or right)):
        return not (left or right)
    # Both products as functions of every variable either side mentions.
    axes = list(set().union(*(f.vars for f in left + right)))
    return within_tol(_onto(left, axes, None, cap, False), _onto(right, axes, None, cap, False))


@dataclass(frozen=True)
class _Step:
    """One variable eliminated from the term an order prefix leaves, with the
    checks on that step and those it skipped. `term` is None where the
    rewrite raised; `after` holds the steps that extend this prefix by one
    more variable."""

    term: LetTerm | None
    fs: FactorSet | None
    barren: bool
    failures: tuple[CheckFailure, ...]
    skipped: tuple[CheckFailure, ...] = ()
    after: dict[Variable, _Step] = field(default_factory=dict)


def _same_denotation(s: RewriteStep, ctx: DenoteContext) -> bool:
    """Whether a rewrite step keeps the term's denotation. The rule replaces
    definitions from `s.position` on and leaves those above as the same
    objects, compared by identity, which fold the same way: so the two terms'
    relations at that position are compared as the folds leave them, the
    after side's rows regrouped into the before side's order as a view."""
    p, before, after = s.position, s.before, s.after
    above, kept = before.defs[:p], after.defs[:p]
    if len(kept) != len(above) or not all(map(operator.is_, above, kept)):
        return False
    da, db = _suffix(before, p, ctx), _suffix(after, p, ctx)
    if da.matrix.shape != db.matrix.shape or set(da.vars) != set(db.vars):
        return False
    regrouped = _regroup(db.matrix, db.vars, da.vars)
    return within_tol(da.matrix.reshape(regrouped.shape), regrouped)


def _check_step(cur: LetTerm, cur_fs: FactorSet, x: Variable, ctx: DenoteContext, instance: int) -> _Step:
    """Eliminate x from `cur` by rewriting and check the step: the size and
    step bounds, each rewrite's denotation and, for a swap, its factors, and
    the factors after the step against one vef step. Failures and skips
    carry no order."""
    failures: list[CheckFailure] = []
    skipped: list[CheckFailure] = []

    def fail(check: str, detail: str) -> None:
        failures.append(CheckFailure(instance, None, check, detail))

    barren = not any(x in free_vars(bound) for _, bound in cur.defs)
    try:
        nxt, steps = eliminate_term(cur, x)
    except LveError as err:
        fail("rewrite", f"{x.name}: {err}")
        return _Step(None, None, barren, tuple(failures))
    touched = [f.vars for f in cur_fs.factors if x in f.vars]
    bound = size_bound(cur, touched, nxt, len(steps))
    if not bound.steps_ok:
        fail("step-bound", f"{bound.steps} steps for {bound.step_limit} definitions")
    if not bound.size_ok:
        detail = f"{bound.size_before} grew to {bound.size_after} with {bound.allowance // 4} internal variables"
        fail("size-bound", detail)
    # A step's term is the next one's input: extract its factors once.
    last, last_fs = cur, cur_fs
    for s in steps:
        try:
            if not _same_denotation(s, ctx):
                fail("denote-step", f"{s.rule} changed the denotation")
        except WebCapExceeded as err:
            skipped.append(CheckFailure(instance, None, "denote-step", f"{s.rule}: {err}"))
        if s.rule.startswith("swap"):
            before_fs = last_fs if s.before is last else factors_of(s.before, ctx)
            last, last_fs = s.after, factors_of(s.after, ctx)
            if not factor_sets_equal(before_fs, last_fs):
                fail("swap-facts", f"{s.rule} changed the factor multiset")
    nxt_fs = last_fs if nxt is last else factors_of(nxt, ctx)
    # vel merges a barren x (one no other definition uses) into a neighbour,
    # so its factors match vef's step only as a product.
    if not _same_factors(nxt_fs, eliminate(cur_fs, [x], ctx.web_cap), barren, ctx.web_cap):
        fail("facts-step", f"factors after dropping {x.name} are not one step")
    return _Step(nxt, nxt_fs, barren, tuple(failures), tuple(skipped))


def check_instance(
    term: LetTerm,
    instance: int,
    report: SuiteReport,
    order_seed: int = 0,
) -> None:
    """All structural and numerical checks for one closed let-term.

    The orders often share a prefix. Each distinct prefix is rewritten and
    checked once; every order that reaches it reports that step's failures
    under its own name, where the step falls in its run, so the report is the
    one a separate run per order would give. The brute-force and factor
    product checks, and a rewrite's denotation check, are skipped and listed
    in `report.skipped` when a table they build would pass the web cap."""
    ctx = DenoteContext()
    fail = report.failures.append

    ref = ROUTES["denote"](term, [], ctx).marginal
    checks = {
        "brute": (lambda: joint_vector(brute_force_joint(term)), "enumeration disagrees with the semantics"),
        "semfacts": (lambda: ROUTES["facts"](term, [], ctx).marginal, "factor product disagrees with the semantics"),
    }
    for check, (values, detail) in checks.items():
        try:
            if not within_tol(values(), ref):
                fail(CheckFailure(instance, None, check, detail))
        except WebCapExceeded as err:
            report.skipped.append(CheckFailure(instance, None, check, str(err)))
    if not check_factor_vars(term):
        fail(CheckFailure(instance, None, "varset", "factor variable census is off"))
    mass = total_mass_check(term, ctx)
    if not mass.ok:
        fail(CheckFailure(instance, None, "mass", f"mass {mass.mass!r}, expected {mass.expected}"))

    fs0 = factors_of(term, ctx)
    # The steps of every order checked so far, as a trie on the order prefix.
    checked: dict[Variable, _Step] = {}

    for order_name, order in _orders(term, order_seed).items():
        vef = ROUTES["vef"](term, order, ctx)
        for st in vef.fs.steps:
            if st.muladds > 2 * st.group_size * st.product_table:
                detail = f"step {st.var.name}: {st.muladds} > 2*{st.group_size}*{st.product_table}"
                fail(CheckFailure(instance, order_name, "counter-bound", detail))
        if not within_tol(vef.marginal, ref):
            fail(CheckFailure(instance, order_name, "marginal", "classical elimination marginal is off"))

        cur, cur_fs, merged, known = term, fs0, False, checked
        for x in order:
            step = known.get(x)
            if step is None:
                step = known[x] = _check_step(cur, cur_fs, x, ctx, instance)
            for f in step.failures:
                fail(replace(f, order=order_name))
            report.skipped += (replace(f, order=order_name) for f in step.skipped)
            if step.term is None:
                break
            merged = merged or step.barren
            cur, cur_fs, known = step.term, step.fs, step.after
        else:
            if not _same_factors(cur_fs, vef.fs, merged, ctx.web_cap):
                detail = "rewritten factors differ from classical elimination"
                fail(CheckFailure(instance, order_name, "facts-seq", detail))
            if not within_tol(marginal(cur_fs, term.output, ctx.web_cap), ref):
                fail(CheckFailure(instance, order_name, "marginal", "rewriting marginal is off"))


def run_suite(count: int = 100, seed: int = 0) -> SuiteReport:
    """Generate `count` networks and run every check on each."""
    report = SuiteReport(count, ORDER_NAMES)
    start = time.perf_counter()
    for i in range(count):
        program = random_network(seed + i)
        check_instance(program.term, i, report, order_seed=seed + i)
    report.elapsed = time.perf_counter() - start
    return report
