"""Cross-checks between the three semantics and the two elimination routes.

`brute_force_joint` recomputes a term's relation by enumerating every total
assignment, without the compositional clauses; `random_network` draws a
two-state Bayesian network whose every hidden node has a query descendant
(so each hidden variable keeps a consumer and stays eliminable);
`run_suite` runs both elimination routes over several orders on a batch of
random networks and records every disagreement.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .denote import DenoteContext, Relation, denote, joint_vector, total_mass_check
from .errors import LveError
from .factors import (
    eliminate,
    factor_sets_equal,
    factors_of,
    check_factor_vars,
    marginal,
    relation_from_factors,
)
from .network import network_to_program
from .orderings import min_degree_order, random_order
from .parser import SourceProgram
from .rewrite import eliminate_term, size_bound
from .syntax import (
    TOL,
    Expr,
    LetTerm,
    MatApp,
    Pair,
    Term,
    Var,
    Variable,
    free_vars,
    pattern_fv,
    pattern_type,
    pattern_vars,
    typecheck,
)
from .webs import (
    Assignment,
    WebElem,
    WebPair,
    element_index,
    enumerate_assignments,
    pattern_read,
    sorted_vars,
    web_size,
)

# ---------------------------------------------------------------- brute force


def brute_force_joint(term: Term) -> Relation:
    """The relation of a term computed by total enumeration.

    Supports the shapes Bayesian networks compile to: every definition binds a
    positive pattern to a variable, a matrix application, or a pair of such
    expressions. No appeal to the compositional semantics is made; each
    assignment's weight is a plain product of table lookups.
    """
    if not isinstance(term, LetTerm):
        raise ValueError("brute force expects a let-term")
    if not term.is_positive:
        raise ValueError("brute force expects a positive output")
    typecheck(term)
    defs = term.defs
    out_ty = pattern_type(term.output)
    out_pattern = term.output

    fv = sorted_vars(free_vars(term))
    all_vars = set(fv)
    for binder, _ in defs:
        for v in pattern_vars(binder):
            if v.is_arrow:
                raise ValueError("brute force does not cover arrow definitions")
            all_vars.add(v)

    n_cols = web_size(out_ty)
    strides: dict[Variable, int] = {}
    acc = 1
    for v in reversed(fv):
        strides[v] = acc
        acc *= web_size(v.ty)
    matrix = np.zeros((acc, n_cols))

    for asg in enumerate_assignments(sorted_vars(all_vars)):
        w = 1.0
        for binder, bound in defs:
            w *= _def_weight(pattern_read(binder, asg), bound, asg)
            if w == 0.0:
                break
        if w == 0.0:
            continue
        row = sum(strides[v] * element_index(v.ty, asg.get(v)) for v in fv)
        col = element_index(out_ty, pattern_read(out_pattern, asg))
        matrix[row, col] += w
    return Relation(fv, out_ty, matrix)


def _def_weight(target: WebElem, e: Expr, asg: Assignment) -> float:
    if isinstance(e, Var):
        return 1.0 if target == asg.get(e.var) else 0.0
    if isinstance(e, MatApp):
        row = 0
        for v in e.args:
            row = row * web_size(v.ty) + element_index(v.ty, asg.get(v))
        return float(e.matrix.entries[row, element_index(e.matrix.out, target)])
    if isinstance(e, Pair):
        if not isinstance(target, WebPair):
            raise ValueError("pair expression against a non-pair web element")
        return _def_weight(target.left, e.fst, asg) * _def_weight(target.right, e.snd, asg)
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
    count: int
    orders: tuple[str, ...]
    failures: list[CheckFailure] = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.failures


ORDER_NAMES = ("identity", "reverse", "random", "min-degree")


def _orders(term: LetTerm, seed: int, ctx: DenoteContext) -> dict[str, list[Variable]]:
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
        "min-degree": min_degree_order(term, ctx),
    }


def _close(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and bool(np.max(np.abs(a - b), initial=0.0) <= TOL)


def check_instance(
    term: LetTerm,
    instance: int,
    report: SuiteReport,
    order_seed: int = 0,
) -> None:
    """All structural and numerical checks for one closed let-term."""
    ctx = DenoteContext()
    fail = report.failures.append

    base = denote(term, ctx)
    brute = brute_force_joint(term)
    if not (base.vars == brute.vars and _close(base.matrix, brute.matrix)):
        fail(CheckFailure(instance, None, "brute", "enumeration disagrees with the semantics"))
    rebuilt = relation_from_factors(term, ctx)
    if not (base.vars == rebuilt.vars and _close(base.matrix, rebuilt.matrix)):
        fail(CheckFailure(instance, None, "semfacts", "factor product disagrees with the semantics"))
    if not check_factor_vars(term, ctx):
        fail(CheckFailure(instance, None, "varset", "factor variable census is off"))
    mass = total_mass_check(term, ctx)
    if not mass.ok:
        fail(CheckFailure(instance, None, "mass", f"mass {mass.mass!r}, expected {mass.expected}"))

    fs0 = factors_of(term, ctx)
    base_marg = joint_vector(base)

    for order_name, order in _orders(term, order_seed, ctx).items():
        vef = eliminate(fs0, order, ctx.web_cap)
        for st in vef.steps:
            if st.muladds > 2 * st.group_size * st.product_table:
                fail(
                    CheckFailure(
                        instance,
                        order_name,
                        "counter-bound",
                        f"step {st.var.name}: {st.muladds} > 2*{st.group_size}*{st.product_table}",
                    )
                )
        if not _close(marginal(vef, term.output, ctx.web_cap), base_marg):
            fail(CheckFailure(instance, order_name, "marginal", "classical elimination marginal is off"))

        cur, cur_fs = term, fs0
        failed = False
        for x in order:
            try:
                nxt, steps = eliminate_term(cur, x)
            except LveError as err:
                fail(CheckFailure(instance, order_name, "rewrite", f"{x.name}: {err}"))
                failed = True
                break
            touched = [f.vars for f in cur_fs.factors if x in f.vars]
            bound = size_bound(cur, touched, nxt, len(steps))
            if not bound.steps_ok:
                fail(
                    CheckFailure(
                        instance, order_name, "step-bound", f"{bound.steps} steps for {bound.step_limit} definitions"
                    )
                )
            if not bound.size_ok:
                fail(
                    CheckFailure(
                        instance,
                        order_name,
                        "size-bound",
                        f"{bound.size_before} grew to {bound.size_after}"
                        f" with {bound.allowance // 4} internal variables",
                    )
                )
            for s in steps:
                da, db = denote(s.before, ctx), denote(s.after, ctx)
                if not (da.vars == db.vars and _close(da.matrix, db.matrix)):
                    fail(CheckFailure(instance, order_name, "denote-step", f"{s.rule} changed the denotation"))
                if s.rule.startswith("swap") and not factor_sets_equal(
                    factors_of(s.before, ctx), factors_of(s.after, ctx)
                ):
                    fail(CheckFailure(instance, order_name, "swap-facts", f"{s.rule} changed the factor multiset"))
            nxt_fs = factors_of(nxt, ctx)
            if not factor_sets_equal(nxt_fs, eliminate(cur_fs, [x], ctx.web_cap)):
                fail(
                    CheckFailure(
                        instance, order_name, "facts-step", f"factors after dropping {x.name} are not one step"
                    )
                )
            cur, cur_fs = nxt, nxt_fs
        if failed:
            continue
        if not factor_sets_equal(cur_fs, vef):
            fail(
                CheckFailure(
                    instance, order_name, "facts-seq", "rewritten factors differ from classical elimination"
                )
            )
        if not _close(marginal(cur_fs, term.output, ctx.web_cap), base_marg):
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
