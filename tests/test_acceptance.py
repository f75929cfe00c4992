"""Release gate: every shipping criterion, one test each, at its stated
tolerance. Run `pytest tests/test_acceptance.py -v` for the pass/fail list.

The batch criteria share one 100-network verification run (fixed seed) so the
gate stays fast and the reported failures line up across criteria.
"""

from __future__ import annotations

import json
import time

import numpy as np
import pytest

from lve.cli import main
from lve.denote import denote, joint_vector
from lve.factors import Factor, constant_factor, contract, factors_allclose
from lve.parser import parse_program
from lve.rewrite import eliminate_seq
from lve.syntax import (
    BOOL,
    Tensor,
    Variable,
    alpha_eq,
    pattern_type,
    typecheck,
)
from lve.verify import run_suite
from lve.webs import ht, sorted_vars, web_size
from helpers import (
    COIN_COPY_JOINT,
    COIN_PAIR_JOINT,
    SIXNODE_ORDER_FWD,
    coin_copy_term,
    coin_pair_expr,
    eliminations,
    order_by_name,
)

SUITE_SEED = 20260823
SUITE_COUNT = 100


@pytest.fixture(scope="module")
def suite():
    return run_suite(SUITE_COUNT, seed=SUITE_SEED)


@pytest.fixture(scope="module")
def golden_run(request):
    golden = request.path.parent / "golden"
    sixnode = parse_program((request.path.parent.parent / "samples" / "sixnode.lve").read_text())
    term = sixnode.term
    start = time.perf_counter()
    final, trace = eliminate_seq(term, order_by_name(term, SIXNODE_ORDER_FWD))
    elapsed = time.perf_counter() - start
    return golden, term, final, trace, elapsed


def _best_time(fn, runs: int = 5) -> float:
    fn()  # warm caches before timing
    best = float("inf")
    for _ in range(runs):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_criterion_1_coin_marginals_exact_and_fast():
    copy_term = coin_copy_term()
    pair_expr = coin_pair_expr()
    copy_values = joint_vector(denote(copy_term))
    pair_values = joint_vector(denote(pair_expr))
    assert np.allclose(copy_values, COIN_COPY_JOINT, atol=1e-12)
    assert np.allclose(pair_values, COIN_PAIR_JOINT, atol=1e-12)
    assert copy_values[1] == 0.0 and copy_values[2] == 0.0  # copies never disagree
    assert _best_time(lambda: joint_vector(denote(copy_term))) < 1e-3


def test_criterion_2_golden_elimination_matches_recorded_terms(golden_run):
    golden, term, final, trace, elapsed = golden_run
    assert len(trace.steps) <= 14
    assert elapsed < 1.0
    recorded = ["after_x1", "after_x2", "after_x4", "after_x5"]
    reached = eliminations(term, order_by_name(term, SIXNODE_ORDER_FWD))
    assert len(reached) == len(recorded)
    for (var, after), name in zip(reached, recorded):
        expected = parse_program((golden / f"{name}.lve").read_text()).term
        assert alpha_eq(after, expected), f"after {var.name}: differs from {name}"
    assert alpha_eq(final, reached[-1][1])


def test_criterion_2_each_step_preserves_type_and_denotation(golden_run):
    _, _, _, trace, _ = golden_run
    for s in trace.steps:
        assert typecheck(s.before) == typecheck(s.after), s.rule
        da, db = denote(s.before), denote(s.after)
        assert da.vars == db.vars, s.rule
        assert np.max(np.abs(da.matrix - db.matrix)) <= 1e-9, s.rule


def test_criterion_3_peak_table_matches_order(capsys, samples_dir):
    path = str(samples_dir / "sixnode.lve")
    start = time.perf_counter()
    assert main(["compare", "--json", "--order", "x1,x2,x4,x5", path]) == 0
    forward = json.loads(capsys.readouterr().out)
    assert main(["compare", "--json", "--order", "x5,x4,x2,x1", path]) == 0
    backward = json.loads(capsys.readouterr().out)
    assert time.perf_counter() - start < 1.0
    assert forward["vef"]["max_table"] == 16
    assert backward["vef"]["max_table"] == 32
    assert forward["agree"] and backward["agree"]


def test_criterion_4_hundred_networks_all_orders_agree(suite):
    assert suite.count == SUITE_COUNT
    assert suite.elapsed < 60.0
    assert suite.ok, "\n".join(str(f) for f in suite.failures)


def test_criterion_5_semantics_matches_enumeration_and_factors(suite):
    assert [f for f in suite.failures if f.check in ("brute", "semfacts", "varset")] == []


def test_criterion_6_factor_algebra_laws():
    rng = np.random.default_rng(SUITE_SEED)
    pool = [
        Variable("a", BOOL),
        Variable("b", BOOL),
        Variable("c", Tensor(BOOL, BOOL)),
        Variable("d", BOOL),
        Variable("e", Tensor(BOOL, BOOL)),
        Variable("f", BOOL),
    ]

    def random_factor() -> Factor:
        k = int(rng.integers(0, 4))
        idx = rng.choice(len(pool), size=k, replace=False)
        vs = sorted_vars(pool[i] for i in idx)
        dims = tuple(web_size(v.ty) for v in vs)
        return Factor(vs, rng.uniform(0.0, 2.0, size=dims))

    def times(*fs: Factor) -> Factor:  # the pointwise product, nothing summed
        return contract(fs, [v for f in fs for v in f.vars])

    def summed(f: Factor, drop: set) -> Factor:
        return contract([f], set(f.vars) - drop)

    unit = constant_factor((), 1.0)
    for _ in range(1000):
        f, g, h = random_factor(), random_factor(), random_factor()
        assert factors_allclose(times(times(f, g), h), times(f, times(g, h)))
        assert factors_allclose(times(f, g), times(g, f))
        assert factors_allclose(times(f, unit), f)

        union = set(f.vars) | set(g.vars) | set(h.vars)
        v1 = {v for v in union if rng.random() < 0.5}
        v2 = {v for v in union if rng.random() < 0.5}
        big = times(times(f, g), h)
        assert factors_allclose(summed(summed(big, v1), v2 - v1), summed(big, v1 | v2))

        drop = {v for v in f.vars if v not in g.vars and rng.random() < 0.5}
        assert factors_allclose(summed(times(f, g), drop), times(summed(f, drop), g))


def test_criterion_7_rewriting_stays_within_bounds(suite):
    bounds = ("rewrite", "step-bound", "size-bound", "counter-bound")
    assert [f for f in suite.failures if f.check in bounds] == []


def test_criterion_8_mass_tracks_type_height(suite, golden_run):
    assert [f for f in suite.failures if f.check == "mass"] == []
    # After its second elimination, the worked example binds a pair holding an
    # arrow; that closed subterm carries mass 2, the height of its type.
    _, term, _, _, _ = golden_run
    binder, bound = eliminations(term, order_by_name(term, SIXNODE_ORDER_FWD))[1][1].defs[0]
    ty = pattern_type(binder)
    assert ht(ty) == 2
    rel = denote(bound)
    assert rel.vars == ()
    assert abs(float(rel.matrix.sum()) - 2.0) <= 1e-9


def test_criterion_9_swaps_preserve_factors_and_meaning(suite):
    swaps = ("swap-facts", "denote-step", "facts-step", "facts-seq")
    assert [f for f in suite.failures if f.check in swaps] == []
