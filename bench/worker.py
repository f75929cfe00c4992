"""One workload in one single-threaded process: set up, then a closed loop.

    python3 bench/worker.py --workload chain --seed 1 --t0 T --seconds 35
    python3 bench/worker.py --workload chain --seed 1 --t0 T --setup-only
    python3 bench/worker.py --workload chain --seed 1 --t0 T --seconds 35 --trace --spans FILE

`run.py` starts this; it prints one JSON summary as its last line. `--t0` is
the CLOCK_MONOTONIC reading taken just before the process was started, so
set-up time covers interpreter start, imports and input generation.

The loop is closed with one client: op i+1 starts when op i has finished,
and a run ends on a whole batch of the workload's inputs, so that every run
holds the same mix of sizes. Every op is checked; one that raises is counted
as failed under its exception class and the loop goes on.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import tracing

ROOT = Path(__file__).resolve().parent.parent
TOL = 1e-9
REFERENCE_EVERY_S = 0.25


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class WrongAnswer(Exception):
    """An op finished but its routes disagree or its marginal is not a distribution."""


def _check_marginals(marginals: dict) -> None:
    import numpy as np

    for name, m in marginals.items():
        if not np.all(np.isfinite(m)) or abs(float(m.sum()) - 1.0) > TOL:
            raise WrongAnswer(f"{name} marginal sums to {float(m.sum())!r}")
    names = list(marginals)
    for a in names:
        for b in names:
            diff = float(np.max(np.abs(marginals[a] - marginals[b])))
            if diff > TOL:
                raise WrongAnswer(f"{a} and {b} differ by {diff:.3g}")


# ---------------------------------------------------------------- routes


def vef_route(api, term):
    """factors_of + min_degree_order + eliminate + marginal, as `lve vef` orders it."""
    from lve.denote import DenoteContext

    ctx = DenoteContext()
    fs = api.factors_of(term, ctx)
    order = api.min_degree_order(term, ctx)
    return api.marginal(api.eliminate(fs, order), term.output)


def vel_route(api, term):
    """min_degree_order + eliminate_seq + factors_of(final) + marginal: `lve vel`."""
    from lve.cost import CostCounter
    from lve.denote import DenoteContext

    ctx = DenoteContext()
    order = api.min_degree_order(term, ctx)
    final, _ = api.eliminate_seq(term, order)
    with api.span("rewrite.readout"):
        # The readout shares the context (and its memo) as `lve vel` does; its
        # own counter isolates what interpreting the rewritten term costs.
        outer, ctx.counter = ctx.counter, CostCounter()
        fs = api.factors_of(final, ctx)
        values = api.marginal(fs, term.output)
        own, ctx.counter = ctx.counter, outer
    api.count("rewrite.readout_muladds", own.muladds + fs.counter.muladds)
    api.peak("rewrite.readout_max_table", max(own.max_table, fs.counter.max_table))
    return values


def denote_route(api, term):
    return api.joint_vector(api.denote(term))


ROUTES = {"vef": vef_route, "vel": vel_route, "denote": denote_route}


def _run_routes(api, term, routes: tuple[str, ...], rec: dict) -> None:
    marginals = {}
    for name in routes:
        start = time.perf_counter()
        marginals[name] = ROUTES[name](api, term)
        rec["routes"][name] = time.perf_counter() - start
    _check_marginals(marginals)


# ---------------------------------------------------------------- workloads


class Suite:
    """verify.check_instance on verify.random_network(seed + i).

    Op i draws a network of exactly 4 + i % 5 nodes, so every run holds the
    generator's 4-8 node sizes in equal shares; check time grows steeply with
    size, and leaving the sizes to chance made the run's medians hinge on
    the seed."""

    routes: tuple[str, ...] = ()
    count_window = 15

    def __init__(self, seed: int) -> None:
        from lve import verify

        self.seed = seed
        self.verify = verify
        sizes = range(verify.GeneratorConfig.min_vars, verify.GeneratorConfig.max_vars + 1)
        self.configs = [verify.GeneratorConfig(min_vars=n, max_vars=n) for n in sizes]
        self.batch = len(self.configs)  # one network of each size

    def op(self, api, i: int, rec: dict) -> None:
        program = api.random_network(self.seed + i, self.configs[i % len(self.configs)])
        report = self.verify.SuiteReport(1, self.verify.ORDER_NAMES)
        api.check_instance(program.term, i, report, order_seed=self.seed + i)
        if report.failures:
            raise WrongAnswer("; ".join(str(f) for f in report.failures[:3]))


class Chain:
    """A chain's program text, parsed back and solved by vef, vel and denote."""

    routes = ("vef", "vel", "denote")
    count_window = 2

    def __init__(self, seed: int) -> None:
        import gen

        self.texts = gen.chain_texts(seed)
        self.batch = 4  # one quad of lengths of equal cost (see gen.chain_lengths)

    def op(self, api, i: int, rec: dict) -> None:
        term = api.parse_program(self.texts[i % len(self.texts)]).term
        api.typecheck(term)
        _run_routes(api, term, self.routes, rec)


class Grid:
    """A grid network compiled from its JSON dict, solved by vef and denote."""

    routes = ("vef", "denote")
    count_window = 16

    def __init__(self, seed: int) -> None:
        import gen

        self.networks = gen.grid_networks(seed)
        self.batch = len(self.networks)  # every shape once

    def op(self, api, i: int, rec: dict) -> None:
        term = api.network_to_program(self.networks[i % len(self.networks)]).term
        api.typecheck(term)
        _run_routes(api, term, self.routes, rec)


WORKLOADS = {"suite": Suite, "chain": Chain, "grid": Grid}


# ---------------------------------------------------------------- the loop


def run_op(workload, api, i: int) -> dict:
    rec: dict = {"i": i, "routes": {}, "error": None, "wrong": None}
    start = time.perf_counter()
    try:
        with api.span("op"):
            workload.op(api, i, rec)
    except WrongAnswer as err:
        rec["error"], rec["wrong"] = "WrongAnswer", str(err)
    except Exception as err:  # an op may fail in any way; the loop must go on
        rec["error"] = type(err).__name__
    rec["latency"] = time.perf_counter() - start
    return rec


@dataclass(frozen=True)
class _Item:
    name: str
    n: int


def reference_table() -> tuple[dict[str, int], list[str]]:
    """A 50 000-entry dict (a few MB) and its keys in a fixed shuffled order."""
    keys = [f"k{i}" for i in range(50_000)]
    random.Random(0).shuffle(keys)
    return {k: i for i, k in enumerate(keys)}, keys


def reference_loop(table: dict[str, int], keys: list[str]) -> float:
    """Seconds a fixed piece of pure-Python work takes: how fast the machine
    runs now. About 12 ms in three even parts: arithmetic; lookups that miss
    the cache, in a table larger than it; and frozen dataclasses hashed into
    a dict, as lve's terms are. Arithmetic alone understated how much lve
    slowed when the machine was busy: its scaled rate still followed the raw
    one."""
    start = time.perf_counter()
    s = 0
    for i in range(35_000):
        s += i * i % 7
    for k in keys[:25_000]:
        s += table[k]
    seen = {}
    for i in range(2_500):
        item = _Item(keys[i], i)
        seen[item] = sorted((item.n % 7, i % 3, s % 5))
    return time.perf_counter() - start


def closed_loop(workload, api, seconds: float) -> tuple[list[dict], list[float], float]:
    """Untraced ops back to back until `seconds` have passed and the ops make
    whole batches of the workload; at least one batch.

    The reference loop is timed before the first op and then between ops,
    once for each REFERENCE_EVERY_S the ops took since it last ran, so that
    its times weigh the machine's speed evenly over the run (several times
    in a row after one of chain's multi-second ops). Returns the records, those times, and the wall time
    of the ops, which leaves the reference loop out."""
    table, keys = reference_table()
    records, references = [], [reference_loop(table, keys)]
    start = last = time.perf_counter()
    while not records or time.perf_counter() - start < seconds or len(records) % workload.batch:
        records.append(run_op(workload, api, len(records)))
        due = int((time.perf_counter() - last) / REFERENCE_EVERY_S)
        if due:
            references += [reference_loop(table, keys) for _ in range(due)]
            last = time.perf_counter()
    return records, references, time.perf_counter() - start - sum(references[1:])


def traced_run(workload, seconds: float, spans_path: Path | None) -> dict:
    """Each op traced and untraced, alternating which goes first, until
    `seconds` have passed; then the count window traced once more, so that
    its exact counters can be compared between the two passes."""
    tracer = tracing.Tracer()
    plain = tracing.Api()
    traced_lat, plain_lat, records = [], [], []
    start = time.perf_counter()
    i = 0
    while i < workload.count_window or time.perf_counter() - start < seconds:
        tracer.op = i
        for traced in ((True, False) if i % 2 == 0 else (False, True)):
            api = tracing.Api(tracer) if traced else plain
            try:
                rec = run_op(workload, api, i)
            finally:
                api.close()
            (traced_lat if traced else plain_lat).append(rec["latency"])
            records.append(rec)
        i += 1
    ops = list(range(i))
    window = list(range(workload.count_window))
    times = tracing.span_times(tracer.spans())
    counts = tracing.count_metrics(tracer, times, window)

    recheck = tracing.Tracer()
    api = tracing.Api(recheck)
    try:
        for k in window:
            recheck.op = k
            records.append(run_op(workload, api, k))
    finally:
        api.close()
    again = tracing.count_metrics(recheck, tracing.span_times(recheck.spans()), window)
    mismatched = sorted(m for m in counts if counts[m] != again[m])

    metrics = {**tracing.time_metrics(times, ops), **counts}
    metrics["trace.overhead_share"] = sum(traced_lat) / sum(plain_lat) - 1.0
    if spans_path is not None:
        with open(spans_path, "w") as fh:
            for k, (name, s, e, parent, op) in enumerate(tracer.spans()):
                fh.write(json.dumps({"id": k, "name": name, "start": s, "end": e, "parent": parent, "op": op}) + "\n")
    return {
        "records": records,
        "metrics": metrics,
        "traced_ops": len(ops),
        "count_window": len(window),
        "exact_mismatch": mismatched,
        "table": tracing.layer_table(times, ops),
        "spans": len(tracer.names),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=1.0)
    p.add_argument("--t0", type=float, required=True, help="CLOCK_MONOTONIC just before this process started")
    p.add_argument("--setup-only", action="store_true", help="stop at the first op")
    p.add_argument("--trace", action="store_true")
    p.add_argument("--spans", type=Path, help="where the traced run writes its spans")
    args = p.parse_args(argv)

    if not (ROOT / "src" / "lve" / "__init__.py").is_file():
        print(f"error: no lve sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import lve.verify  # part of set-up: the first op must not pay for imports

    if Path(lve.verify.__file__).resolve().parent != ROOT / "src" / "lve":
        print(f"error: imported lve from {lve.verify.__file__}, not from {ROOT / 'src'}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload](args.seed)
    setup_s = monotonic() - args.t0
    out: dict = {"workload": args.workload, "seed": args.seed, "setup_s": setup_s}
    if args.setup_only:
        print(json.dumps(out))
        return 0
    if args.trace:
        out.update(traced_run(workload, args.seconds, args.spans))
    else:
        records, references, wall = closed_loop(workload, tracing.Api(), args.seconds)
        out.update(records=records, references=references, wall_s=wall)
    out["peak_rss_mb"] = peak_rss_mb()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
