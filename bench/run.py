"""The lve benchmark: one workload per invocation, end-to-end or traced.

    python3 bench/run.py --workload {suite,chain,grid} --seed N --seconds S --trace {0,1}

Run from anywhere; lve is imported from the `src/` next to this directory.

1. Preflight: `lve compare` on samples/sixnode.lve for the two orders whose
   counters the acceptance gate pins (peak table 16 and 32, at most 14 rewrite
   steps, all routes agreeing).
2. `--trace 0`: the workload runs in its own single-threaded process as a
   closed loop with one client for S seconds (worker.py). Set-up time is the
   median over SETUP_SAMPLES process starts, taken before and after the loop
   so that they meet the machine at different moments. Prints every
   end-to-end metric; the JSON record holds those in END_TO_END.
3. `--trace 1`: a traced process instead, which records spans around every
   call into lve and prints the per-layer metrics, the tracing overhead and a
   per-layer table; spans go to bench/out/.

Every op's answer is checked. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}. The exit status is 1
when the preflight or any answer is wrong, or the exact counters of the traced
run do not repeat, and 2 when lve cannot be run at all.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_SAMPLES = 5
DEADLINE_S = 170.0  # the whole command, worker processes included
SINGLE_THREAD = {v: "1" for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")}

# The JSON record holds only these. The rest is printed and written to
# bench/out: a route metric exists only where its route runs; suite's peak
# memory is set by the one largest network of a run; and with chain's dozen
# multi-second ops a run's median and tail rest on one or two ops each, which
# moved by a third between runs on a 2-core VM.
#
# norm_ops_per_s is ops_per_s scaled by how slowly the machine ran during the
# run: the mean time of worker.reference_loop, timed between ops, over
# REFERENCE_S. On a shared 2-core VM the same op's latency moved by up to 1.8x
# within seconds, and ops per wall-clock second spread by 20-30% between runs
# of the same code (IQR over median, five to ten seeds); scaled, the same
# runs spread a third to a quarter as much. REFERENCE_S, about the loop's
# time on an uncontended core of that VM, only sets the scale: with it, the
# figure reads as ops per second on an idle machine. ops_per_s itself is
# still printed.
END_TO_END = {"setup_s": "s", "norm_ops_per_s": "1/s"}
REFERENCE_S = 0.008
ROUTE_METRICS = {"vef": "vef_query_s", "vel": "vel_query_s", "denote": "denote_query_s"}
MORE_UNITS = {"ops_per_s": "1/s", "op_p50_s": "s", "op_tail_s": "s", "peak_rss_mb": "MB",
              **{m: "s" for m in ROUTE_METRICS.values()}}


class BenchError(Exception):
    """The benchmark could not run lve at all."""


# ---------------------------------------------------------------- preflight


def preflight() -> list[str]:
    """Problems found by `lve compare --json` on the six-node sample."""
    sys.path.insert(0, str(ROOT / "src"))
    from lve.cli import main as lve_main

    sample = str(ROOT / "samples" / "sixnode.lve")
    problems = []
    for order, max_table, max_steps in (("x1,x2,x4,x5", 16, 14), ("x5,x4,x2,x1", 32, None)):
        buf = io.StringIO()
        try:
            with contextlib.redirect_stdout(buf):
                status = lve_main(["compare", sample, "--order", order, "--json"])
            got = json.loads(buf.getvalue())
        except Exception as err:  # a broken program must fail the preflight, not the benchmark
            problems.append(f"compare {order}: {type(err).__name__}: {err}")
            continue
        if status != 0 or not got["agree"]:
            problems.append(f"compare {order}: exit {status}, agree {got['agree']}")
        if got["vef"]["max_table"] != max_table:
            problems.append(f"compare {order}: vef max_table {got['vef']['max_table']}, expected {max_table}")
        if max_steps is not None and got["vel"]["steps"] > max_steps:
            problems.append(f"compare {order}: vel steps {got['vel']['steps']} > {max_steps}")
    return problems


# ---------------------------------------------------------------- worker processes


def spawn(args: list[str], deadline: float) -> dict:
    """Run worker.py to completion and return its JSON summary."""
    env = {**os.environ, **SINGLE_THREAD}
    t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
    timeout = max(1.0, deadline - time.monotonic())
    try:
        done = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *args, "--t0", repr(t0)],
            capture_output=True, text=True, timeout=timeout, env=env,
        )
    except subprocess.TimeoutExpired as err:  # run() has killed and reaped it
        raise BenchError(f"worker {' '.join(args)} ran past the {DEADLINE_S:.0f} s deadline") from err
    if done.returncode != 0:
        raise BenchError(f"worker {' '.join(args)} exited {done.returncode}: {done.stderr.strip()[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) at the highest percentile with at least ten ops
    beyond it; with fewer than twenty ops no such percentile reaches the
    median, and the largest latency is reported as p100."""
    xs = sorted(latencies)
    n = len(xs)
    if n < 20:
        return xs[-1], 100.0
    return xs[n - 11], 100.0 * (n - 10) / n


def failures(records: list[dict]) -> tuple[int, list[str], Counter]:
    by_class = Counter(r["error"] for r in records if r["error"])
    wrong = [r["wrong"] for r in records if r["wrong"]]
    return sum(by_class.values()), wrong, by_class


def end_to_end(workload: str, seed: int, seconds: float, deadline: float) -> dict:
    def setup_only() -> float:
        return spawn(["--workload", workload, "--seed", str(seed), "--setup-only"], deadline)["setup_s"]

    setups = [setup_only() for _ in range(SETUP_SAMPLES // 2)]
    main = spawn(["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)], deadline)
    setups.append(main["setup_s"])
    setups += [setup_only() for _ in range(SETUP_SAMPLES - len(setups))]
    records = main["records"]
    failed, wrong, by_class = failures(records)
    latencies = [r["latency"] for r in records]
    tail_value, tail_pct = tail(latencies)
    ops_per_s = (len(records) - failed) / main["wall_s"]
    slowdown = statistics.mean(main["references"]) / REFERENCE_S
    metrics = {"setup_s": statistics.median(setups), "norm_ops_per_s": ops_per_s * slowdown}
    more = {
        "ops_per_s": ops_per_s,
        "op_p50_s": statistics.median(latencies),
        "op_tail_s": tail_value,
        "peak_rss_mb": main["peak_rss_mb"],
    }
    for route, name in ROUTE_METRICS.items():
        times = [r["routes"][route] for r in records if route in r["routes"] and not r["error"]]
        if times:
            more[name] = statistics.median(times)
    notes = {
        "setup_s": f"median of {len(setups)} process starts",
        "op_tail_s": f"p{tail_pct:.4g} of {len(records)} ops",
        "ops_per_s": f"{len(records) - failed} ops in {main['wall_s']:.3f} s, closed loop, 1 client",
        "norm_ops_per_s": f"ops_per_s x {slowdown:.4f}: mean of {len(main['references'])} reference loops"
                          f" / {REFERENCE_S} s",
    }
    summary = {
        "attempted": len(records),
        "failed": failed,
        "wrong": wrong,
        "by_class": dict(by_class),
        "metrics": metrics,
        "more": more,
        "notes": notes,
        "tail_percentile": tail_pct,
        "setup_samples": setups,
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{workload}-seed{seed}.json").write_text(json.dumps(summary, indent=1) + "\n")
    return summary


# ---------------------------------------------------------------- traced run


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "lve").glob("*.py")) + sorted(HERE.glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def traced(workload: str, seed: int, seconds: float, deadline: float) -> dict:
    OUT.mkdir(exist_ok=True)
    stem = f"{workload}-seed{seed}"
    spans_path = OUT / f"spans-{stem}.jsonl"
    got = spawn(["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace",
                 "--spans", str(spans_path)], deadline)
    failed, wrong, by_class = failures(got["records"])
    metrics = got["metrics"]
    counts = {m: metrics[m] for m in tracing.COUNT_METRICS}

    # The exact counters must repeat: within this run (the count window ran
    # twice) and against an earlier run of the same code with the same seed.
    mismatch = list(got["exact_mismatch"])
    exact_path = OUT / f"exact-{stem}.json"
    digest = source_digest()
    if exact_path.exists():
        before = json.loads(exact_path.read_text())
        if before["digest"] == digest:
            mismatch += [f"{m} (earlier run)" for m in counts if before["counts"].get(m) != counts[m]]
    exact_path.write_text(json.dumps({"digest": digest, "counts": counts}, indent=1) + "\n")

    table = (
        f"traced {got['traced_ops']} ops (each also run untraced); exact counters over the first "
        f"{got['count_window']} ops; {got['spans']} spans in {spans_path.relative_to(ROOT)}\n"
        + got["table"]
        + f"\ntracing overhead: traced op time / untraced op time - 1 = {metrics['trace.overhead_share']:.4f}\n"
    )
    (OUT / f"layers-{stem}.txt").write_text(table)
    return {
        "attempted": len(got["records"]),
        "failed": failed,
        "wrong": wrong,
        "by_class": dict(by_class),
        "metrics": metrics,
        "mismatch": mismatch,
        "table": table,
        "units": tracing.UNITS,
        "notes": tracing.NOTES,
    }


# ---------------------------------------------------------------- output


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=("suite", "chain", "grid"), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "lve" / "__init__.py").is_file() or not (ROOT / "samples" / "sixnode.lve").is_file():
        print(f"error: {ROOT} holds no lve checkout (src/lve, samples/)", file=sys.stderr)
        return 2
    try:
        problems = preflight()
        if args.trace:
            res = traced(args.workload, args.seed, args.seconds, deadline)
        else:
            res = end_to_end(args.workload, args.seed, args.seconds, deadline)
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for problem in problems:
        print(f"preflight FAILED: {problem}")
    for detail in res["wrong"][:10]:
        print(f"wrong answer: {detail}")
    if args.trace:
        print(res["table"])
        units = res["units"]
        for name, value in res["metrics"].items():
            print(f"{name:32} {value:14.6g} {units[name]:5} {res['notes'][name]}")
        for m in res["mismatch"]:
            print(f"exact counter did not repeat: {m}")
    else:
        units = {**END_TO_END, **MORE_UNITS}
        for name, value in {**res["metrics"], **res["more"]}.items():
            print(f"{name:16} {value:14.6g} {units[name]:5} {res['notes'].get(name, '')}")
    failed_ratio = res["failed"] / res["attempted"]
    classes = ", ".join(f"{k}: {v}" for k, v in sorted(res["by_class"].items())) or "none"
    print(f"{'failed_ratio':16} {failed_ratio:14.6g} {'1':5} {res['failed']} of {res['attempted']} ops ({classes})")

    correct = not problems and not res["wrong"] and not res.get("mismatch")
    metrics = {name: {"value": value, "unit": units[name]} for name, value in res["metrics"].items()}
    print(json.dumps({"correct": correct, "attempted": res["attempted"], "failed": res["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
