"""Spans and counters for the traced run, recorded from outside the program.

A span is a name, start, end, parent span and op id, kept in memory in flat
arrays (which the garbage collector need not scan) and written out when the
run ends. Spans come from two places:

- the benchmark's own calls into lve, made through `Api`, which wraps each
  public function it calls;
- calls *between* lve modules, caught by replacing the names a module imported
  from another (``lve.rewrite.typecheck`` is ``lve.syntax.typecheck`` seen
  from rewrite). Calls a module makes to its own functions stay untraced,
  except the two entry points named in `OWN_NAMES`.

A span's self time is its duration minus the time covered by its child spans.
Work the tracer itself does after a call (reading counters off results) is
recorded as a ``trace.hook`` child, so it lands in no layer's self time.

Counters are kept per op. Those read off results are exact: the same op gives
the same numbers on every run, which `count_metrics` relies on.
"""

from __future__ import annotations

import contextlib
import importlib
import time
from array import array
from collections import defaultdict

clock = time.perf_counter

LVE_MODULES = ("syntax", "parser", "printer", "network", "denote", "factors", "orderings", "rewrite", "verify", "cli")

# (defining module, function) -> span name; wrapped wherever another lve module imported it.
TRACED = {
    ("syntax", "typecheck"): "syntax.typecheck",
    ("syntax", "free_vars"): "syntax.free_vars",
    ("parser", "parse_program"): "parser.parse_program",
    ("network", "network_to_program"): "network.network_to_program",
    ("orderings", "min_degree_order"): "orderings.min_degree_order",
    ("factors", "factors_of"): "factors.factors_of",
    ("factors", "eliminate"): "factors.eliminate",
    ("factors", "marginal"): "factors.marginal",
    ("factors", "relation_from_factors"): "factors.relation_from_factors",
    ("denote", "denote"): "denote.denote",
    ("denote", "joint_vector"): "denote.joint_vector",
    ("rewrite", "eliminate_seq"): "rewrite.eliminate_seq",
    ("rewrite", "eliminate_term"): "rewrite.eliminate_term",
    ("verify", "random_network"): "verify.random_network",
    ("verify", "check_instance"): "verify.check_instance",
    ("verify", "brute_force_joint"): "verify.brute_force_joint",
}

# Functions also wrapped inside their own module, where callers reach them by
# global lookup: brute force runs inside check_instance, and every rewrite
# rule goes through apply_rule. apply_rule is counted, not timed.
OWN_NAMES = (("verify", "brute_force_joint"), ("rewrite", "apply_rule"))

SWAPS = ("swap1", "swap2", "swap3")
RULES = SWAPS + ("mult", "elim")


def lve_module(name: str):
    # `lve.denote` the attribute is the function; the module lives in sys.modules.
    return importlib.import_module(f"lve.{name}")


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.ops = array("q")
        self.stack: list[int] = []
        self.op = -1
        self.sums: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.peaks: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))

    def count(self, name: str, value: float) -> None:
        self.sums[self.op][name] += value

    def peak(self, name: str, value: float) -> None:
        peaks = self.peaks[self.op]
        if value > peaks[name]:
            peaks[name] = value

    def _open(self, name: str) -> int:
        k = len(self.names)
        self.names.append(name)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.ops.append(self.op)
        self.ends.append(0.0)
        self.stack.append(k)
        self.starts.append(clock())
        return k

    def _close(self, k: int) -> None:
        self.ends[k] = clock()
        self.stack.pop()

    def spans(self):
        """(name, start, end, parent, op) for every span, in opening order."""
        return zip(self.names, self.starts, self.ends, self.parents, self.ops)

    @contextlib.contextmanager
    def span(self, name: str):
        k = self._open(name)
        try:
            yield
        finally:
            self._close(k)

    def wrap(self, name: str, fn, hook=None):
        """`fn` inside a span; `hook(args, result)` runs afterwards in a trace.hook span."""

        def traced(*args, **kwargs):
            k = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(k)
            if hook is not None:
                with self.span("trace.hook"):
                    hook(args, result)
            return result

        return traced


# ---------------------------------------------------------------- counters read off results


def _hooks(tracer: Tracer) -> dict:
    from lve.syntax import size

    def vef(args, fs) -> None:
        tracer.count("factors.vef_muladds", fs.counter.muladds)
        tracer.peak("factors.vef_max_table", fs.counter.max_table)
        tracer.count("factors.vef_bytes_computed", 8 * sum(st.product_table for st in fs.steps))

    def rewrite_steps(steps, before, after) -> None:
        tracer.count("rewrite.steps", len(steps))
        for s in steps:
            tracer.count(f"rewrite.steps.{s.rule}", 1)
        tracer.count("rewrite.size_before", size(before))
        tracer.count("rewrite.size_after", size(after))

    def eliminate_seq(args, result) -> None:
        final, trace = result
        rewrite_steps(trace.steps, args[0], final)

    def eliminate_term(args, result) -> None:
        after, steps = result
        rewrite_steps(steps, args[0], after)

    return {"factors.eliminate": vef, "rewrite.eliminate_seq": eliminate_seq, "rewrite.eliminate_term": eliminate_term}


def _counted_denote(tracer: Tracer, denote):
    """denote with its own cost counter, merged back into the caller's, so the
    muladds and peak table of the call itself are seen."""
    from lve.cost import CostCounter
    from lve.denote import DenoteContext

    def counted(t, ctx=None):
        if ctx is None:
            ctx = DenoteContext()
        outer, ctx.counter = ctx.counter, CostCounter()
        try:
            return denote(t, ctx)
        finally:
            own, ctx.counter = ctx.counter, outer
            outer.merge(own)
            tracer.count("denote.muladds", own.muladds)
            tracer.peak("denote.max_table", own.max_table)

    return counted


def _counted(tracer: Tracer, name: str, fn):
    def counted(*args, **kwargs):
        tracer.count(name, 1)
        return fn(*args, **kwargs)

    return counted


class Api:
    """The lve entry points an op calls. Untraced it holds the functions
    themselves; traced, each call records a span and the cross-module names
    inside lve are wrapped until `close`."""

    def __init__(self, tracer: Tracer | None = None) -> None:
        self.tracer = tracer
        self._patched: list[tuple[object, str, object]] = []
        originals = {key: getattr(lve_module(key[0]), key[1]) for key in TRACED}
        for (_, fname), fn in originals.items():
            setattr(self, fname, fn)
        if tracer is None:
            return
        hooks = _hooks(tracer)
        wrapped = {}
        for key, fn in originals.items():
            name = TRACED[key]
            if key == ("denote", "denote"):
                fn = _counted_denote(tracer, fn)
            wrapped[key] = tracer.wrap(name, fn, hooks.get(name))
            setattr(self, key[1], wrapped[key])
        for mod_name in LVE_MODULES:
            mod = lve_module(mod_name)
            for key, fn in originals.items():
                if key[0] != mod_name and getattr(mod, key[1], None) is fn:
                    self._patch(mod, key[1], wrapped[key])
        for mod_name, fname in OWN_NAMES:
            mod = lve_module(mod_name)
            fn = getattr(mod, fname)
            patched = wrapped.get((mod_name, fname)) or _counted(tracer, f"{mod_name}.{fname}.calls", fn)
            self._patch(mod, fname, patched)

    def _patch(self, mod, name: str, value) -> None:
        self._patched.append((mod, name, getattr(mod, name)))
        setattr(mod, name, value)

    def span(self, name: str):
        return self.tracer.span(name) if self.tracer is not None else contextlib.nullcontext()

    def count(self, name: str, value: float) -> None:
        if self.tracer is not None:
            self.tracer.count(name, value)

    def peak(self, name: str, value: float) -> None:
        if self.tracer is not None:
            self.tracer.peak(name, value)

    def close(self) -> None:
        """Restore every name this Api replaced inside lve."""
        for mod, name, value in reversed(self._patched):
            setattr(mod, name, value)
        self._patched.clear()


# ---------------------------------------------------------------- per-layer metrics

# metric -> the spans whose self time it sums, per op
SELF_TIME = {
    "parser.parse_s": ("parser.parse_program",),
    "network.compile_s": ("network.network_to_program",),
    "syntax.typecheck.self_s": ("syntax.typecheck",),
    "syntax.free_vars.self_s": ("syntax.free_vars",),
    "orderings.min_degree_s": ("orderings.min_degree_order",),
    "factors.factors_of_s": ("factors.factors_of",),
    "factors.eliminate_s": ("factors.eliminate",),
    "factors.marginal_s": ("factors.marginal",),
    "denote.denote_s": ("denote.denote",),
    "rewrite.eliminate_seq_s": ("rewrite.eliminate_seq", "rewrite.eliminate_term"),
    "verify.check_instance_s": ("verify.check_instance",),
    "verify.brute_force_joint_s": ("verify.brute_force_joint",),
}
# Grouping spans of the benchmark's own, reported with their children included.
INCLUSIVE_TIME = {"rewrite.readout_s": "rewrite.readout"}
CALLS = {
    "syntax.typecheck.calls": "syntax.typecheck",
    "syntax.free_vars.calls": "syntax.free_vars",
    "denote.calls": "denote.denote",
}
PER_OP_SUMS = (
    "rewrite.apply_rule.calls",
    "factors.vef_muladds",
    "factors.vef_bytes_computed",
    "denote.muladds",
    "rewrite.steps",
    *(f"rewrite.steps.{r}" for r in RULES),
    "rewrite.readout_muladds",
)
PER_OP_PEAKS = ("factors.vef_max_table", "denote.max_table", "rewrite.readout_max_table")
RATIOS = {
    "rewrite.swap_share": (tuple(f"rewrite.steps.{r}" for r in SWAPS), ("rewrite.steps",)),
    "rewrite.term_size_ratio": (("rewrite.size_after",), ("rewrite.size_before",)),
    "rewrite.readout_to_vef_muladds": (("rewrite.readout_muladds",), ("factors.vef_muladds",)),
}

UNITS = {
    **{m: "s" for m in SELF_TIME},
    **{m: "s" for m in INCLUSIVE_TIME},
    **{m: "count" for m in CALLS},
    **{m: "count" for m in PER_OP_SUMS},
    **{m: "count" for m in PER_OP_PEAKS},
    **{m: "ratio" for m in RATIOS},
    "factors.vef_bytes_computed": "B",
    "trace.overhead_share": "ratio",
}
COUNT_METRICS = tuple(CALLS) + PER_OP_SUMS + PER_OP_PEAKS + tuple(RATIOS)
NOTES = {
    **{m: "exact, per op over the count window" for m in COUNT_METRICS},
    **{m: "self time per op" for m in SELF_TIME},
    "rewrite.readout_s": "time per op, children included",
    "factors.vef_bytes_computed": "computed as 8 B per product-table entry, not measured",
    "rewrite.swap_share": "exact: swap steps / all steps",
    "rewrite.term_size_ratio": "exact: size after / size before rewriting",
    "rewrite.readout_to_vef_muladds": "exact: vel readout muladds / vef muladds",
    "trace.overhead_share": "traced / untraced time of the same ops - 1",
}
PER_LAYER = tuple(SELF_TIME) + tuple(INCLUSIVE_TIME) + COUNT_METRICS + ("trace.overhead_share",)


def span_times(spans: list[tuple]) -> dict[tuple[str, int], list[float]]:
    """(span name, op) -> [calls, total seconds, self seconds], from
    (name, start, end, parent, op) records."""
    spans = list(spans)
    covered = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    out: dict[tuple[str, int], list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
    for k, (name, start, end, _, op) in enumerate(spans):
        row = out[(name, op)]
        row[0] += 1
        row[1] += end - start
        row[2] += end - start - covered[k]
    return out


def time_metrics(times: dict, ops: list[int]) -> dict[str, float]:
    """Per-op mean self (or inclusive) seconds over the given ops."""
    n = len(ops)
    out = {}
    for metric, names in SELF_TIME.items():
        out[metric] = sum(times[(s, op)][2] for s in names for op in ops if (s, op) in times) / n
    for metric, name in INCLUSIVE_TIME.items():
        out[metric] = sum(times[(name, op)][1] for op in ops if (name, op) in times) / n
    return out


def count_metrics(tracer: Tracer, times: dict, ops: list[int]) -> dict[str, float]:
    """Per-op means of the exact counters over the given ops; peaks are
    averaged per op, ratios are ratios of sums (0 where nothing was counted)."""
    n = len(ops)
    out = {}
    for metric, name in CALLS.items():
        out[metric] = sum(times[(name, op)][0] for op in ops if (name, op) in times) / n
    totals: dict[str, float] = defaultdict(float)
    for op in ops:
        for name, v in tracer.sums.get(op, {}).items():
            totals[name] += v
    for metric in PER_OP_SUMS:
        out[metric] = totals[metric] / n
    for metric in PER_OP_PEAKS:
        out[metric] = sum(tracer.peaks.get(op, {}).get(metric, 0.0) for op in ops) / n
    for metric, (num, den) in RATIOS.items():
        d = sum(totals[x] for x in den)
        out[metric] = sum(totals[x] for x in num) / d if d else 0.0
    return out


def layer_table(times: dict, ops: list[int]) -> str:
    """Every span name with calls, inclusive and self seconds per op."""
    n = len(ops)
    agg: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
    wanted = set(ops)
    for (name, op), row in times.items():
        if op in wanted:
            for k in range(3):
                agg[name][k] += row[k]
    lines = [f"{'span':32} {'calls/op':>10} {'total s/op':>12} {'self s/op':>12}"]
    for name, (calls, total, own) in sorted(agg.items(), key=lambda kv: -kv[1][2]):
        lines.append(f"{name:32} {calls / n:10.1f} {total / n:12.6f} {own / n:12.6f}")
    return "\n".join(lines)
