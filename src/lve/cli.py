"""Command line interface.

    lve check FILE            parse, typecheck, report type and mass
    lve denote FILE           joint distribution over the output web
    lve facts FILE            the factor multiset of the term
    lve vef FILE              classical variable elimination on the factors
    lve vel FILE              variable elimination by term rewriting
    lve compare FILE          all four routes side by side; exit 1 on mismatch
    lve cost FILE             operation counts of the classical route
    lve orderings FILE        an elimination order from a heuristic

FILE ending in .json, in any case, is read as a Bayesian network, anything
else as program text. Exit status: 0 on success, 1 when a verification fails, 2 on bad input.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .cost import DEFAULT_WEB_CAP
from .denote import DenoteContext, total_mass_check
from .errors import InOutput, LveError, NonFinite, NotClosed, RepeatedInOrder, UnknownVariable
from .factors import FactorSet, dump_factors, eliminate, factors_of, marginal, plan_elimination
from .network import load_network
from .orderings import min_degree_order, random_order
from .parser import SourceProgram, parse_program
from .printer import program_str
from .rewrite import RewriteStep, eliminate_seq, simplify
from .syntax import (
    LetTerm,
    Variable,
    collect_matrices,
    factor_scopes,
    free_vars,
    pattern_fv,
    pattern_type,
    pattern_vars,
    type_str,
    typecheck,
)
from .verify import ROUTES, compare_routes
from .webs import _size_str, enumerate_web, sorted_vars


def _fmt(v: float) -> str:
    return f"{v:.12g}"


def _load(path: str, check_stochastic: bool) -> SourceProgram:
    if path.lower().endswith(".json"):
        program = load_network(path)
    else:
        try:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
        except UnicodeDecodeError as err:
            raise LveError(f"{path}: not UTF-8 text: {err}") from None
        program = parse_program(text)
    typecheck(program.term)
    if check_stochastic:
        bad = [m.name for m in collect_matrices(program.term) if not m.stochastic]
        if bad:
            raise LveError(
                f"matrices with rows not summing to one: {', '.join(bad)}"
                " (pass --no-stochastic-check to allow)"
            )
    return program


def _parse_order(term: LetTerm, names: str | None) -> list[Variable]:
    if names is None:
        return min_degree_order(term)
    by_name = {v.name: v for v in term.defined_vars()}
    output = pattern_fv(term.output)
    order: dict[Variable, None] = {}
    for name in names.split(","):
        name = name.strip()
        if name not in by_name:
            raise UnknownVariable(f"--order names {name!r}, which is not defined in the term")
        if by_name[name] in output:
            raise InOutput(f"--order names {name!r}, which occurs in the output pattern")
        if by_name[name] in order:
            raise RepeatedInOrder(f"--order names {name!r} twice")
        order[by_name[name]] = None
    return list(order)


def _print_marginal(term: LetTerm, values) -> None:
    for elem, v in zip(enumerate_web(pattern_type(term.output)), values):
        print(f"{elem}: {_fmt(v)}")


def _print_factors(fs: FactorSet) -> None:
    if not all(np.isfinite(f.table).all() for f in fs.factors):
        raise NonFinite("a factor table is not finite")
    print(dump_factors(fs))


def _step_str(s: RewriteStep) -> str:
    if s.var is not None:
        return f"{s.rule}[{s.var.name}]@{s.position}"
    return f"{s.rule}@{s.position}"


def positive_int(text: str) -> int:
    cap = int(text)  # argparse reports a ValueError as an invalid value
    if cap < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {cap}")
    return cap


def main(argv: list[str] | None = None) -> int:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("file", help="program text or a .json network")
    common.add_argument("--web-cap", type=positive_int, default=DEFAULT_WEB_CAP, help="largest web to materialize")
    common.add_argument(
        "--no-stochastic-check",
        action="store_true",
        help="accept matrices whose rows do not sum to one",
    )

    top = argparse.ArgumentParser(prog="lve", description=__doc__.split("\n\n")[0])
    sub = top.add_subparsers(dest="command", required=True)

    sub.add_parser("check", parents=[common])
    p = sub.add_parser("denote", parents=[common])
    p.add_argument("--json", action="store_true")
    sub.add_parser("facts", parents=[common])
    p = sub.add_parser("vef", parents=[common])
    p.add_argument("--order", help="comma separated variables; min-degree when omitted")
    p = sub.add_parser("vel", parents=[common])
    p.add_argument("--order")
    p.add_argument("--emit-term", action="store_true", help="print the rewritten program")
    p.add_argument("--trace", action="store_true", help="print every rule application")
    p.add_argument("--simplify", action="store_true", help="clean up administrative lets first")
    p = sub.add_parser("compare", parents=[common])
    p.add_argument("--order")
    p.add_argument("--json", action="store_true")
    p = sub.add_parser("cost", parents=[common])
    p.add_argument("--order")
    p = sub.add_parser("orderings", parents=[common])
    p.add_argument("--heuristic", choices=("min-degree", "random"), default="min-degree")
    p.add_argument("--seed", type=int, default=0, help="seed for the random heuristic")

    args = top.parse_args(argv)
    try:
        # Every route raises `NonFinite` on an answer that overflowed; numpy's warnings would repeat it.
        with np.errstate(over="ignore", invalid="ignore"):
            return _dispatch(args)
    except (LveError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except RecursionError:
        print("error: term nests too deeply for Python's recursion limit", file=sys.stderr)
        return 2


def _dispatch(args: argparse.Namespace) -> int:
    program = _load(args.file, not args.no_stochastic_check)
    term = program.term
    ctx = DenoteContext(web_cap=args.web_cap)

    if args.command == "check":
        ty = typecheck(term)
        print(f"type: {type_str(ty)}")
        fv = sorted(v.name for v in free_vars(term))
        if fv:
            print(f"free: {' '.join(fv)}")
        used = collect_matrices(term)
        flat = sum(1 for m in used if m.stochastic)
        print(f"matrices: {len(used)} ({flat} stochastic)")
        if not fv and all(m.stochastic for m in used):
            mass = total_mass_check(term, ctx)
            print(f"mass: {_fmt(mass.mass)} expected {mass.expected}")
            if not mass.ok:
                print("mass check failed")
                return 1
        print("ok")
        return 0

    if args.command == "denote":
        values = ROUTES["denote"](term, [], ctx).marginal
        ty, out_names = pattern_type(term.output), [v.name for v in pattern_vars(term.output)]
        if args.json:
            payload = {
                "output": out_names,
                "type": type_str(ty),
                "web": [str(e) for e in enumerate_web(ty)],
                "values": [float(v) for v in values],
            }
            print(json.dumps(payload))
        else:
            print(f"output: {' '.join(out_names)}")
            _print_marginal(term, values)
        return 0

    if args.command == "facts":
        _print_factors(factors_of(term, ctx))
        return 0

    if args.command == "orderings":
        if args.heuristic == "min-degree":
            order = min_degree_order(term)
        else:
            order = random_order(term, args.seed)
        print(",".join(v.name for v in order))
        return 0

    order = _parse_order(term, args.order)
    if free_vars(term):
        if args.command == "vel" and not args.emit_term:
            raise NotClosed("vel needs a closed program unless --emit-term is given")
        if args.command == "compare":
            raise NotClosed("compare needs a closed program")
    if not (args.command == "compare" and args.json):
        quiet = args.command == "vel" and args.emit_term
        print(f"order: {','.join(v.name for v in order)}", file=sys.stderr if quiet else sys.stdout)

    if args.command in ("vef", "cost"):
        if args.command == "cost":  # the plan on the factors' scopes: no table, so no cap
            _, counter = plan_elimination([sorted_vars(s) for s, _ in factor_scopes(term)], order, None)
        else:
            fs = eliminate(factors_of(term, ctx), order, args.web_cap)
            _print_factors(fs)
            counter = fs.counter
        print(f"muladds: {counter.muladds}")
        print(f"max_table: {_size_str(counter.max_table)}")
        return 0

    if args.command == "vel":
        final, trace = eliminate_seq(term, order)
        if args.simplify:
            final = simplify(final)
        status = sys.stderr if args.emit_term else sys.stdout
        print(f"steps: {len(trace.steps)}", file=status)
        if args.trace:
            for s in trace.steps:
                print(_step_str(s), file=status)
        if args.emit_term:
            print(program_str(final))
        else:
            _print_marginal(term, marginal(factors_of(final, ctx), term.output, args.web_cap))
        return 0

    # The one command left is compare.
    ran, skipped, diff, agree = compare_routes(term, order, args.web_cap)

    if args.json:
        payload: dict = {
            "order": [v.name for v in order],
            "output": [v.name for v in pattern_vars(term.output)],
            "web": [str(e) for e in enumerate_web(pattern_type(term.output))],
        }
        for name in ROUTES:
            if name in skipped:
                payload[name] = {"skipped": str(skipped[name])}
                continue
            run = ran[name]
            payload[name] = {"values": run.marginal.tolist(), "muladds": run.muladds, "max_table": run.max_table}
            if run.steps is not None:
                payload[name]["steps"] = run.steps
        payload["max_diff"] = diff
        payload["agree"] = agree
        print(json.dumps(payload))
    else:
        for name in ROUTES:
            if name in skipped:
                print(f"{name}: skipped ({skipped[name]})")
            else:
                print(f"{name}:")
                _print_marginal(term, ran[name].marginal)
        for name, run in ran.items():
            extra = "" if run.steps is None else f" steps={run.steps}"
            print(f"{name} cost: muladds={run.muladds} max_table={run.max_table}{extra}")
        print(f"max_diff: {diff:.3g}")
        print(f"agree: {'yes' if agree else 'no'}")
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())
