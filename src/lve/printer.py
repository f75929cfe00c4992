"""Render terms and programs back into the text format.

`parse_program(program_str(p))` reproduces the program; tuples are printed
flat (`(x, y, z)`) and reparse to the same right-nested pairs.
"""

from __future__ import annotations

from .syntax import (
    ArrowApp,
    BOOL,
    Expr,
    Lam,
    Let,
    LetTerm,
    MatApp,
    Pair,
    PLeaf,
    PPair,
    Pattern,
    StochasticMatrix,
    Term,
    Var,
    Variable,
    collect_matrices,
    occurrences,
    type_str,
    walk,
)


def _num(v: float) -> str:
    return f"{v:.12g}"


def pattern_str(p: Pattern) -> str:
    if isinstance(p, PLeaf):
        return p.var.name
    parts = []
    while isinstance(p, PPair):
        parts.append(p.left)
        p = p.right
    parts.append(p)
    return "(" + ", ".join(pattern_str(q) for q in parts) + ")"


def _atom_str(e: Expr) -> str:
    """A variable or an application, the expressions without subexpressions."""
    if isinstance(e, Var):
        return e.var.name
    if isinstance(e, MatApp):
        if not e.args:
            return e.matrix.name
        return e.matrix.name + "(" + ", ".join(v.name for v in e.args) + ")"
    if isinstance(e, ArrowApp):
        args = []
        p = e.args
        while isinstance(p, PPair):
            args.append(p.left)
            p = p.right
        args.append(p)
        return e.fn.name + "(" + ", ".join(pattern_str(q) for q in args) + ")"
    raise TypeError(f"not an expression: {e!r}")


def expr_str(e: Expr) -> str:
    """Runs on `syntax.walk`, so nesting depth is not bounded by Python's
    recursion limit; an atom is printed without a generator."""
    return walk(e, _expr_str)


def _expr_str(e: Expr):
    return _inner_str(e) if isinstance(e, (Let, Lam, Pair)) else _atom_str(e)


def _inner_str(e: Let | Lam | Pair):
    if isinstance(e, Let):
        return f"let {pattern_str(e.binder)} = {(yield e.bound)} in {(yield e.body)}"
    if isinstance(e, Lam):
        return f"\\{pattern_str(e.param)}. {(yield e.body)}"
    parts = []
    while isinstance(e, Pair):
        parts.append((yield e.fst))
        e = e.snd
    parts.append((yield e))
    return "(" + ", ".join(parts) + ")"


def term_str(t: Term) -> str:
    if not isinstance(t, LetTerm):
        return expr_str(t)
    lines = [f"{pattern_str(binder)} = {expr_str(bound)};" for binder, bound in t.defs]
    lines.append(f"in {pattern_str(t.output)}")
    return "\n".join(lines)


def matrix_decl_str(m: StochasticMatrix) -> str:
    slots = " * ".join(type_str(s) for s in m.slots)
    rows = "; ".join(", ".join(_num(v) for v in row) for row in m.entries)
    return f"matrix {m.name} : {slots}{' ' if slots else ''}-> {type_str(m.out)} = [{rows}];"


def _typed_vars(t: Term) -> list[Variable]:
    """Variables needing a declaration (non-Bool type), in first-use order."""
    seen: dict[str, Variable] = {}
    for v in occurrences(t):
        if isinstance(v, Variable) and v.ty != BOOL:
            seen.setdefault(v.name, v)
    return list(seen.values())


def program_str(term: Term) -> str:
    """The term with every declaration it needs, ready to reparse."""
    lines = [matrix_decl_str(m) for m in collect_matrices(term)]
    lines.extend(f"var {v.name} : {type_str(v.ty)};" for v in _typed_vars(term))
    if lines:
        lines.append("")
    lines.append(term_str(term))
    return "\n".join(lines)
