"""Text format for programs.

A program is a sequence of declarations followed by one let-term::

    # matrices: rows enumerate the input web, columns the output web
    matrix Coin : -> Bool = [0.5, 0.5];
    matrix Copy : Bool -> (Bool * Bool) = [1, 0, 0, 0; 0, 0, 0, 1];
    var f : Bool -o Bool;

    x = Coin;
    (y, z) = Copy(x);
    in (y, z)

Types are `Bool`, tensors `A * B`, and arrows `P -o T` (both right
associative). In a matrix header the top-level `*` separates input slots;
parenthesize to give one slot a tensor type. Matrix rows are separated by `;`
inside the brackets and follow the web order of the slots, leftmost slot most
significant, `t` before `f`.

Undeclared lowercase names are variables of type Bool; other types must be
declared with `var`. A capitalized name is a matrix reference and must be
declared. Expressions: `f(x, y)` applies an arrow variable, `M(x, y)` applies
a matrix to variables, `(e1, e2, e3)` nests pairs to the right, `\\p. e` is
abstraction, and `let p = e in e'` is a local definition. `#` starts a
comment.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import NamedTuple

from .errors import NestingTooDeep, ParseError, UndeclaredArrowVariable, UndeclaredMatrix
from .syntax import (
    Arrow,
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
    Ty,
    Tensor,
    Var,
    Variable,
    web_size,
)

_TOKEN_RE = re.compile(
    r"""
      (?P<ws>[^\S\n]+|\#[^\n]*)
    | (?P<nl>\n)
    | (?P<ident>[A-Za-z_][A-Za-z0-9_']*)
    | (?P<number>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)
    | (?P<punct>->|-o|[()\[\],;:*=\\.])
    | (?P<bad>.)
    """,
    re.VERBOSE,
)
"""One group matches at every offset, so the matches tile the text; a
newline is a match of its own, so no other whitespace needs counting."""

_KEYWORDS = {"matrix", "var", "let", "in", "Bool"}


class Token(NamedTuple):
    kind: str
    text: str
    line: int
    col: int


def _tokenize(text: str) -> list[Token]:
    """The tokens, each with its line and its column, counted in characters
    from one; the column is the offset from where the line starts."""
    out: list[Token] = []
    line, start = 1, 0
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "ws":
            continue
        if kind == "nl":
            line += 1
            start = m.end()
            continue
        pos = m.start()
        if kind == "bad":
            raise ParseError(f"unexpected character {text[pos]!r}", line, pos - start + 1)
        lexeme = m.group()
        if kind == "ident" and lexeme in _KEYWORDS:
            kind = lexeme
        out.append(Token(kind, lexeme, line, pos - start + 1))
    out.append(Token("eof", "", line, len(text) - start + 1))
    return out


@dataclass
class SourceProgram:
    """Parsed declarations plus the program term."""

    matrices: dict[str, StochasticMatrix] = field(default_factory=dict)
    var_types: dict[str, Ty] = field(default_factory=dict)
    term: LetTerm = LetTerm((), PLeaf(Variable("x", BOOL)))


class _Parser:
    def __init__(self, text: str) -> None:
        self.toks = _tokenize(text)
        self.pos = 0
        self.matrices: dict[str, StochasticMatrix] = {}
        self.var_types: dict[str, Ty] = {}

    # ------------------------------------------------------------ plumbing

    def peek(self) -> Token:
        return self.toks[self.pos]

    def next(self) -> Token:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def expect(self, kind: str, what: str | None = None) -> Token:
        t = self.peek()
        if t.kind == "punct" and t.text == kind or t.kind == kind:
            return self.next()
        shown = what or repr(kind)
        found = t.text or "end of input"
        raise ParseError(f"expected {shown}, found {found!r}", t.line, t.col)

    def at_punct(self, text: str) -> bool:
        t = self.peek()
        return t.kind == "punct" and t.text == text

    def eat_punct(self, text: str) -> bool:
        if self.at_punct(text):
            self.next()
            return True
        return False

    # ------------------------------------------------------------ types

    def parse_type(self) -> Ty:
        left = self.parse_tensor()
        if self.eat_punct("-o"):
            return Arrow(left, self.parse_type())
        return left

    def parse_tensor(self) -> Ty:
        left = self.parse_type_atom()
        if self.eat_punct("*"):
            return Tensor(left, self.parse_tensor())
        return left

    def parse_type_atom(self) -> Ty:
        t = self.peek()
        if t.kind == "Bool":
            self.next()
            return BOOL
        if self.eat_punct("("):
            ty = self.parse_type()
            self.expect(")")
            return ty
        raise ParseError(f"expected a type, found {t.text or 'end of input'!r}", t.line, t.col)

    # ------------------------------------------------------------ declarations

    def parse_matrix_decl(self) -> None:
        self.expect("matrix")
        name_tok = self.expect("ident", "a matrix name")
        name = name_tok.text
        if name in self.matrices or name in self.var_types:
            raise ParseError(f"{name} declared twice", name_tok.line, name_tok.col)
        self.expect(":")
        slots: list[Ty] = []
        if not self.at_punct("->"):
            slots.append(self.parse_type_atom())
            while self.eat_punct("*"):
                slots.append(self.parse_type_atom())
        self.expect("->")
        out = self.parse_type()
        self.expect("=")
        self.expect("[")
        rows = [self.parse_row()]
        while self.eat_punct(";"):
            rows.append(self.parse_row())
        close = self.expect("]")
        self.expect(";")
        width = web_size(out)
        for r in rows:
            if len(r) != width:
                raise ParseError(
                    f"matrix {name}: row of length {len(r)}, output web has {width}",
                    close.line,
                    close.col,
                )
        expected_rows = 1
        for s in slots:
            expected_rows *= web_size(s)
        if len(rows) != expected_rows:
            raise ParseError(
                f"matrix {name}: {len(rows)} rows, input web has {expected_rows}",
                close.line,
                close.col,
            )
        self.matrices[name] = StochasticMatrix(name, tuple(slots), out, rows)

    def parse_row(self) -> list[float]:
        row = [float(self.expect("number", "a number").text)]
        while self.eat_punct(","):
            row.append(float(self.expect("number", "a number").text))
        return row

    def parse_var_decl(self) -> None:
        self.expect("var")
        name_tok = self.expect("ident", "a variable name")
        name = name_tok.text
        if name in self.matrices or name in self.var_types:
            raise ParseError(f"{name} declared twice", name_tok.line, name_tok.col)
        self.expect(":")
        self.var_types[name] = self.parse_type()
        self.expect(";")

    # ------------------------------------------------------------ variables and patterns

    def lookup_var(self, name: str, tok: Token) -> Variable:
        if name in self.matrices:
            raise ParseError(f"{name} is a matrix, not a variable", tok.line, tok.col)
        return Variable(name, self.var_types.get(name, BOOL))

    def parse_pattern(self) -> Pattern:
        if self.eat_punct("("):
            parts = [self.parse_pattern()]
            while self.eat_punct(","):
                parts.append(self.parse_pattern())
            self.expect(")")
            p = parts[-1]
            for q in reversed(parts[:-1]):
                p = PPair(q, p)
            return p
        tok = self.expect("ident", "a variable name")
        return PLeaf(self.lookup_var(tok.text, tok))

    # ------------------------------------------------------------ expressions

    def parse_expr(self) -> Expr:
        t = self.peek()
        if t.kind == "punct" and t.text == "\\":
            self.next()
            param = self.parse_pattern()
            self.expect(".")
            return Lam(param, self.parse_expr())
        if t.kind == "let":
            self.next()
            binder = self.parse_pattern()
            self.expect("=")
            bound = self.parse_expr()
            self.expect("in")
            return Let(binder, bound, self.parse_expr())
        return self.parse_atom()

    def parse_atom(self) -> Expr:
        t = self.peek()
        if self.eat_punct("("):
            parts = [self.parse_expr()]
            while self.eat_punct(","):
                parts.append(self.parse_expr())
            self.expect(")")
            e = parts[-1]
            for q in reversed(parts[:-1]):
                e = Pair(q, e)
            return e
        tok = self.expect("ident", "an expression")
        name = tok.text
        if name in self.matrices:
            return self.parse_matapp(self.matrices[name], tok)
        if name[0].isupper():
            raise UndeclaredMatrix(f"line {tok.line}: matrix {name} is not declared")
        if self.at_punct("("):
            ty = self.var_types.get(name)
            if not isinstance(ty, Arrow):
                raise UndeclaredArrowVariable(
                    f"line {tok.line}: {name} is applied but not declared with an arrow type"
                )
            fn = Variable(name, ty)
            self.expect("(")
            args = [self.parse_pattern()]
            while self.eat_punct(","):
                args.append(self.parse_pattern())
            self.expect(")")
            p = args[-1]
            for q in reversed(args[:-1]):
                p = PPair(q, p)
            return ArrowApp(fn, p)
        return Var(self.lookup_var(name, tok))

    def parse_matapp(self, m: StochasticMatrix, tok: Token) -> Expr:
        args: list[Variable] = []
        if self.eat_punct("("):
            if not self.at_punct(")"):
                args.append(self.parse_arg_var())
                while self.eat_punct(","):
                    args.append(self.parse_arg_var())
            self.expect(")")
        if len(args) != len(m.slots):
            raise ParseError(
                f"matrix {m.name} takes {len(m.slots)} arguments, got {len(args)}",
                tok.line,
                tok.col,
            )
        return MatApp(m, tuple(args))

    def parse_arg_var(self) -> Variable:
        tok = self.expect("ident", "a variable name")
        return self.lookup_var(tok.text, tok)

    # ------------------------------------------------------------ program

    def parse_program(self) -> SourceProgram:
        while True:
            t = self.peek()
            if t.kind == "matrix":
                self.parse_matrix_decl()
            elif t.kind == "var":
                self.parse_var_decl()
            else:
                break
        defs: list[tuple[Pattern, Expr]] = []
        while not self.peek().kind == "in":
            t = self.peek()
            if t.kind == "eof":
                raise ParseError("expected a definition or 'in'", t.line, t.col)
            binder = self.parse_pattern()
            self.expect("=")
            bound = self.parse_expr()
            self.expect(";")
            defs.append((binder, bound))
        self.expect("in")
        output = self.parse_pattern()
        t = self.peek()
        if t.kind != "eof":
            raise ParseError(f"trailing input {t.text!r}", t.line, t.col)
        return SourceProgram(self.matrices, self.var_types, LetTerm(tuple(defs), output))


def parse_program(text: str) -> SourceProgram:
    parser = _Parser(text)
    try:
        return parser.parse_program()
    except RecursionError:
        t = parser.peek()
        raise NestingTooDeep(t.line, t.col) from None
