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
from itertools import islice

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
    \s*(?:\#[^\n]*\s*)*
    (?:
        ( (?:matrix|var|let|in|Bool)(?![A-Za-z0-9_'])
        | ->|-o|[()\[\],;:*=\\]|\.(?!\d)
        | \Z )
      | ([A-Za-z_][A-Za-z0-9_']*)
      | (\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)
      | (.)
    )
    """,
    re.VERBOSE,
)
"""One match per token, the blanks and comments before it included: group 1
is a keyword, a punctuation mark or the end of the text (as ""), group 2 a
name, group 3 a number and group 4 a character no token starts with. After
the blanks comes a token, a stray character or the end, so the matches tile
the text."""


def _scan(text: str) -> tuple[list, list, list]:
    """The tokens as three parallel lists, each holding a token's lexeme
    where it is of that list's kind and None elsewhere: keywords, punctuation
    and the final end token "" (a keyword or punctuation mark is its own
    kind), names, and numbers."""
    parts = _TOKEN_RE.split(text)  # per match: the empty text before it, then its four groups
    if parts[-10:-9] == [""]:
        # Blanks at the end match together with the end; the empty match after them is a second end.
        del parts[-5:]
    stray = parts[4::5]
    if any(stray):
        i = next(i for i, c in enumerate(stray) if c)
        raise ParseError(f"unexpected character {stray[i]!r}", *_position(text, i))
    return parts[1::5], parts[2::5], parts[3::5]


def _position(text: str, i: int) -> tuple[int, int]:
    """Token i's line and column, counted in characters from one: the column
    is the offset from where the line starts, so tabs, carriage returns and
    comments count as one column per character. Worked out only for errors."""
    m = next(islice(_TOKEN_RE.finditer(text), i, None))
    offset = m.start(m.lastindex)
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


@dataclass
class SourceProgram:
    """Parsed declarations plus the program term."""

    matrices: dict[str, StochasticMatrix] = field(default_factory=dict)
    var_types: dict[str, Ty] = field(default_factory=dict)
    term: LetTerm = LetTerm((), PLeaf(Variable("x", BOOL)))


class _Parser:
    def __init__(self, text: str) -> None:
        self.text = text
        self.fixed, self.names, self.numbers = _scan(text)
        self.pos = 0
        self.matrices: dict[str, StochasticMatrix] = {}
        self.var_types: dict[str, Ty] = {}

    # ------------------------------------------------------------ plumbing

    def error(self, message: str, at: int | None = None) -> ParseError:
        return ParseError(message, *_position(self.text, self.pos if at is None else at))

    def lexeme(self) -> str:
        """The current token's text; "" at the end."""
        i = self.pos
        return self.fixed[i] if self.fixed[i] is not None else self.names[i] or self.numbers[i]

    def expected(self, what: str) -> ParseError:
        return self.error(f"expected {what}, found {self.lexeme() or 'end of input'!r}")

    def expect(self, lexeme: str) -> None:
        """Step over one keyword or punctuation mark."""
        if self.fixed[self.pos] != lexeme:
            raise self.expected(repr(lexeme))
        self.pos += 1

    def eat(self, lexeme: str) -> bool:
        if self.fixed[self.pos] == lexeme:
            self.pos += 1
            return True
        return False

    def name(self, what: str) -> str:
        name = self.names[self.pos]
        if name is None:
            raise self.expected(what)
        self.pos += 1
        return name

    # ------------------------------------------------------------ types

    def parse_type(self) -> Ty:
        left = self.parse_tensor()
        if self.eat("-o"):
            return Arrow(left, self.parse_type())
        return left

    def parse_tensor(self) -> Ty:
        left = self.parse_type_atom()
        if self.eat("*"):
            return Tensor(left, self.parse_tensor())
        return left

    def parse_type_atom(self) -> Ty:
        if self.eat("Bool"):
            return BOOL
        if self.eat("("):
            ty = self.parse_type()
            self.expect(")")
            return ty
        raise self.expected("a type")

    # ------------------------------------------------------------ declarations

    def declare(self, what: str) -> str:
        at = self.pos
        name = self.name(what)
        if name in self.matrices or name in self.var_types:
            raise self.error(f"{name} declared twice", at)
        self.expect(":")
        return name

    def parse_matrix_decl(self) -> None:
        name = self.declare("a matrix name")
        slots: list[Ty] = []
        if self.fixed[self.pos] != "->":
            slots.append(self.parse_type_atom())
            while self.eat("*"):
                slots.append(self.parse_type_atom())
        self.expect("->")
        out = self.parse_type()
        self.expect("=")
        self.expect("[")
        rows = self.parse_rows()
        close = self.pos
        self.expect("]")
        self.expect(";")
        width = web_size(out)
        for r in rows:
            if len(r) != width:
                raise self.error(f"matrix {name}: row of length {len(r)}, output web has {width}", close)
        expected_rows = 1
        for s in slots:
            expected_rows *= web_size(s)
        if len(rows) != expected_rows:
            raise self.error(f"matrix {name}: {len(rows)} rows, input web has {expected_rows}", close)
        self.matrices[name] = StochasticMatrix(name, tuple(slots), out, rows)

    def parse_rows(self) -> list[list[float]]:
        """Numbers separated by `,` within a row and `;` between rows."""
        fixed, numbers = self.fixed, self.numbers
        row: list[float] = []
        rows = [row]
        i = self.pos
        while True:
            number = numbers[i]
            if number is None:
                self.pos = i
                raise self.expected("a number")
            row.append(float(number))
            sep = fixed[i + 1]
            i += 2
            if sep == ";":
                row = []
                rows.append(row)
            elif sep != ",":
                self.pos = i - 1
                return rows

    def parse_var_decl(self) -> None:
        name = self.declare("a variable name")
        self.var_types[name] = self.parse_type()
        self.expect(";")

    # ------------------------------------------------------------ variables and patterns

    def variable(self) -> Variable:
        name = self.names[self.pos]
        if name is None:
            raise self.expected("a variable name")
        if name in self.matrices:
            raise self.error(f"{name} is a matrix, not a variable")
        self.pos += 1
        return Variable(name, self.var_types.get(name, BOOL))

    def parse_pattern(self) -> Pattern:
        if self.eat("("):
            return self.parse_tuple_pattern()
        return PLeaf(self.variable())

    def parse_tuple_pattern(self) -> Pattern:
        """`p1, ..., pn)` after its `(`, nested to the right."""
        parts = [self.parse_pattern()]
        while self.eat(","):
            parts.append(self.parse_pattern())
        self.expect(")")
        p = parts[-1]
        for q in reversed(parts[:-1]):
            p = PPair(q, p)
        return p

    # ------------------------------------------------------------ expressions

    def parse_expr(self) -> Expr:
        t = self.fixed[self.pos]
        if t == "\\":
            self.pos += 1
            param = self.parse_pattern()
            self.expect(".")
            return Lam(param, self.parse_expr())
        if t == "let":
            self.pos += 1
            binder = self.parse_pattern()
            self.expect("=")
            bound = self.parse_expr()
            self.expect("in")
            return Let(binder, bound, self.parse_expr())
        if t == "(":
            self.pos += 1
            parts = [self.parse_expr()]
            while self.eat(","):
                parts.append(self.parse_expr())
            self.expect(")")
            e = parts[-1]
            for q in reversed(parts[:-1]):
                e = Pair(q, e)
            return e
        at = self.pos
        name = self.name("an expression")
        m = self.matrices.get(name)
        if m is not None:
            return self.parse_matapp(m, at)
        if name[0].isupper():
            raise UndeclaredMatrix(f"line {_position(self.text, at)[0]}: matrix {name} is not declared")
        if self.eat("("):
            ty = self.var_types.get(name)
            if not isinstance(ty, Arrow):
                raise UndeclaredArrowVariable(
                    f"line {_position(self.text, at)[0]}: {name} is applied but not declared with an arrow type"
                )
            return ArrowApp(Variable(name, ty), self.parse_tuple_pattern())
        return Var(Variable(name, self.var_types.get(name, BOOL)))

    def parse_matapp(self, m: StochasticMatrix, at: int) -> Expr:
        args: list[Variable] = []
        if self.eat("("):
            if self.fixed[self.pos] != ")":
                args.append(self.variable())
                while self.eat(","):
                    args.append(self.variable())
            self.expect(")")
        if len(args) != len(m.slots):
            raise self.error(f"matrix {m.name} takes {len(m.slots)} arguments, got {len(args)}", at)
        return MatApp(m, tuple(args))

    # ------------------------------------------------------------ program

    def parse_program(self) -> SourceProgram:
        fixed = self.fixed
        while True:
            if self.eat("matrix"):
                self.parse_matrix_decl()
            elif self.eat("var"):
                self.parse_var_decl()
            else:
                break
        defs: list[tuple[Pattern, Expr]] = []
        while fixed[self.pos] != "in":
            if fixed[self.pos] == "":
                raise self.error("expected a definition or 'in'")
            binder = self.parse_pattern()
            self.expect("=")
            bound = self.parse_expr()
            self.expect(";")
            defs.append((binder, bound))
        self.pos += 1
        output = self.parse_pattern()
        if fixed[self.pos] != "":
            raise self.error(f"trailing input {self.lexeme()!r}")
        return SourceProgram(self.matrices, self.var_types, LetTerm(tuple(defs), output))


def parse_program(text: str) -> SourceProgram:
    parser = _Parser(text)
    try:
        return parser.parse_program()
    except RecursionError:
        raise NestingTooDeep(*_position(text, parser.pos)) from None
