"""Surface syntax: parsing, printing, and their round trips."""

from __future__ import annotations

import random
import re

import numpy as np
import pytest

from lve.denote import denote, joint_vector
from lve.errors import ParseError, UndeclaredArrowVariable, UndeclaredMatrix
from lve.network import network_to_program
from lve.parser import _position, _scan, parse_program
from lve.printer import expr_str, matrix_decl_str, pattern_str, program_str, term_str
from lve.syntax import (
    BOOL,
    Arrow,
    PLeaf,
    PPair,
    Tensor,
    alpha_eq,
    pattern_vars,
    typecheck,
)
from helpers import SIXNODE_JOINT, bench_module, bvar


def test_sixnode_parses(sixnode):
    assert sorted(sixnode.matrices) == ["M1", "M2", "M3", "M4", "M5", "M6"]
    assert all(m.stochastic for m in sixnode.matrices.values())
    term = sixnode.term
    assert len(term.defs) == 6
    assert [v.name for v in pattern_vars(term.output)] == ["x3", "x6"]
    assert typecheck(term) == Tensor(BOOL, BOOL)


def test_matrix_decl_details(sixnode):
    m5 = sixnode.matrices["M5"]
    assert m5.slots == (BOOL, BOOL)
    assert m5.out == BOOL
    assert m5.entries.shape == (4, 2)
    assert m5.entries[2, 0] == 0.55  # row for (f, t), column t


def test_sixnode_round_trip(sixnode_text, sixnode):
    text = program_str(sixnode.term)
    reparsed = parse_program(text)
    assert alpha_eq(reparsed.term, sixnode.term)
    assert program_str(reparsed.term) == text  # printing is a fixed point
    values = joint_vector(denote(reparsed.term))
    assert np.allclose(values, SIXNODE_JOINT, atol=1e-12)


def test_comments_and_whitespace():
    prog = parse_program(
        """
        # leading comment
        matrix C : -> Bool = [0.5, 0.5];  # trailing comment
        x = C;
        in x  # done
        """
    )
    assert len(prog.term.defs) == 1


def test_apostrophe_identifiers():
    prog = parse_program(
        "matrix C : -> Bool = [0.5, 0.5];\nv = C;\nv' = v;\nin (v, v')"
    )
    names = [v.name for v in pattern_vars(prog.term.output)]
    assert names == ["v", "v'"]


def test_nary_tuples_nest_right():
    prog = parse_program(
        "matrix C : -> Bool = [0.5, 0.5];\na = C;\nb = C;\nc = C;\nin (a, b, c)"
    )
    out = prog.term.output
    assert isinstance(out, PPair)
    assert isinstance(out.left, PLeaf)
    assert isinstance(out.right, PPair)


def test_pattern_binders():
    prog = parse_program(
        "matrix D : -> (Bool * Bool) = [0.1, 0.2, 0.3, 0.4];\n(a, b) = D;\nin (b, a)"
    )
    binder = prog.term.defs[0][0]
    assert [v.name for v in pattern_vars(binder)] == ["a", "b"]


def test_nested_let_and_lambda():
    prog = parse_program(
        "matrix C : -> Bool = [0.5, 0.5];\n"
        "matrix M : Bool -> Bool = [0.8, 0.2; 0.1, 0.9];\n"
        "var f : Bool -o Bool;\n"
        "y = let x = C in (let f = \\z. M(z) in f(x));\n"
        "in y"
    )
    assert typecheck(prog.term) == BOOL
    values = joint_vector(denote(prog.term))
    assert np.allclose(values, [0.45, 0.55], atol=1e-12)


def test_var_decl_controls_type():
    prog = parse_program("var p : Bool * Bool;\nmatrix C : (Bool * Bool) -> Bool = "
                         "[1, 0; 1, 0; 1, 0; 0, 1];\ny = C(p);\nin y")
    assert prog.var_types["p"] == Tensor(BOOL, BOOL)
    (free,) = {v for v in prog.term.defs[0][1].args}
    assert free.ty == Tensor(BOOL, BOOL)


def test_undeclared_positive_vars_default_to_bool():
    prog = parse_program("matrix M : Bool -> Bool = [1, 0; 0, 1];\ny = M(x);\nin y")
    (arg,) = prog.term.defs[0][1].args
    assert arg.ty == BOOL


def test_undeclared_matrix():
    with pytest.raises(UndeclaredMatrix):
        parse_program("y = Zap(x);\nin y")


def test_undeclared_arrow_variable():
    with pytest.raises(UndeclaredArrowVariable):
        parse_program("y = f(x);\nin y")


def test_declared_arrow_variable_ok():
    prog = parse_program("var f : Bool -o Bool;\ny = f(x);\nin y")
    assert prog.var_types["f"] == Arrow(BOOL, BOOL)


def test_stochastic_flag_detection():
    good = parse_program("matrix C : -> Bool = [0.25, 0.75];\nx = C;\nin x")
    assert good.matrices["C"].stochastic
    bad = parse_program("matrix C : -> Bool = [0.25, 0.5];\nx = C;\nin x")
    assert not bad.matrices["C"].stochastic


def test_matrix_shape_checked():
    with pytest.raises(Exception):
        parse_program("matrix C : -> Bool = [0.5, 0.25, 0.25];\nx = C;\nin x")


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as err:
        parse_program("matrix C : -> Bool = [0.5, 0.5]\nx = C;\nin x")
    assert "2:" in str(err.value)  # the missing semicolon surfaces on line 2


def test_parse_error_on_garbage():
    with pytest.raises(ParseError):
        parse_program("matrix C : -> Bool = [0.5, 0.5];\nx = C;\nin x; y")
    with pytest.raises(ParseError):
        parse_program("")
    with pytest.raises(ParseError):
        parse_program("x = @;\nin x")


def test_matapp_args_must_be_bare_variables():
    with pytest.raises(ParseError):
        parse_program(
            "matrix M : Bool -> Bool = [1, 0; 0, 1];\ny = M((a, b));\nin y"
        )


def test_bench_chain_texts_reparse_to_their_networks():
    # The chain workload's texts print back unchanged, and every parsed
    # matrix holds the table and flag of the network node it was printed from.
    gen = bench_module("gen")
    rng = random.Random(1)  # the draws gen.chain_texts(1) makes, in its order
    networks = [gen.chain_network(n, rng) for n in gen.chain_lengths(rng)]
    texts = gen.chain_texts(1)
    assert len(texts) == len(networks) == gen.CHAIN_POOL
    for text, network in zip(texts, networks):
        parsed, compiled = parse_program(text), network_to_program(network)
        assert program_str(parsed.term) == program_str(compiled.term) == text
        assert parsed.matrices.keys() == compiled.matrices.keys()
        for name, m in compiled.matrices.items():
            p = parsed.matrices[name]
            assert (p.slots, p.out, p.stochastic) == (m.slots, m.out, m.stochastic), name
            assert np.array_equal(p.entries, m.entries), name


def test_printer_pattern_and_expr():
    a, b, c = bvar("a"), bvar("b"), bvar("c")
    p = PPair(PLeaf(a), PPair(PLeaf(b), PLeaf(c)))
    assert pattern_str(p) == "(a, b, c)"  # right spines print flat


def test_printer_round_trips_golden_fixtures(golden_dir):
    for name in ("after_x1", "after_x2", "after_x4", "after_x5"):
        text = (golden_dir / f"{name}.lve").read_text()
        prog = parse_program(text)
        again = parse_program(program_str(prog.term))
        assert alpha_eq(again.term, prog.term), name


def test_matrix_decl_str(sixnode):
    line = matrix_decl_str(sixnode.matrices["M2"])
    assert line == "matrix M2 : Bool -> Bool = [0.8, 0.2; 0.1, 0.9];"
    nullary = matrix_decl_str(sixnode.matrices["M1"])
    assert nullary == "matrix M1 : -> Bool = [0.3, 0.7];"


def test_term_str_round_trip(sixnode):
    text = term_str(sixnode.term)
    assert text.startswith("x1 = M1;")
    assert text.endswith("in (x3, x6)")


def test_expr_str_application():
    prog = parse_program(
        "matrix M : Bool * Bool -> Bool = [1, 0; 1, 0; 1, 0; 0, 1];\ny = M(a, b);\nin y"
    )
    assert expr_str(prog.term.defs[0][1]) == "M(a, b)"


# ---------------------------------------------------------------- tokens and positions


_REFERENCE_RE = re.compile(
    r"""
      (?P<ws>\s+|\#[^\n]*)
    | (?P<number>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)
    | (?P<ident>[A-Za-z_][A-Za-z0-9_']*)
    | (?P<punct>->|-o|[()\[\],;:*=\\.])
    """,
    re.VERBOSE,
)


def _reference_tokenize(text: str) -> list[tuple[str, str, int, int]]:
    """The tokenizer the parser had before: one match at a time, counting
    the newlines and columns of every lexeme, whitespace included."""
    out = []
    line, col, pos = 1, 1, 0
    while pos < len(text):
        m = _REFERENCE_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        lexeme = m.group(0)
        if m.lastgroup != "ws":
            kind = m.lastgroup or ""
            if kind == "ident" and lexeme in {"matrix", "var", "let", "in", "Bool"}:
                kind = lexeme
            out.append((kind, lexeme, line, col))
        newlines = lexeme.count("\n")
        if newlines:
            line += newlines
            col = len(lexeme) - lexeme.rfind("\n")
        else:
            col += len(lexeme)
        pos = m.end()
    out.append(("eof", "", line, col))
    return out


# One source per kind of error the parser reports, with its message. Tabs,
# carriage returns and comments each count as columns of their line.
PARSE_ERRORS = [
    ("# a comment\n\tx = M(y) $ ;", ParseError, "2:11: unexpected character '$'"),
    ("matrix M : -> Bool = [0.5, 0.5]\r\nx = M;\nin x", ParseError, "2:1: expected ';', found 'x'"),
    ("var f :\n   ;", ParseError, "2:4: expected a type, found ';'"),
    ("matrix M : -> Bool = [1, 0];\nmatrix M : -> Bool = [1, 0];\nx = M;\nin x", ParseError, "2:8: M declared twice"),
    ("matrix M : -> Bool = [1, 0, 0];\nx = M;\nin x", ParseError, "1:30: matrix M: row of length 3, output web has 2"),
    ("matrix M : Bool -> Bool = [1, 0];\nx = M(y);\nin x", ParseError, "1:32: matrix M: 1 rows, input web has 2"),
    ("matrix M : -> Bool = [1, 0];\nx = M;\nin M", ParseError, "3:4: M is a matrix, not a variable"),
    ("matrix M : Bool -> Bool = [1, 0; 0, 1];\n  x = M;\nin x", ParseError, "2:7: matrix M takes 1 arguments, got 0"),
    ("x = y;\n  # no output\n", ParseError, "3:1: expected a definition or 'in'"),
    ("x = y;\nin x x", ParseError, "2:6: trailing input 'x'"),
    ("x = N;\n\nin x", UndeclaredMatrix, "line 1: matrix N is not declared"),
    ("x = y;\ny2 = f(y);\nin x", UndeclaredArrowVariable, "line 2: f is applied but not declared with an arrow type"),
]


@pytest.mark.parametrize("source, error, message", PARSE_ERRORS)
def test_parse_errors_keep_their_messages_and_positions(source, error, message):
    with pytest.raises(error) as info:
        parse_program(source)
    assert type(info.value) is error
    assert str(info.value) == message


def _token_stream(text: str) -> list[tuple[str, str, int, int]]:
    """The scanner's tokens in the reference tokenizer's terms, with each
    position looked up as a parse error would look it up."""
    fixed, names, numbers = _scan(text)
    out = []
    for i, (lexeme, name, number) in enumerate(zip(fixed, names, numbers)):
        if lexeme == "":
            kind = "eof"
        elif lexeme is not None:
            kind = lexeme if lexeme in {"matrix", "var", "let", "in", "Bool"} else "punct"
        elif name is not None:
            kind, lexeme = "ident", name
        else:
            kind, lexeme = "number", number
        out.append((kind, lexeme, *_position(text, i)))
    return out


def test_token_streams_match_the_reference_tokenizer(samples_dir, golden_dir):
    texts = [p.read_text() for p in sorted(samples_dir.glob("*.lve")) + sorted(golden_dir.glob("*.lve"))]
    texts += [source for source, _, _ in PARSE_ERRORS] + ["\r\n\t x\x0b=\x0cy; in x", ""]
    for text in texts:
        try:
            expected = _reference_tokenize(text)
        except ParseError as err:
            with pytest.raises(ParseError, match=re.escape(str(err))):
                _scan(text)
        else:
            assert _token_stream(text) == expected


def test_token_positions_on_sixnode(sixnode_text):
    tokens = _token_stream(sixnode_text)
    assert tokens[:3] == [("matrix", "matrix", 4, 1), ("ident", "M1", 4, 8), ("punct", ":", 4, 11)]
    assert tokens[-4:] == [
        ("punct", ",", 17, 7),
        ("ident", "x6", 17, 9),
        ("punct", ")", 17, 11),
        ("eof", "", 18, 1),
    ]
