"""The command line interface, run in-process."""

from __future__ import annotations

import json

import numpy as np
import pytest

from lve.cli import main
from lve.denote import denote, joint_vector
from lve.errors import ParseError
from lve.parser import parse_program
from helpers import SIXNODE_JOINT


@pytest.fixture
def run(capsys):
    def invoke(*argv: str) -> tuple[int, str, str]:
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return invoke


@pytest.fixture
def sixnode_path(samples_dir):
    return str(samples_dir / "sixnode.lve")


def test_check(run, sixnode_path):
    code, out, _ = run("check", sixnode_path)
    assert code == 0
    assert out.splitlines() == [
        "type: (Bool * Bool)",
        "matrices: 6 (6 stochastic)",
        "mass: 1 expected 1",
        "ok",
    ]


def test_check_open_program(run, tmp_path):
    path = tmp_path / "open.lve"
    path.write_text("matrix M : Bool -> Bool = [1, 0; 0, 1];\ny = M(x);\nin y")
    code, out, _ = run("check", str(path))
    assert code == 0
    lines = out.splitlines()
    assert "free: x" in lines
    assert not any(line.startswith("mass:") for line in lines)  # open: no mass check


def test_check_json_network(run, samples_dir):
    code, out, _ = run("check", str(samples_dir / "sixnode.json"))
    assert code == 0
    assert out.splitlines()[-1] == "ok"


def test_denote(run, sixnode_path):
    code, out, _ = run("denote", sixnode_path)
    assert code == 0
    assert out.splitlines() == [
        "output: x3 x6",
        "(t,t): 0.170571125",
        "(t,f): 0.320928875",
        "(f,t): 0.17440725",
        "(f,f): 0.33409275",
    ]


def test_denote_json(run, sixnode_path):
    code, out, _ = run("denote", "--json", sixnode_path)
    assert code == 0
    payload = json.loads(out)
    assert payload["output"] == ["x3", "x6"]
    assert payload["type"] == "(Bool * Bool)"
    assert payload["web"] == ["(t,t)", "(t,f)", "(f,t)", "(f,f)"]
    assert np.allclose(payload["values"], SIXNODE_JOINT, atol=1e-12)


def test_facts(run, sixnode_path):
    code, out, _ = run("facts", sixnode_path)
    assert code == 0
    lines = out.splitlines()
    headers = [line for line in lines if line.startswith("factor ")]
    assert len(headers) == 7
    assert headers[0] == "factor x1:Bool"
    assert lines[-2:] == ["factor x3:Bool x6:Bool", "  1 1 1 1"]


def test_vef(run, sixnode_path):
    code, out, _ = run("vef", "--order", "x1,x2,x4,x5", sixnode_path)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "order: x1,x2,x4,x5"
    assert sum(1 for line in lines if line.startswith("factor ")) == 2
    assert lines[-2:] == ["muladds: 76", "max_table: 16"]


def test_cost_reverse_order(run, sixnode_path):
    code, out, _ = run("cost", "--order", "x5,x4,x2,x1", sixnode_path)
    assert code == 0
    assert out.splitlines() == [
        "order: x5,x4,x2,x1",
        "muladds: 160",
        "max_table: 32",
    ]


def test_vel(run, sixnode_path):
    code, out, _ = run("vel", "--order", "x1,x2,x4,x5", sixnode_path)
    assert code == 0
    assert out.splitlines() == [
        "order: x1,x2,x4,x5",
        "steps: 14",
        "(t,t): 0.170571125",
        "(t,f): 0.320928875",
        "(f,t): 0.17440725",
        "(f,f): 0.33409275",
    ]


def test_vel_trace(run, sixnode_path):
    code, out, _ = run("vel", "--order", "x1,x2,x4,x5", "--trace", sixnode_path)
    assert code == 0
    lines = out.splitlines()
    steps = lines[2 : 2 + 14]
    assert steps == [
        "mult@0",
        "elim[x1]@0",
        "swap2@3",
        "swap1@2",
        "mult@1",
        "mult@0",
        "elim[x2]@0",
        "mult@1",
        "elim[x4]@1",
        "swap2@0",
        "mult@2",
        "elim[x5]@2",
        "swap3@1",
        "swap3@0",
    ]


def test_vel_emit_term(run, sixnode_path):
    code, out, err = run("vel", "--order", "x1,x2,x4,x5", "--emit-term", sixnode_path)
    assert code == 0
    assert "order: x1,x2,x4,x5" in err  # status moves to stderr
    assert "steps: 14" in err
    prog = parse_program(out)
    assert len(prog.term.defs) == 1
    values = joint_vector(denote(prog.term))
    assert np.allclose(values, SIXNODE_JOINT, atol=1e-9)


def test_vel_emit_simplified_term(run, sixnode_path):
    code, out, _ = run(
        "vel", "--order", "x1,x2,x4,x5", "--emit-term", "--simplify", sixnode_path
    )
    assert code == 0
    prog = parse_program(out)
    values = joint_vector(denote(prog.term))
    assert np.allclose(values, SIXNODE_JOINT, atol=1e-9)


def test_orderings(run, sixnode_path):
    code, out, _ = run("orderings", sixnode_path)
    assert code == 0
    assert out.strip() == "x1,x4,x2,x5"


def test_orderings_random_seeded(run, sixnode_path):
    _, out_a, _ = run("orderings", "--heuristic", "random", "--seed", "5", sixnode_path)
    _, out_b, _ = run("orderings", "--heuristic", "random", "--seed", "5", sixnode_path)
    assert out_a == out_b
    assert sorted(out_a.strip().split(",")) == ["x1", "x2", "x4", "x5"]


def test_compare_text(run, sixnode_path):
    code, out, _ = run("compare", "--order", "x1,x2,x4,x5", sixnode_path)
    assert code == 0
    lines = out.splitlines()
    assert lines.count("(t,t): 0.170571125") == 4  # all four routes agree
    assert "denote cost: muladds=216 max_table=32" in lines
    assert "facts cost: muladds=252 max_table=64" in lines
    assert "vef cost: muladds=76 max_table=16" in lines
    assert "vel cost: muladds=4 max_table=4 steps=14" in lines
    assert lines[-1] == "agree: yes"


def test_compare_json_forward(run, sixnode_path):
    code, out, _ = run("compare", "--json", "--order", "x1,x2,x4,x5", sixnode_path)
    assert code == 0
    payload = json.loads(out)
    assert payload["order"] == ["x1", "x2", "x4", "x5"]
    assert payload["agree"] is True
    assert payload["max_diff"] <= 1e-9
    assert payload["vef"]["max_table"] == 16
    assert payload["vel"]["steps"] == 14
    for route in ("denote", "facts", "vef", "vel"):
        assert np.allclose(payload[route]["values"], SIXNODE_JOINT, atol=1e-9)


def test_compare_json_reverse(run, sixnode_path):
    code, out, _ = run("compare", "--json", "--order", "x5,x4,x2,x1", sixnode_path)
    assert code == 0
    payload = json.loads(out)
    assert payload["agree"] is True
    assert payload["vef"]["max_table"] == 32


def test_missing_file(run, capsys):
    code, _, err = run("check", "no/such/file.lve")
    assert code == 2
    assert err.startswith("error:")


def test_unknown_order_variable(run, sixnode_path):
    code, _, err = run("vef", "--order", "x1,zz", sixnode_path)
    assert code == 2
    assert "zz" in err


def test_compare_rejects_open_program(run, tmp_path):
    path = tmp_path / "open.lve"
    path.write_text("matrix M : Bool -> Bool = [1, 0; 0, 1];\ny = M(x);\nin y")
    code, _, err = run("compare", str(path))
    assert code == 2
    assert "closed" in err


def test_stochastic_gate(run, tmp_path):
    path = tmp_path / "sub.lve"
    path.write_text("matrix C : -> Bool = [0.25, 0.5];\nx = C;\nin x")
    code, _, err = run("check", str(path))
    assert code == 2
    assert "C" in err

    code, out, _ = run("check", "--no-stochastic-check", str(path))
    assert code == 0
    assert "matrices: 1 (0 stochastic)" in out.splitlines()

    code, out, _ = run("denote", "--no-stochastic-check", str(path))
    assert code == 0
    assert out.splitlines()[1:] == ["t: 0.25", "f: 0.5"]


def test_web_cap_enforced(run, sixnode_path):
    code, _, err = run("denote", "--web-cap", "8", sixnode_path)
    assert code == 2
    assert "error:" in err


def test_parse_error_exit_code(run, tmp_path):
    path = tmp_path / "bad.lve"
    path.write_text("x = ;\nin x")
    code, _, err = run("check", str(path))
    assert code == 2
    assert "error:" in err


def test_vel_rejects_open_program_unless_emitting(run, tmp_path):
    path = tmp_path / "open.lve"
    path.write_text("matrix M : Bool -> Bool = [0.8, 0.2; 0.1, 0.9];\nx = M(a);\ny = M(x);\nin y")
    code, _, err = run("vel", str(path))
    assert code == 2
    assert "closed" in err
    code, out, _ = run("vel", "--emit-term", str(path))
    assert code == 0
    assert parse_program(out).term.output == parse_program(path.read_text()).term.output


def test_vel_simplify_survives_inner_shadowing(run, tmp_path):
    path = tmp_path / "shadow.lve"
    path.write_text(
        "matrix C : -> Bool = [0.3, 0.7];\n"
        "matrix M : Bool -> Bool = [0.8, 0.2; 0.1, 0.9];\n"
        "w = C;\n"
        "(a, b) = let x = w in let w = M(x) in (w, w);\n"
        "in (a, b)"
    )
    code, plain, _ = run("vel", "--order", "w", str(path))
    assert code == 0
    code, simplified, _ = run("vel", "--order", "w", "--simplify", str(path))
    assert code == 0
    assert simplified == plain
    assert plain.splitlines()[-4:] == ["(t,t): 0.31", "(t,f): 0", "(f,t): 0", "(f,f): 0.69"]


@pytest.mark.parametrize("command", ["denote", "vef", "vel", "compare"])
def test_overflowing_marginals_are_input_errors(run, tmp_path, command):
    # The denotation overflows to inf and the factor routes to NaN; no route
    # may print them, and compare may not count them as agreeing.
    path = tmp_path / "huge.lve"
    path.write_text(
        "matrix M : -> Bool = [1e308, 1e308]; matrix N : Bool -> Bool = [1e308, 0; 0, 1e308];"
        " x = M; y = N(x); z = N(y); in z"
    )
    with np.errstate(over="ignore"):
        code, out, err = run(command, "--no-stochastic-check", str(path))
    assert code == 2
    assert "inf" not in out and "nan" not in out
    assert err.startswith("error:") and "not finite" in err


@pytest.mark.parametrize("cpt", ['[["x", 0.5]]', "[[NaN, 0.5]]"])
def test_bad_cpt_entries_are_input_errors(run, tmp_path, cpt):
    path = tmp_path / "net.json"
    path.write_text(
        '{"variables": [{"name": "a"}], "nodes": [{"var": "a", "parents": [], "cpt": %s}],'
        ' "query": ["a"]}' % cpt
    )
    code, out, err = run("denote", "--no-stochastic-check", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize("command", ["vef", "cost", "compare"])
def test_order_rejects_output_variables(run, sixnode_path, command):
    code, out, err = run(command, "--order", "x3,x1", sixnode_path)
    assert code == 2
    assert out == ""
    assert err == "error: --order names 'x3', which occurs in the output pattern\n"


@pytest.mark.parametrize("command", ["vef", "vel", "cost", "compare"])
def test_order_rejects_a_repeated_variable(run, sixnode_path, command):
    code, out, err = run(command, "--order", "x1,x2,x1", sixnode_path)
    assert code == 2
    assert out == ""
    assert err == "error: --order names 'x1' twice\n"


def test_deep_nesting_is_an_input_error(run, tmp_path):
    depth = 3000
    nested = "".join(f"let a{i} = {'C' if i == 1 else f'a{i - 1}'} in " for i in range(1, depth + 1))
    path = tmp_path / "deep.lve"
    path.write_text(f"matrix C : -> Bool = [0.3, 0.7];\ny = {nested}a{depth};\nin y")
    code, out, err = run("check", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: term nests too deeply")


def test_deep_nesting_is_a_parse_error_in_the_library():
    depth = 3000
    nested = "".join(f"let a{i} = {'C' if i == 1 else f'a{i - 1}'} in " for i in range(1, depth + 1))
    with pytest.raises(ParseError, match="^term nests too deeply for Python's recursion limit"):
        parse_program(f"matrix C : -> Bool = [0.3, 0.7];\ny = {nested}a{depth};\nin y")


@pytest.mark.parametrize("command", ["vel", "compare"])
def test_open_program_is_rejected_before_the_order_is_printed(run, tmp_path, command):
    path = tmp_path / "open.lve"
    path.write_text("matrix C : -> Bool = [0.3, 0.7];\nx = C;\nin y")
    code, out, err = run(command, str(path))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {command} needs a closed program")


BARREN = {
    # wet is a barren node under the query rain, and x under the query y:
    # no definition below uses it.
    "rain.json": (
        json.dumps(
            {
                "variables": [{"name": "rain"}, {"name": "wet"}],
                "nodes": [
                    {"var": "rain", "parents": [], "cpt": [[0.2, 0.8]]},
                    {"var": "wet", "parents": ["rain"], "cpt": [[0.9, 0.1], [0.3, 0.7]]},
                ],
                "query": ["rain"],
            }
        ),
        [0.2, 0.8],
    ),
    "copy.lve": ("matrix C : -> Bool = [0.3, 0.7];\nx = C;\ny = C;\nin y", [0.3, 0.7]),
}


@pytest.mark.parametrize("name", sorted(BARREN))
def test_vel_eliminates_a_barren_node(run, tmp_path, name):
    text, expected = BARREN[name]
    path = tmp_path / name
    path.write_text(text)
    code, out, _ = run("vel", str(path))
    assert code == 0
    assert out.splitlines()[-2:] == [f"t: {expected[0]}", f"f: {expected[1]}"]
    code, out, _ = run("compare", "--json", str(path))
    assert code == 0
    payload = json.loads(out)
    assert payload["agree"]
    assert np.allclose(payload["vel"]["values"], payload["vef"]["values"], atol=1e-9, rtol=0)
    assert np.allclose(payload["vef"]["values"], expected, atol=1e-9, rtol=0)


def test_barren_node_keeps_its_mass_off_the_simplex(run, tmp_path):
    # C's row sums to 1.2: the eliminated x leaves that scalar on the marginal
    # of y, which merging x's definition with y's keeps.
    path = tmp_path / "scaled.lve"
    path.write_text(
        "matrix C : -> Bool = [0.3, 0.9];\nmatrix E : -> Bool = [0.5, 0.5];\nx = C;\ny = E;\nin y"
    )
    for command in ("denote", "vel"):
        code, out, _ = run(command, "--no-stochastic-check", str(path))
        assert code == 0
        assert out.splitlines()[-2:] == ["t: 0.6", "f: 0.6"]
    code, out, _ = run("compare", "--no-stochastic-check", str(path))
    assert code == 0
    lines = out.splitlines()
    for route in ("denote", "facts", "vef", "vel"):
        at = lines.index(f"{route}:")
        assert lines[at + 1 : at + 3] == ["t: 0.6", "f: 0.6"]
    assert lines[-1] == "agree: yes"
