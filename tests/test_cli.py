"""The command line interface, run in-process."""

from __future__ import annotations

import dataclasses
import json
import random

import numpy as np
import pytest

import lve.cli
import lve.factors
import lve.orderings
import lve.verify
from lve.cli import main
from lve.denote import denote, joint_vector
from lve.errors import ParseError
from lve.parser import parse_program
from helpers import SIXNODE_JOINT, chain_network, grid_network


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


def test_json_suffix_in_any_case_reads_a_network(run, samples_dir, tmp_path):
    path = tmp_path / "six.JSON"
    path.write_text((samples_dir / "sixnode.json").read_text())
    assert run("check", str(path)) == run("check", str(samples_dir / "sixnode.json"))
    code, out, _ = run("check", str(path))
    assert code == 0 and out.splitlines()[-1] == "ok"


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
    # vel's cost is the evaluation of the rewritten term, read before the
    # marginal as vef's is: the same contractions as vef's.
    assert "vel cost: muladds=76 max_table=16 steps=14" in lines
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
    for route in ("vef", "vel"):
        assert (payload[route]["muladds"], payload[route]["max_table"]) == (76, 16)
    for route in ("denote", "facts", "vef", "vel"):
        assert np.allclose(payload[route]["values"], SIXNODE_JOINT, atol=1e-9)


def test_compare_json_reverse(run, sixnode_path):
    code, out, _ = run("compare", "--json", "--order", "x5,x4,x2,x1", sixnode_path)
    assert code == 0
    payload = json.loads(out)
    assert payload["agree"] is True
    assert payload["vef"]["max_table"] == 32
    for route in ("vef", "vel"):
        assert (payload[route]["muladds"], payload[route]["max_table"]) == (160, 32)


@pytest.mark.parametrize("order, cost", [("w,x", (44, 16)), ("x,w", (48, 16))])
def test_compare_json_tensor_typed_variable(run, samples_dir, order, cost):
    # w ranges over Bool * Bool: vel's readout sums it out in one bucket, as vef does.
    code, out, _ = run("compare", "--json", "--order", order, str(samples_dir / "tensor.lve"))
    assert code == 0
    payload = json.loads(out)
    assert payload["agree"] is True
    for route in ("vef", "vel"):
        assert (payload[route]["muladds"], payload[route]["max_table"]) == cost


@pytest.mark.parametrize(
    "net, web",
    [(grid_network(12, 12), "2^144"), (chain_network(2000), "2^2000")],
    ids=["grid12x12", "chain2000"],
)
def test_compare_skips_a_route_over_the_cap(run, tmp_path, net, web):
    # The facts route multiplies every factor into one joint table (2^144
    # entries on the grid); it is skipped, and the three others still agree.
    path = tmp_path / "net.json"
    path.write_text(json.dumps(net))
    code, out, _ = run("compare", str(path))
    assert code == 0
    lines = out.splitlines()
    skipped = [line for line in lines if line.startswith("facts: skipped (web of size ")]
    assert skipped == [f"facts: skipped (web of size {web} exceeds cap 1048576)"]
    assert [line.split(" cost:")[0] for line in lines if " cost: " in line] == ["denote", "vef", "vel"]
    assert lines[-1] == "agree: yes"
    code, out, _ = run("compare", "--json", str(path))
    assert code == 0
    payload = json.loads(out)
    assert list(payload["facts"]) == ["skipped"]
    assert payload["facts"]["skipped"] == skipped[0][len("facts: skipped (") : -1]
    assert payload["agree"] is True and payload["max_diff"] <= 1e-9
    for route in ("denote", "vef", "vel"):
        assert len(payload[route]["values"]) == 2


def test_compare_needs_two_routes_under_the_cap(run, sixnode_path):
    # On the forward order the peak tables are denote 32, facts 64, vef and
    # vel 16: a cap of 16 leaves two routes to compare, a cap of 8 none, and
    # then the first route's error is reported as bad input.
    code, out, _ = run("compare", "--web-cap", "16", "--order", "x1,x2,x4,x5", sixnode_path)
    assert code == 0
    lines = out.splitlines()
    assert "denote: skipped (web of size 32 exceeds cap 16)" in lines
    assert "facts: skipped (web of size 64 exceeds cap 16)" in lines
    assert lines[-1] == "agree: yes"
    code, out, err = run("compare", "--web-cap", "8", "--order", "x1,x2,x4,x5", sixnode_path)
    assert code == 2
    assert err.strip() == "error: web of size 16 exceeds cap 8"


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


HUGE = "matrix M : -> Bool = [1e308, 1e308]; matrix N : Bool -> Bool = [1e308, 0; 0, 1e308];"


@pytest.mark.parametrize("command", ["denote", "vef", "vel", "compare"])
def test_overflowing_marginals_are_input_errors(run, tmp_path, command):
    # The routes overflow to inf, and inf times zero gives NaN; no route may
    # print either, compare may not count them as agreeing, and numpy's
    # overflow warnings reach neither stream (the suite makes them errors).
    path = tmp_path / "huge.lve"
    for body in (" x = M; y = N(x); z = N(y); in z", " z = let x = M in N(x); in z"):
        path.write_text(HUGE + body)
        code, out, err = run(command, "--no-stochastic-check", str(path))
        assert code == 2
        assert "inf" not in out and "nan" not in out
        assert err.startswith("error:") and "not finite" in err and err.count("\n") == 1


def test_facts_refuses_tables_that_are_not_finite(run, tmp_path):
    path = tmp_path / "huge.lve"
    path.write_text(HUGE + " z = let x = M in N(x); in z")
    code, out, err = run("facts", "--no-stochastic-check", str(path))
    assert (code, out, err) == (2, "", "error: a factor table is not finite\n")


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


@pytest.mark.parametrize("suffix", [".lve", ".json"])
def test_files_that_are_not_utf8_are_input_errors(run, tmp_path, suffix):
    path = tmp_path / f"bad{suffix}"
    path.write_bytes(b"\xff\xfe\x00x = M;\nin x\n")
    code, out, err = run("check", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "not UTF-8" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "suffix, table, message",
    [
        (".lve", "[1e999, 0.5]", "matrix M: non-finite entry"),
        (".json", "[[NaN, 0.5]]", "matrix M_a: non-finite entry"),
        (".json", "[[1e400, 0.5]]", "matrix M_a: non-finite entry"),
        (".json", "[[-0.5, 1.5]]", "matrix M_a: negative entry"),
    ],
)
def test_bad_table_entries_keep_their_messages(run, tmp_path, suffix, table, message):
    path = tmp_path / f"m{suffix}"
    if suffix == ".lve":
        path.write_text(f"matrix M : -> Bool = {table};\nx = M;\nin x")
    else:
        path.write_text(
            '{"variables": [{"name": "a"}], "nodes": [{"var": "a", "parents": [], "cpt": %s}],'
            ' "query": ["a"]}' % table
        )
    code, out, err = run("check", "--no-stochastic-check", str(path))
    assert (code, out, err) == (2, "", f"error: {message}\n")


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


def _scaled_chain(n: int = 30) -> str:
    """x0 = A; xi = Mi(x(i-1)); in x(n-1), with 2x2 matrices drawn from
    [1, 9]: the marginal grows to about 5e30 by 30 nodes."""
    rng = random.Random(0)
    lines = ["matrix A : -> Bool = [3.7, 5.1];"]
    for i in range(1, n):
        a, b, c, d = (round(rng.uniform(1, 9), 3) for _ in range(4))
        lines.append(f"matrix M{i} : Bool -> Bool = [{a}, {b}; {c}, {d}];")
    lines.append("x0 = A;")
    lines += [f"x{i} = M{i}(x{i - 1});" for i in range(1, n)]
    return "\n".join(lines + [f"in x{n - 1}"])


def test_compare_agrees_at_the_answer_scale(run, tmp_path, monkeypatch):
    # The routes differ by rounding, about 1e15 on answers about 5e30, so
    # they agree relative to the answer; one route off by 1% does not.
    path = tmp_path / "scaled_chain.lve"
    path.write_text(_scaled_chain())
    order = ",".join(f"x{i}" for i in range(28, -1, -1))
    code, out, _ = run("compare", "--no-stochastic-check", "--order", order, str(path))
    assert code == 0 and out.splitlines()[-1] == "agree: yes"
    by_vel = lve.verify.ROUTES["vel"]

    def off(term, order, ctx):
        got = by_vel(term, order, ctx)
        return dataclasses.replace(got, marginal=got.marginal * 1.01)

    monkeypatch.setitem(lve.verify.ROUTES, "vel", off)
    code, out, _ = run("compare", "--no-stochastic-check", "--order", order, str(path))
    assert code == 1 and out.splitlines()[-1] == "agree: no"


@pytest.mark.parametrize("command", ["vef", "cost"])
def test_vef_and_cost_extract_the_factors_once(run, sixnode_path, monkeypatch, command):
    # The min-degree order reads factor scopes, not factors, and so does the
    # plan `cost` prints: only vef builds the tables.
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return lve.factors.factors_of(*args, **kwargs)

    for module in (lve.cli, lve.orderings):
        monkeypatch.setattr(module, "factors_of", counting, raising=False)
    code, out, _ = run(command, sixnode_path)
    assert code == 0
    assert out.startswith("order: x1,x4,x2,x5\n")
    assert len(calls) == (command == "vef")


@pytest.mark.parametrize(
    "n, muladds, max_table",
    [(6, 5160, "512"), (12, 9685840, "1048576"), (14, 35332680, "4194304"), (30, 70051425081986376, "2^54")],
)
def test_cost_plans_grids_past_the_cap(run, tmp_path, monkeypatch, n, muladds, max_table):
    # `cost` reads the elimination plan on the factors' scopes: it builds no
    # table, so no cap applies, and a size past 2^32 prints as 2^k.
    path = tmp_path / f"grid{n}.json"
    path.write_text(json.dumps(grid_network(n, n)))

    def no_einsum(*args, **kwargs):
        raise AssertionError("np.einsum called")

    monkeypatch.setattr(np, "einsum", no_einsum)
    code, out, err = run("cost", str(path))
    assert (code, err) == (0, "")
    assert out.splitlines()[1:] == [f"muladds: {muladds}", f"max_table: {max_table}"]


def test_vef_checks_the_plan_before_computing(run, tmp_path, monkeypatch):
    # Min-degree's 14x14 plan needs a 2^21 product: vef says so before
    # contracting anything.
    path = tmp_path / "grid14.json"
    path.write_text(json.dumps(grid_network(14, 14)))
    calls = []
    einsum = np.einsum

    def counting(*args, **kwargs):
        calls.append(args)
        return einsum(*args, **kwargs)

    monkeypatch.setattr(np, "einsum", counting)
    code, out, err = run("vef", str(path))
    assert (code, err) == (2, "error: web of size 2097152 exceeds cap 1048576\n")
    assert out.startswith("order: ")
    assert calls == []


@pytest.mark.parametrize("cap", ["0", "-5"])
@pytest.mark.parametrize("command", ["vef", "cost", "denote"])
def test_web_cap_below_one_is_rejected(capsys, sixnode_path, command, cap):
    with pytest.raises(SystemExit) as exit:
        main([command, "--web-cap", cap, sixnode_path])
    assert exit.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument --web-cap: must be at least 1, got {cap}" in captured.err


@pytest.mark.parametrize("n", [6, 12])
def test_vel_answers_grids_at_the_default_cap(run, tmp_path, n):
    # Reading the rewritten term contracts what vef contracts, so vel needs
    # no table larger than vef's (2^9 at n = 6, 2^20 at n = 12).
    path = tmp_path / f"grid{n}.json"
    path.write_text(json.dumps(grid_network(n, n)))
    code, out, _ = run("vel", str(path))
    assert code == 0
    vel = [float(line.split(": ")[1]) for line in out.splitlines()[-2:]]
    code, out, _ = run("vef", str(path))
    assert code == 0
    # vef's factors: the query's, the output's constant ones and any scalars.
    lines = out.splitlines()
    vef = np.ones(2)
    for head, values in zip(lines[1:-2:2], lines[2:-2:2]):
        assert head in ("factor (scalar)", f"factor v{n - 1}_{n - 1}:Bool")
        vef = vef * np.array([float(x) for x in values.split()])
    assert np.allclose(vel, vef, atol=1e-9, rtol=0)
