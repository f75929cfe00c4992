"""JSON Bayesian networks compiled to let-terms."""

from __future__ import annotations

import json

import numpy as np
import pytest

from lve.denote import denote, joint_vector
from lve.errors import (
    CptShapeMismatch,
    CyclicNetwork,
    NetworkFormatError,
    UnknownQueryVariable,
)
from lve.network import load_network, network_to_program
from lve.parser import parse_program
from lve.printer import program_str
from lve.syntax import alpha_eq, pattern_vars, typecheck
from helpers import chain_network, grid_network


def _base_net() -> dict:
    return {
        "variables": [{"name": "rain"}, {"name": "wet"}],
        "nodes": [
            {"var": "rain", "parents": [], "cpt": [[0.2, 0.8]]},
            {"var": "wet", "parents": ["rain"], "cpt": [[0.9, 0.1], [0.05, 0.95]]},
        ],
        "query": ["wet"],
    }


def test_two_node_chain():
    prog = network_to_program(_base_net())
    assert sorted(prog.matrices) == ["M_rain", "M_wet"]
    assert all(m.stochastic for m in prog.matrices.values())
    values = joint_vector(denote(prog.term))
    # P(wet) = 0.2 * 0.9 + 0.8 * 0.05
    assert np.allclose(values, [0.22, 0.78], atol=1e-12)


def test_matches_handwritten_program(samples_dir, sixnode):
    prog = load_network(samples_dir / "sixnode.json")
    typecheck(prog.term)
    assert np.allclose(
        joint_vector(denote(prog.term)),
        joint_vector(denote(sixnode.term)),
        atol=1e-12,
    )


def test_compiled_program_reparses(samples_dir):
    prog = load_network(samples_dir / "sixnode.json")
    again = parse_program(program_str(prog.term))
    assert alpha_eq(again.term, prog.term)


def test_definition_order_is_topological_with_file_tiebreak():
    data = _base_net()
    data["nodes"].reverse()  # child listed before parent
    prog = network_to_program(data)
    defined = [p.var.name for p, _ in prog.term.defs]
    assert defined == ["rain", "wet"]

    # Independent nodes keep their file order.
    data = {
        "variables": [{"name": "b"}, {"name": "a"}],
        "nodes": [
            {"var": "b", "parents": [], "cpt": [[0.5, 0.5]]},
            {"var": "a", "parents": [], "cpt": [[0.5, 0.5]]},
        ],
        "query": ["a", "b"],
    }
    prog = network_to_program(data)
    assert [p.var.name for p, _ in prog.term.defs] == ["b", "a"]


def _scan_order(data: dict) -> list[str]:
    """The definition order by a scan of the unplaced nodes per placement:
    the first in file order whose parents are all placed."""
    parents = {node["var"]: node["parents"] for node in data["nodes"]}
    placed: list[str] = []
    while len(placed) < len(parents):
        placed.append(next(n for n in parents if n not in placed and set(parents[n]) <= set(placed)))
    return placed


def _reversed(data: dict) -> dict:
    return {**data, "nodes": data["nodes"][::-1]}


def test_reverse_listed_networks_compile_to_the_same_definitions(samples_dir):
    sixnode = json.loads((samples_dir / "sixnode.json").read_text())
    for data in (sixnode, chain_network(30), grid_network(4, 5)):
        for listed in (data, _reversed(data)):
            defined = [p.var.name for p, _ in network_to_program(listed).term.defs]
            assert defined == _scan_order(listed)
    # A chain has one topological order, so listing it backwards changes nothing.
    chain = chain_network(30)
    assert program_str(network_to_program(_reversed(chain)).term) == program_str(network_to_program(chain).term)


def test_query_tuple_order_and_nesting():
    data = _base_net()
    data["query"] = ["wet", "rain"]
    prog = network_to_program(data)
    assert [v.name for v in pattern_vars(prog.term.output)] == ["wet", "rain"]


def test_nonstochastic_rows_flagged():
    data = _base_net()
    data["nodes"][0]["cpt"] = [[0.2, 0.7]]
    prog = network_to_program(data)
    assert not prog.matrices["M_rain"].stochastic


def test_cycle_detected():
    data = {
        "variables": [{"name": "a"}, {"name": "b"}],
        "nodes": [
            {"var": "a", "parents": ["b"], "cpt": [[0.5, 0.5], [0.5, 0.5]]},
            {"var": "b", "parents": ["a"], "cpt": [[0.5, 0.5], [0.5, 0.5]]},
        ],
        "query": ["a"],
    }
    with pytest.raises(CyclicNetwork):
        network_to_program(data)


def test_cycle_message_names_every_unplaced_node():
    # d is placed; e waits on the cycle a -> b -> c -> a.
    parents = {"e": ["c"], "a": ["c"], "b": ["a"], "d": [], "c": ["b"]}
    data = {
        "variables": [{"name": v} for v in parents],
        "nodes": [{"var": v, "parents": ps, "cpt": [[0.5, 0.5]] * 2 ** len(ps)} for v, ps in parents.items()],
        "query": ["d"],
    }
    with pytest.raises(CyclicNetwork, match=r"^cycle through a, b, c, e$"):
        network_to_program(data)


def test_cpt_row_count_checked():
    data = _base_net()
    data["nodes"][1]["cpt"] = [[0.9, 0.1]]  # one parent needs two rows
    with pytest.raises(CptShapeMismatch):
        network_to_program(data)


def test_cpt_row_length_checked():
    data = _base_net()
    data["nodes"][0]["cpt"] = [[0.2, 0.7, 0.1]]
    with pytest.raises(CptShapeMismatch):
        network_to_program(data)


def test_unknown_query_variable():
    data = _base_net()
    data["query"] = ["dry"]
    with pytest.raises(UnknownQueryVariable):
        network_to_program(data)


@pytest.mark.parametrize(
    "mangle",
    [
        lambda d: d.pop("variables"),
        lambda d: d.pop("nodes"),
        lambda d: d.pop("query"),
        lambda d: d["variables"].append({"name": "Rain"}),  # names are lowercase
        lambda d: d["variables"].append({"name": "rain"}),  # duplicate
        lambda d: d["variables"].append({"name": "sun"}),  # no node for it
        lambda d: d["variables"].__setitem__(0, {"name": "rain", "states": 3}),
        lambda d: d["nodes"].append({"var": "rain", "parents": [], "cpt": [[1, 0]]}),
        lambda d: d["nodes"][1].__setitem__("parents", ["rain", "rain"]),
        lambda d: d["nodes"][1].__setitem__("parents", ["ghost"]),
        lambda d: d["query"].extend(["wet"]),  # query repeats a variable
        lambda d: d["nodes"][1].__setitem__("parents", [["rain"]]),  # names must be strings
        lambda d: d["nodes"][1].__setitem__("var", ["wet"]),
        lambda d: d["query"].__setitem__(0, {"name": "wet"}),
    ],
)
def test_malformed_networks_rejected(mangle):
    data = _base_net()
    mangle(data)
    with pytest.raises(NetworkFormatError):
        network_to_program(data)


def test_invalid_json_reported(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(NetworkFormatError):
        load_network(path)

    path.write_text(json.dumps([1, 2, 3]))  # valid JSON, wrong shape
    with pytest.raises(NetworkFormatError):
        load_network(path)


@pytest.mark.parametrize("row", [[True, 0.5], [0.5, "0.5"], [0.5, None], [[0.5], 0.5]])
def test_cpt_entries_must_be_numbers(row):
    data = _base_net()
    data["nodes"][0]["cpt"] = [row]
    with pytest.raises(NetworkFormatError, match="holds a non-number"):
        network_to_program(data)


def test_cpt_entries_may_be_number_subclasses():
    # Plain ints and floats pass on their types; a float subclass such as
    # numpy's passes the slower check, and a bool does not.
    data = _base_net()
    data["nodes"][0]["cpt"] = [[np.float64(0.2), 1 - np.float64(0.2)]]
    data["nodes"][1]["cpt"] = [[1, 0], [0.05, 0.95]]
    values = joint_vector(denote(network_to_program(data).term))
    assert np.allclose(values, [0.2 * 1 + 0.8 * 0.05, 0.8 * 0.95])
