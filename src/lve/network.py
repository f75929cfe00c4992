"""Bayesian networks as JSON, compiled to let-terms.

Expected shape::

    {
      "variables": [{"name": "rain"}, {"name": "wet"}],
      "nodes": [
        {"var": "rain", "parents": [], "cpt": [[0.2, 0.8]]},
        {"var": "wet", "parents": ["rain"], "cpt": [[0.9, 0.1], [0.05, 0.95]]}
      ],
      "query": ["wet"]
    }

Every variable is two-state; rows of a node's table are listed per parent
assignment, first parent most significant, true before false, and each row is
[P(true), P(false)]. The compiled term defines each variable in topological
order (ties broken by file order) as `M_<var>(parents...)` and outputs the
query tuple.
"""

from __future__ import annotations

import heapq
import json
import re
from pathlib import Path

from .errors import (
    CptShapeMismatch,
    CyclicNetwork,
    NetworkFormatError,
    UnknownQueryVariable,
)
from .parser import SourceProgram
from .syntax import (
    BOOL,
    LetTerm,
    MatApp,
    PLeaf,
    StochasticMatrix,
    Variable,
    nest_vars,
)

_NAME_RE = re.compile(r"[a-z_][A-Za-z0-9_']*\Z")
_PLAIN_NUMBERS = frozenset((int, float))


def network_to_program(data: dict) -> SourceProgram:
    if not isinstance(data, dict):
        raise NetworkFormatError("top level must be an object")
    names = _read_variables(data)
    nodes = _read_nodes(data, names)
    order = _topo_order(nodes)
    query = _read_query(data, names)

    matrices: dict[str, StochasticMatrix] = {}
    defs = []
    for name in order:
        parents, cpt = nodes[name]
        m = StochasticMatrix(f"M_{name}", (BOOL,) * len(parents), BOOL, cpt)
        matrices[m.name] = m
        args = tuple(Variable(p, BOOL) for p in parents)
        defs.append((PLeaf(Variable(name, BOOL)), MatApp(m, args)))

    out = nest_vars(Variable(q, BOOL) for q in query)
    return SourceProgram(matrices, {}, LetTerm(tuple(defs), out))


def load_network(path: str | Path) -> SourceProgram:
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except UnicodeDecodeError as err:
        raise NetworkFormatError(f"{path}: not UTF-8 text: {err}") from None
    except json.JSONDecodeError as err:
        raise NetworkFormatError(f"not valid JSON: {err}") from err
    return network_to_program(data)


def _read_variables(data: dict) -> dict[str, None]:
    """The declared names, in file order, as the keys of a dict."""
    if not isinstance(data.get("variables"), list) or not data["variables"]:
        raise NetworkFormatError("missing or empty 'variables' list")
    names: dict[str, None] = {}
    for entry in data["variables"]:
        if not isinstance(entry, dict) or "name" not in entry:
            raise NetworkFormatError(f"variable entry {entry!r} lacks a name")
        if entry.get("states", 2) != 2:
            raise NetworkFormatError(f"variable {entry['name']}: only two states supported")
        name = entry["name"]
        if not isinstance(name, str) or not _NAME_RE.match(name):
            raise NetworkFormatError(f"bad variable name {name!r}")
        if name in names:
            raise NetworkFormatError(f"variable {name} listed twice")
        names[name] = None
    return names


def _read_nodes(data: dict, names: dict[str, None]) -> dict[str, tuple[list[str], list]]:
    if not isinstance(data.get("nodes"), list):
        raise NetworkFormatError("missing 'nodes' list")
    nodes: dict[str, tuple[list[str], list]] = {}
    for entry in data["nodes"]:
        if not isinstance(entry, dict) or "var" not in entry:
            raise NetworkFormatError(f"node entry {entry!r} lacks a var")
        name = entry["var"]
        if not isinstance(name, str) or name not in names:
            raise NetworkFormatError(f"node for undeclared variable {name!r}")
        if name in nodes:
            raise NetworkFormatError(f"variable {name} has two nodes")
        parents = entry.get("parents", [])
        if not isinstance(parents, list) or any(not isinstance(p, str) or p not in names for p in parents):
            raise NetworkFormatError(f"node {name}: bad parents {parents!r}")
        if len(set(parents)) != len(parents):
            raise NetworkFormatError(f"node {name}: repeated parent")
        cpt = entry.get("cpt")
        if not isinstance(cpt, list) or len(cpt) != 2 ** len(parents):
            raise CptShapeMismatch(
                f"node {name}: expected {2 ** len(parents)} rows, got "
                f"{len(cpt) if isinstance(cpt, list) else cpt!r}"
            )
        for row in cpt:
            if not isinstance(row, list) or len(row) != 2:
                raise CptShapeMismatch(f"node {name}: each row needs two probabilities")
            # Plain ints and floats pass on their types alone; anything else
            # (a bool, a string, a float subclass) is looked at one by one.
            if not _PLAIN_NUMBERS.issuperset(map(type, row)) and not all(
                isinstance(x, (int, float)) and not isinstance(x, bool) for x in row
            ):
                raise NetworkFormatError(f"node {name}: CPT row {row!r} holds a non-number")
        nodes[name] = (parents, cpt)
    for name in names:
        if name not in nodes:
            raise NetworkFormatError(f"variable {name} has no node")
    return nodes


def _topo_order(nodes: dict[str, tuple[list[str], list]]) -> list[str]:
    """Kahn's algorithm: of the nodes whose parents are all placed, the one
    listed first goes next."""
    names = list(nodes)
    index = {name: i for i, name in enumerate(names)}
    waiting = [len(nodes[name][0]) for name in names]
    children: list[list[int]] = [[] for _ in names]
    for i, name in enumerate(names):
        for p in nodes[name][0]:
            children[index[p]].append(i)
    ready = [i for i, count in enumerate(waiting) if not count]  # ascending: a heap
    order: list[str] = []
    while ready:
        i = heapq.heappop(ready)
        order.append(names[i])
        for c in children[i]:
            waiting[c] -= 1
            if not waiting[c]:
                heapq.heappush(ready, c)
    if len(order) < len(names):
        raise CyclicNetwork(f"cycle through {', '.join(sorted(n for n, i in index.items() if waiting[i]))}")
    return order


def _read_query(data: dict, names: dict[str, None]) -> list[str]:
    query = data.get("query")
    if not isinstance(query, list) or not query:
        raise NetworkFormatError("missing or empty 'query' list")
    for q in query:
        if not isinstance(q, str):
            raise NetworkFormatError(f"query entry {q!r} is not a variable name")
        if q not in names:
            raise UnknownQueryVariable(f"query variable {q!r} is not declared")
    if len(set(query)) != len(query):
        raise NetworkFormatError("query lists a variable twice")
    return query
