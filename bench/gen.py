"""Seeded input generators for the `chain` and `grid` workloads.

Both draw from `random.Random(seed)` only, so the same seed gives the same
inputs on every machine. The `suite` workload needs no generator here: its
inputs are `lve.verify.random_network(seed + i)`.

Sizes are spread over the whole range in every run rather than drawn one at a
time, so that a run's median does not hinge on a few lucky draws:

- chain lengths come in quads that all cost the same (see chain_lengths);
- grids cover every shape with sides in [GRID_MIN, GRID_MAX] once per cycle,
  in a seeded order.
"""

from __future__ import annotations

import math
import random

from lve.network import network_to_program
from lve.printer import program_str

CHAIN_MIN, CHAIN_MAX = 50, 250
CHAIN_POOL = 32
GRID_MIN, GRID_MAX = 8, 11


def _row(rng: random.Random) -> list[float]:
    # Four decimals print and reparse exactly, so rows still sum to one.
    p = round(rng.uniform(0.05, 0.95), 4)
    return [p, round(1.0 - p, 4)]


def _network(names: list[str], parents: list[list[str]], query: list[str], rng: random.Random) -> dict:
    nodes = [
        {"var": v, "parents": ps, "cpt": [_row(rng) for _ in range(2 ** len(ps))]}
        for v, ps in zip(names, parents)
    ]
    return {"variables": [{"name": v} for v in names], "nodes": nodes, "query": query}


def chain_network(length: int, rng: random.Random) -> dict:
    """A chain x1 -> x2 -> ... -> xn as a JSON network, querying its last node."""
    names = [f"x{i + 1}" for i in range(length)]
    parents = [[]] + [[names[i - 1]] for i in range(1, length)]
    return _network(names, parents, [names[-1]], rng)


def chain_lengths(rng: random.Random) -> list[int]:
    """CHAIN_POOL lengths in visiting order, in quads of equal cost.

    A chain op costs about a + b n + c n^2 for length n (vel typechecks the
    whole term on each of its n rules), so a run of ops of mixed lengths
    would have a rate that hinges on which lengths it reached. Each quad is
    m - d2, m + d1, m + d2, m - d1 about the middle m of the range, with
    d1 = r sin t and d2 = r cos t, r half the range: every quad has the same
    sum of lengths, 4m, and, up to rounding to whole nodes, the same sum of
    squares, 4m^2 + 2r^2. A run ends on a whole quad (worker.Chain), so its
    ops cost the same whatever the seed. The angle t takes one value in each
    of CHAIN_POOL / 4 equal strata of [0, pi/4], placed by one seeded offset,
    and the quads are visited in a seeded order."""
    mid = (CHAIN_MIN + CHAIN_MAX) / 2
    radius = (CHAIN_MAX - CHAIN_MIN) / 2
    quads = CHAIN_POOL // 4
    shift = rng.random()
    pool = []
    for q in range(quads):
        t = (q + shift) / quads * math.pi / 4
        d1, d2 = radius * math.sin(t), radius * math.cos(t)
        pool.append([round(mid - d2), round(mid + d1), round(mid + d2), round(mid - d1)])
    rng.shuffle(pool)
    return [n for quad in pool for n in quad]


def chain_texts(seed: int) -> list[str]:
    """The chain pool as `.lve` program text, printed by lve's own printer."""
    rng = random.Random(seed)
    return [program_str(network_to_program(chain_network(n, rng)).term) for n in chain_lengths(rng)]


def grid_network(rows: int, cols: int, rng: random.Random) -> dict:
    """An r x c grid: each node's parents are the node above and the node to its
    left. The query is the bottom-right corner, which every node reaches."""
    def name(i: int, j: int) -> str:
        return f"v{i}_{j}"

    names, parents = [], []
    for i in range(rows):
        for j in range(cols):
            names.append(name(i, j))
            parents.append(([name(i - 1, j)] if i else []) + ([name(i, j - 1)] if j else []))
    return _network(names, parents, [name(rows - 1, cols - 1)], rng)


def grid_networks(seed: int) -> list[dict]:
    """One grid of every shape with sides in [GRID_MIN, GRID_MAX], in a seeded order."""
    rng = random.Random(seed)
    sides = range(GRID_MIN, GRID_MAX + 1)
    shapes = [(r, c) for r in sides for c in sides]
    rng.shuffle(shapes)
    return [grid_network(r, c, rng) for r, c in shapes]
