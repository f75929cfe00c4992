"""Tests of the benchmark itself. Run with: python3 -m pytest bench"""

from __future__ import annotations

import json
import random
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args: str, root: Path = ROOT) -> tuple[int, str]:
    done = subprocess.run(
        [sys.executable, str(root / "bench" / "run.py"), *args],
        capture_output=True, text=True, timeout=180, cwd=root,
    )
    return done.returncode, done.stdout


def result(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------- generators


def test_generators_are_deterministic_per_seed():
    assert gen.chain_texts(7) == gen.chain_texts(7)
    assert gen.chain_texts(7) != gen.chain_texts(8)
    assert gen.grid_networks(7) == gen.grid_networks(7)
    assert gen.grid_networks(7) != gen.grid_networks(8)


def test_chain_lengths_come_in_quads_of_equal_cost():
    mid = (gen.CHAIN_MIN + gen.CHAIN_MAX) / 2
    radius = (gen.CHAIN_MAX - gen.CHAIN_MIN) / 2
    for seed in range(50):
        lengths = gen.chain_lengths(random.Random(seed))
        assert len(lengths) == gen.CHAIN_POOL
        assert all(gen.CHAIN_MIN <= n <= gen.CHAIN_MAX for n in lengths)
        quads = [lengths[k : k + 4] for k in range(0, len(lengths), 4)]
        assert len({tuple(q) for q in quads}) == len(quads)
        for quad in quads:  # each length is within half a node of its target
            assert abs(sum(quad) - 4 * mid) <= 2
            assert abs(sum(n * n for n in quad) - (4 * mid * mid + 2 * radius * radius)) <= 2 * gen.CHAIN_MAX + 1


def test_chain_text_reparses_to_a_chain_of_the_drawn_length():
    from lve.parser import parse_program

    text = gen.chain_texts(3)[0]
    term = parse_program(text).term
    assert len(term.defs) == gen.chain_lengths(random.Random(3))[0]


def test_grids_cover_every_shape_once():
    shapes = []
    for net in gen.grid_networks(11):
        cells = [tuple(map(int, re.findall(r"\d+", v["name"]))) for v in net["variables"]]
        shapes.append((max(i for i, _ in cells) + 1, max(j for _, j in cells) + 1))
    sides = range(gen.GRID_MIN, gen.GRID_MAX + 1)
    assert sorted(shapes) == [(r, c) for r in sides for c in sides]


# ---------------------------------------------------------------- metrics


def test_tail_is_the_highest_percentile_with_ten_ops_beyond_it():
    assert run.tail([float(x) for x in range(100)]) == (89.0, 90.0)
    assert run.tail([float(x) for x in range(12)]) == (11.0, 100.0)


def test_closed_loop_ends_on_a_whole_batch():
    class Workload:
        batch = 3

        def op(self, api, i, rec):
            pass

    records, references, _ = worker.closed_loop(Workload(), tracing.Api(), 0.0)
    assert [r["i"] for r in records] == [0, 1, 2]
    assert len(references) >= 1 and all(t > 0 for t in references)


def test_self_time_subtracts_children():
    spans = [
        ["op", 0.0, 10.0, -1, 0],
        ["factors.eliminate", 1.0, 5.0, 0, 0],
        ["syntax.typecheck", 2.0, 3.0, 1, 0],
        ["syntax.typecheck", 6.0, 7.0, 0, 0],
    ]
    times = tracing.span_times(spans)
    assert times[("op", 0)] == [1, 10.0, 5.0]
    assert times[("factors.eliminate", 0)] == [1, 4.0, 3.0]
    assert times[("syntax.typecheck", 0)] == [2, 2.0, 2.0]


def test_metric_names_match_the_benchmark_spec():
    assert [m["name"] for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in SPEC["per_layer"]] == list(tracing.PER_LAYER)
    for m in SPEC["end_to_end"]:
        assert run.END_TO_END[m["name"]] == m["unit"]
    for m in SPEC["per_layer"]:
        assert tracing.UNITS[m["name"]] == m["unit"]


# ---------------------------------------------------------------- smoke runs


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_prints_every_end_to_end_metric_without_failures(workload):
    status, out = bench("--workload", workload, "--seed", "5", "--seconds", "0.1", "--trace", "0")
    got = result(out)
    assert status == 0 and got["correct"]
    assert got["attempted"] >= 1 and got["failed"] == 0
    assert {k: v["unit"] for k, v in got["metrics"].items()} == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in got["metrics"].values())
    assert "failed_ratio" in out


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_prints_every_per_layer_metric_and_its_counts_repeat(workload):
    runs = [bench("--workload", workload, "--seed", "9", "--seconds", "0.1", "--trace", "1") for _ in range(2)]
    first, second = (result(out) for _, out in runs)
    assert all(status == 0 for status, _ in runs) and first["correct"] and second["correct"]
    assert first["failed"] == 0
    assert {k: v["unit"] for k, v in first["metrics"].items()} == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for name in tracing.COUNT_METRICS:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
    assert "tracing overhead" in runs[0][1]


def test_exits_nonzero_without_a_result_when_lve_is_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    status, out = bench("--workload", "grid", "--seed", "1", "--seconds", "0.1", "--trace", "0", root=tmp_path)
    assert status != 0
    assert '"correct"' not in out


def test_wrong_answers_fail_the_run(tmp_path):
    for part in ("src", "samples"):
        shutil.copytree(ROOT / part, tmp_path / part, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    factors = tmp_path / "src" / "lve" / "factors.py"
    source = factors.read_text()
    readout = "    return g.flat()[gidx].copy()\n"
    assert source.count(readout) == 1
    factors.write_text(source.replace(readout, "    return g.flat()[gidx].copy() * 1.01\n"))
    status, out = bench("--workload", "grid", "--seed", "1", "--seconds", "0.1", "--trace", "0", root=tmp_path)
    got = result(out)
    assert status == 1 and not got["correct"]
    assert got["failed"] == got["attempted"]
    assert "preflight FAILED" in out and "wrong answer" in out
