"""Checks of the benchmark itself: every workload at tiny sizes, and the
output checks catching damaged outputs."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import checks

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("table_cold", "verify_warm", "tree_deep", "value_deep")


def _bench(*args: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "bench.py"), "--workload", "all", "--smoke",
         "--seconds", "0", *args],
        capture_output=True, text=True, timeout=300, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_smoke_end_to_end():
    result = _bench("--trace", "0")
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    for name in WORKLOADS:
        for metric in ("wall_s", "ok_nodes_per_s", "peak_rss_mb", "setup_s"):
            assert result["metrics"][f"{name}.{metric}"]["value"] > 0


def test_smoke_traced_layers():
    result = _bench("--trace", "1")
    assert result["correct"] and result["failed"] == 0
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert m["table_cold.cf.cycle_states_calls"] == checks.tree_size(4)
    assert m["table_cold.integrals.cache_records_written"] == checks.tree_size(4)
    assert m["tree_deep.cf.cycle_states_calls"] == 0
    assert m["tree_deep.tree.nodes"] == checks.tree_size(6)
    assert m["verify_warm.integrals.compute_values_nodes"] == 0
    assert m["verify_warm.integrals.cache_hit_ratio"] == 1.0
    assert m["value_deep.integrals.integrate_J_calls"] == 4


def _markovj(*args: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, "-m", "markovj", *args], capture_output=True,
                          text=True, check=True, timeout=120, env=env).stdout


def test_checks_reject_damaged_outputs():
    table = _markovj("--depth", "3", "table")
    assert checks.check_table(table, 0, 3) == (9, 0, [])
    lines = table.splitlines(keepends=True)
    assert checks.check_table("".join(lines[:-1]), 0, 3)[1] == 9
    tip = lines[1].split(",")
    for j_re, problem in (("706.3248", "inconsistent"), ("706.324813611", "golden")):
        tip[7] = j_re  # j of the golden row 0/1, off by 2e-8 and by 1e-10 relative
        damaged = "".join([lines[0], ",".join(tip)] + lines[2:])
        attempted, failed, problems = checks.check_table(damaged, 0, 3)
        assert failed == 1 and problem in problems[0]

    tree = _markovj("--depth", "3", "tree")
    assert checks.check_tree(tree, 0, 3) == (9, 0, [])
    damaged = tree.replace('"2,3_3,4"', '"2,3_2,4,3"')
    assert damaged != tree and checks.check_tree(damaged, 0, 3)[1] == 1
