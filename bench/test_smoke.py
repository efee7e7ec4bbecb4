"""Smoke self-test of the benchmark harness at tiny sizes.

    python3 -m pytest bench/test_smoke.py

One tiny job per workload, untraced and traced, through the same command
line the benchmark is run with; plus the harness's own arithmetic.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracing import einsum_path_cost  # noqa: E402
from workloads import WORKLOADS, canonical_count, raw_count  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, *SPEC["command"][1:], *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_run(workload, trace):
    proc = bench("--workload", workload, "--seed", "5", "--seconds", "0.2",
                 "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())


def test_workloads_match_spec():
    assert sorted(WORKLOADS) == sorted(w["name"] for w in SPEC["workloads"])


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "lu-compare", "--seed", "0", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_burnside_counts():
    # class counts of the unfiltered canonical enumerations
    assert [canonical_count(*a) for a in ((2, 1, 6), (2, 2, 5), (3, 2, 4), (4, 1, 4))] == [
        1121, 4738, 10016, 14759,
    ]
    assert raw_count(2, 2, 4) == sum(math.factorial(k) ** 2 * 2**k for k in range(1, 5))


def test_einsum_path_cost_matches_numpy_report():
    rng = np.random.default_rng(0)
    for _ in range(20):
        ell, n = 4, 3
        perms = [rng.permutation(ell) for _ in range(n)]
        subs = [[i * ell + int(np.argsort(p)[j]) for i, p in enumerate(perms)]
                + [i * ell + j for i in range(n)] for j in range(ell)]
        operands = []
        for s in subs:
            operands += [np.ones((2,) * len(s)), s]
        path, report = np.einsum_path(*operands, [], optimize="greedy")
        flops, largest = einsum_path_cost(subs, [(2,) * len(s) for s in subs], [], path)
        lines = dict(line.split(":", 1) for line in report.splitlines() if ":" in line)
        assert float(lines["  Optimized FLOP count"]) == float(f"{flops:.3e}")
        assert float(lines["  Largest intermediate"].split()[0]) == float(f"{largest:.3e}")
