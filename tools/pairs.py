"""Run the benchmark from two checkouts in alternating pairs and compare.

    python tools/pairs.py PARENT CHANGE --workload lu-compare --pairs 10

PARENT and CHANGE are source checkouts, each with its own ``bench/run.py``
and ``src/``.  Pair i runs ``bench/run.py`` once from each side, the parent
first in even pairs and the change first in odd ones, at seed 1 for the
``run_seconds`` of the parent's ``BENCHMARK.json``, under
``PYTHONDONTWRITEBYTECODE=1``.  Each run's line of end-to-end metrics is
printed as it ends.  Then, for each workload and each
end-to-end metric of the parent's ``BENCHMARK.json``, one line gives the
median and quartiles of each side, the ratio of the medians, the pairs
the change won and the pairs the side that ran first won, which shows an
order effect.  A metric is "unresolved" when the parent's spread (its
interquartile range over its median) exceeds the metric's bound: a change
of that size cannot be told from noise.

The script refuses to start while either side holds a ``__pycache__``
under ``src/``: bytecode an earlier run left behind makes that side's
set-up import faster than a fresh checkout's.  It exits 1 if any run is
not ``correct`` (or prints no result), 2 if it cannot start, else 0.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path


def quartiles(values):
    """(first quartile, median, third quartile) of ``values``."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(parent, change, metrics, change_first):
    """One row per metric of the paired runs ``parent[i]``, ``change[i]``
    (dicts of metric name to value), the change run first in pair i when
    ``change_first[i]``, for the metrics ``metrics`` (entries of
    ``BENCHMARK.json``'s ``end_to_end``): (name, parent quartiles, change
    quartiles, ratio of the medians, pairs the change won, pairs the side
    run first won, unresolved)."""
    rows = []
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        a = [run[name] for run in parent]
        b = [run[name] for run in change]
        qa, qb = quartiles(a), quartiles(b)
        won = [(y < x) if lower else (y > x) for x, y in zip(a, b)]
        lost = [(x < y) if lower else (x > y) for x, y in zip(a, b)]
        first = sum(w if c else l for w, l, c in zip(won, lost, change_first))
        ratio = qb[1] / qa[1] if qa[1] else float("nan")
        spread = (qa[2] - qa[0]) / abs(qa[1]) if qa[1] else float("inf")
        rows.append((name, qa, qb, ratio, sum(won), first, spread > metric["bound"]))
    return rows


def _format(workload, rows, pairs):
    for name, qa, qb, ratio, wins, first, unresolved in rows:
        print(
            f"{workload} {name:<12} parent {qa[1]:.6g} [{qa[0]:.6g}, {qa[2]:.6g}]"
            f"  change {qb[1]:.6g} [{qb[0]:.6g}, {qb[2]:.6g}]"
            f"  ratio {ratio:.3f}  wins {wins}/{pairs}  first-run wins {first}/{pairs}"
            + ("  unresolved" if unresolved else "")
        )


def _bytecode(checkout):
    return sorted((checkout / "src").rglob("__pycache__"))


def _run(checkout, workload, seconds):
    """One benchmark run from ``checkout``: (correct, metric values)."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload,
           "--seed", "1", "--seconds", str(seconds)]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True)
    try:
        result = json.loads(done.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stderr.write(done.stderr)
        return False, {}
    values = {name: m["value"] for name, m in result["metrics"].items()}
    return done.returncode == 0 and result["correct"], values


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", action="append",
                        help="repeat for several; default: every workload of BENCHMARK.json")
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)

    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for side, checkout in sides.items():
        if not (checkout / "bench" / "run.py").is_file():
            print(f"error: {side} {checkout} has no bench/run.py", file=sys.stderr)
            return 2
        found = _bytecode(checkout)
        if found:
            print(f"error: {side} holds bytecode, e.g. {found[0]}; remove it first", file=sys.stderr)
            return 2
    bench = json.loads((sides["parent"] / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]

    all_correct = True
    for workload in workloads:
        runs = {"parent": [], "change": []}
        change_first = []
        for i in range(args.pairs):
            order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
            change_first.append(order[0] == "change")
            for side in order:
                correct, values = _run(sides[side], workload, bench["run_seconds"])
                all_correct &= correct
                runs[side].append(values)
                shown = " ".join(f"{name}={value:.6g}" for name, value in values.items())
                print(f"pair {i} {side:<6} {workload} correct={correct} {shown}", flush=True)
        # a run that printed no result has no metrics to pair
        complete = [j for j in range(args.pairs) if runs["parent"][j] and runs["change"][j]]
        if complete:
            rows = summarize([runs["parent"][j] for j in complete],
                             [runs["change"][j] for j in complete], metrics,
                             [change_first[j] for j in complete])
            _format(workload, rows, len(complete))
    if not all_correct:
        print("error: a run was not correct", file=sys.stderr)
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
