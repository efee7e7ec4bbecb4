"""Time one-shot ``traceinv`` commands from two checkouts in alternating order.

    python tools/oneshot.py PARENT CHANGE --runs 7 -- compare --a A.json --b B.json

PARENT and CHANGE are source checkouts.  Each run is a fresh Python process
that imports ``traceinv`` from the checkout's ``src/`` and runs its command
line with the arguments after ``--``, from the current directory, so it pays
for everything a one-shot command pays for: the imports, the enumeration,
the planning and the evaluation.  The benchmark, which times passes in one
process, sees none of that.  Run i runs the parent first when i is even and
the change first when it is odd.  Each side first runs once untimed, which
writes its bytecode to a temporary ``PYTHONPYCACHEPREFIX`` of its own, so
the timed runs load bytecode as an installed package does and the
checkouts stay free of it.  BLAS runs on one thread, as in the benchmark.

Then one line gives the median and quartiles of each side's wall time, the
ratio of the medians, the runs the change won and the runs the side that ran
first won (as ``tools/pairs.py`` reports the benchmark).  The times are
"unresolved" when the parent's spread (its interquartile range over its
median) exceeds ``BOUND``.  Exits 1 if any run's exit code or standard
output differs from the parent's first run, else 0.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent))
from pairs import _format, summarize  # noqa: E402

CODE = "import sys; from traceinv.cli import main; sys.exit(main())"
# a one-shot command may be at most 3% slower than the parent's, so a
# parent whose own spread exceeds 3% cannot resolve a ratio
BOUND = 0.03


def summary(parent, change, change_first, bound):
    """The ``pairs.summarize`` row of the wall times ``parent[i]`` and
    ``change[i]`` of run i, the change first in run i when
    ``change_first[i]``, unresolved when the parent's spread exceeds
    ``bound``."""
    metric = {"name": "wall_s", "better": "lower", "bound": bound}
    [row] = summarize([{"wall_s": t} for t in parent], [{"wall_s": t} for t in change],
                      [metric], change_first)
    return row


def _run(checkout, cache, argv):
    """One fresh process: (seconds, exit code, standard output)."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"), PYTHONPYCACHEPREFIX=str(cache))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    start = perf_counter()
    done = subprocess.run([sys.executable, "-c", CODE, *argv], env=env, capture_output=True, text=True)
    return perf_counter() - start, done.returncode, done.stdout


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--runs", type=int, default=7)
    argv = sys.argv[1:] if argv is None else list(argv)
    if "--" not in argv or argv.index("--") == len(argv) - 1:
        parser.error("give the traceinv arguments after --")
    split = argv.index("--")
    args, command = parser.parse_args(argv[:split]), argv[split + 1:]

    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for side, checkout in sides.items():
        if not (checkout / "src" / "traceinv").is_dir():
            print(f"error: {side} {checkout} has no src/traceinv", file=sys.stderr)
            return 2
    times = {"parent": [], "change": []}
    change_first = []
    same = True
    with tempfile.TemporaryDirectory(prefix="traceinv-oneshot-") as tmp:
        caches = {side: Path(tmp) / side for side in sides}
        _, *want = _run(sides["parent"], caches["parent"], command)
        _run(sides["change"], caches["change"], command)
        for i in range(args.runs):
            order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
            change_first.append(order[0] == "change")
            for side in order:
                seconds, *got = _run(sides[side], caches[side], command)
                times[side].append(seconds)
                if got != want:
                    same = False
                    print(f"run {i} {side}: exit code or output differs from the parent's first run",
                          file=sys.stderr)
                print(f"run {i} {side:<6} wall_s={seconds:.6g}", flush=True)
    row = summary(times["parent"], times["change"], change_first, BOUND)
    _format("one-shot", [row], args.runs)
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
