"""traceinv benchmark: one workload, one seed, one process.

    python3 bench/run.py --workload lu-compare --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout and imports ``traceinv`` from its
``src`` directory.  Set-up (a fresh import of the package, input files
written from the seed, one warm-up job) is repeated ``SETUP_REPEATS`` times
and timed.  Then whole passes over the job list run, one job at a time in
this process, while the next pass is expected to end within ``--seconds``
(at least one pass).  Outputs are checked after the timed region.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and reports per-layer figures from spans around
traceinv's public functions (see tracing.py), plus the tracing overhead.
The last line of standard output is one JSON object with the result.
"""

from __future__ import annotations

import os

#: BLAS pool size for every run.  A multi-threaded OpenBLAS pool that falls
#: asleep between calls makes small gemms slow and bimodal; one thread
#: measures the same on every pass.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

from tracing import LAYER_METRICS, Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
DIGESTS = Path(__file__).resolve().parent / "digests.json"

SETUP_REPEATS = 5
#: Seed whose outputs digests.json records for the seeded workloads.
REFERENCE_SEED = 0

END_TO_END = {
    "wall_s": "s",
    "job_p50_ms": "ms",
    "job_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
}


def fresh_import():
    """Import traceinv from the checkout as a first import would."""
    for name in [n for n in sys.modules if n == "traceinv" or n.startswith("traceinv.")]:
        del sys.modules[name]
    tv = importlib.import_module("traceinv")
    cli = importlib.import_module("traceinv.cli")
    if Path(tv.__file__).resolve().parent != SRC / "traceinv":
        raise ImportError(f"traceinv imported from {tv.__file__}, not from {SRC}")
    return tv, cli


def run_job(cli, job):
    """Run one command line in-process; returns (rc, stdout, stderr, seconds).

    An exception or SystemExit from the program shows as rc None."""
    out, err = io.StringIO(), io.StringIO()
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(job.argv)
    except (Exception, SystemExit) as exc:  # a job failure, counted, not fatal
        rc = None
        err.write(f"{type(exc).__name__}: {exc}")
    return rc, out.getvalue(), err.getvalue(), perf_counter() - start


def run_pass(cli, jobs, tracer=None):
    gc.collect()
    results = []
    start = perf_counter()
    for job in jobs:
        if tracer is not None:
            tracer.job = job.id
        results.append(run_job(cli, job))
    return perf_counter() - start, results


def set_up(workload, seed, workdir, smoke):
    start = perf_counter()
    tv, cli = fresh_import()
    jobs = workload.build(tv, seed, workdir, smoke)
    warm = next((j for j in jobs if j.id == workload.warmup), jobs[0])
    run_job(cli, warm)
    return perf_counter() - start, tv, cli, jobs


def digest(rc, out):
    return hashlib.sha256(f"{rc}\n{out}".encode()).hexdigest()


def verify(workload, tv, jobs, passes, recorded):
    """Count failed job runs over all passes; return (failed, reasons).

    A job fails when it raised, exited with the wrong code, failed its
    workload check, differs from its recorded digest, or printed anything
    different from its first run."""
    first = passes[0]
    bad = {}
    for job, (rc, out, err, _) in zip(jobs, first):
        if rc is None:
            bad[job.id] = err
        elif rc != job.expect_rc:
            bad[job.id] = f"exit {rc}, expected {job.expect_rc}: {err.strip()}"
        elif recorded is not None and recorded.get(job.id) != digest(rc, out):
            bad[job.id] = "output differs from the recorded digest"
        else:
            try:
                reason = workload.check(tv, job, rc, out)
            except Exception as exc:  # an unparseable or unexpected output
                reason = f"check raised {type(exc).__name__}: {exc}"
            if reason:
                bad[job.id] = reason
    failed = 0
    for results in passes:
        for job, (rc, out, _, _), (rc0, out0, _, _) in zip(jobs, results, first):
            if job.id in bad:
                failed += 1
            elif (rc, out) != (rc0, out0):
                failed += 1
                bad.setdefault(job.id, "output changed between passes")
    return failed, bad


def reference_pass(workload, workdir, recorded):
    """For a seeded workload on another seed: build the reference seed's
    inputs and compare one untimed pass with the recorded digests."""
    tv, cli = fresh_import()
    refdir = workdir / "reference"
    refdir.mkdir()
    jobs = workload.build(tv, REFERENCE_SEED, str(refdir), smoke=False)
    _, results = run_pass(cli, jobs)
    bad = {
        f"reference:{job.id}": "output differs from the recorded digest"
        for job, (rc, out, _, _) in zip(jobs, results)
        if recorded.get(job.id) != digest(rc, out)
    }
    return len(jobs), bad


def environment(seed):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "seed": seed,
    }


def p90(samples):
    """Nearest-rank 90th percentile: the smallest sample with at least 90% of
    the samples at or below it.  Unlike an interpolated one, it picks the
    same job of a pass whatever the number of passes."""
    ordered = sorted(samples)
    return ordered[-(-9 * len(ordered) // 10) - 1]


def measure(cli, jobs, seconds, tracer):
    """Untraced passes (alternating with traced ones when tracing) while the
    next round is expected to end within ``seconds``; at least one round."""
    untraced, traced = [], []
    start = perf_counter()
    while True:
        round_start = perf_counter()
        untraced.append(run_pass(cli, jobs))
        if tracer is not None:
            with tracer.installed():
                traced.append(run_pass(cli, jobs, tracer))
        now = perf_counter()
        if now - start + (now - round_start) > seconds:
            return untraced, traced


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one tiny job instead of the workload's job list")
    args = parser.parse_args(argv)

    if not (SRC / "traceinv" / "cli.py").is_file():
        print(f"error: no traceinv sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]
    env = environment(args.seed)
    print("env " + json.dumps(env), flush=True)

    workdir = WORK / f"{workload.name}-seed{args.seed}-pid{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            shutil.rmtree(workdir)
            workdir.mkdir()
            seconds, tv, cli, jobs = set_up(workload, args.seed, str(workdir), args.smoke)
            setups.append(seconds)

        tracer = Tracer() if args.trace else None
        untraced, traced = measure(cli, jobs, args.seconds, tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        # smoke jobs have no recorded digests
        recorded = None if args.smoke else json.loads(DIGESTS.read_text())[workload.name]
        same_inputs = not workload.seeded or args.seed == REFERENCE_SEED
        passes = [results for _, results in untraced + traced]
        failed, bad = verify(workload, tv, jobs, passes, recorded if same_inputs else None)
        attempted = len(jobs) * len(passes)
        if recorded is not None and not same_inputs:
            extra, ref_bad = reference_pass(workload, workdir, recorded)
            attempted += extra
            failed += len(ref_bad)
            bad.update(ref_bad)
        for job_id, reason in bad.items():
            print(f"FAIL {workload.name} {job_id}: {reason}", file=sys.stderr)

        walls = [wall for wall, _ in untraced]
        print("setup_s " + " ".join(f"{t:.4f}" for t in setups))
        print("pass wall_s " + " ".join(f"{t:.4f}" for t in walls))
        if args.trace:
            probe = workload.probe(tv, jobs) if hasattr(workload, "probe") else None
            spans_path = WORK / f"spans-{workload.name}-seed{args.seed}.jsonl"
            tracer.dump(spans_path)
            values = layer_metrics(
                tracer.spans, len(traced), walls, [wall for wall, _ in traced], probe
            )
            metrics = {name: (values[name], unit) for name, unit in LAYER_METRICS.items()}
            print(f"spans {len(tracer.spans)} from {len(traced)} traced passes -> {spans_path}")
        else:
            samples = [dt for _, results in untraced for *_, dt in results]
            print(f"job latency: {len(samples)} samples from {len(untraced)} passes, "
                  f"{len(samples) - -(-9 * len(samples) // 10)} beyond p90")
            values = {
                "wall_s": statistics.median(walls),
                "job_p50_ms": statistics.median(samples) * 1e3,
                "job_p90_ms": p90(samples) * 1e3,
                "setup_s": statistics.median(setups),
                "peak_rss_mb": peak_rss_mb,
                "ok_frac": 1 - failed / attempted,
            }
            metrics = {name: (values[name], unit) for name, unit in END_TO_END.items()}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for name, (value, unit) in metrics.items():
        print(f"{workload.name} {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
