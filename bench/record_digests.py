"""Record digests.json: the SHA-256 of each job's exit code and output.

    python3 bench/record_digests.py

Seeded workloads are recorded on run.REFERENCE_SEED.  Re-record only with a
change that is meant to alter what traceinv prints; every job must pass its
workload check first.
"""

import json
import shutil
import sys

import run
from workloads import WORKLOADS


def main():
    sys.path.insert(0, str(run.SRC))
    digests = {}
    for workload in WORKLOADS.values():
        workdir = run.WORK / f"record-{workload.name}"
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        try:
            tv, cli = run.fresh_import()
            jobs = workload.build(tv, run.REFERENCE_SEED, str(workdir))
            _, results = run.run_pass(cli, jobs)
            failed, bad = run.verify(workload, tv, jobs, [results], None)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        if failed:
            sys.exit(f"{workload.name}: not recording failing jobs: {bad}")
        digests[workload.name] = {
            job.id: run.digest(rc, out) for job, (rc, out, _, _) in zip(jobs, results)
        }
        print(f"{workload.name}: {len(jobs)} jobs recorded")
    run.DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
