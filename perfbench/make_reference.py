"""Record the reference outputs every timed job is checked against.

    python3 perfbench/make_reference.py

Runs each distinct job of every workload once and writes
``perfbench/reference.json``: per job its exit code, the sha256 of its
output, and the record names, nullspace dimensions or operator fingerprints
that later outputs must reproduce.  Refuses to write if any job fails its checks.
"""

import json
import sys

import run  # pins BLAS threads before numpy loads
from jobs import failures, run_job, summarize
from workloads import WORKLOADS, cycle_jobs, job_key


def main() -> int:
    cli = run.import_cli()
    validator = run.boltzmann_validator()
    jobs, bad = {}, []
    for workload in WORKLOADS:
        for argv in cycle_jobs(workload):
            res = run_job(cli, argv)
            entry = {"exit": 0, "sha256": res.digest}
            if not res.raised and res.output:
                entry.update(summarize(argv, res.output))
            reasons = failures(res, entry, validator)
            if reasons:
                bad.append(f"{job_key(argv)}: {'; '.join(reasons)}")
            jobs[job_key(argv)] = entry
            print(f"{res.seconds:8.3f} s  {job_key(argv)}", file=sys.stderr)
    if bad:
        print("\n".join(bad), file=sys.stderr)
        return 1
    doc = {"commit": run.git_commit(), "jobs": jobs}
    (run.HERE / "reference.json").write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
