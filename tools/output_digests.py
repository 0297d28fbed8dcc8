"""Exit code and stdout digest of every benchmark job, known failure and demo.

    python3 tools/output_digests.py --src DIR --out FILE

DIR is a checkout of this repository (default: the one holding this script).
Its ``src/uqsl2`` runs every job of every workload in ``perfbench/workloads.py``
in-process, through ``perfbench/jobs.run_job``, and its ``demos/*.py`` run as
subprocesses.  The job list always comes from this script's own checkout, so
two checkouts are compared on the same jobs.  FILE receives
``{job: [exit_code, sha256 of stdout]}``; two runs with identical CLI output
give identical files:

    python3 tools/output_digests.py --src ../parent --out before.json
    python3 tools/output_digests.py --out after.json
    diff before.json after.json
"""

import os

# BLAS threads are pinned before numpy loads, as in perfbench/run.py.
PINS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1"}
os.environ.update(PINS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

from jobs import run_job  # noqa: E402
from workloads import KNOWN_FAILURES, WORKLOADS, cycle_jobs, job_key  # noqa: E402


def import_cli(src: Path):
    """uqsl2.cli from src/uqsl2 of the given checkout, never from elsewhere."""
    pkg = (src / "src" / "uqsl2").resolve()
    if not (pkg / "cli.py").is_file():
        raise SystemExit(f"error: {pkg} not found")
    sys.path.insert(0, str(pkg.parent))
    import uqsl2.cli
    if Path(uqsl2.cli.__file__).resolve().parent != pkg:
        raise SystemExit(f"error: uqsl2 was imported from {uqsl2.cli.__file__}")
    return uqsl2.cli


def demo_digests(src: Path) -> dict:
    env = {**os.environ, **PINS, "PYTHONPATH": str(src / "src")}
    out = {}
    for script in sorted((src / "demos").glob("*.py")):
        proc = subprocess.run([sys.executable, str(script)], capture_output=True,
                              env=env, cwd=src, timeout=600)
        out[f"demo {script.name}"] = [proc.returncode, hashlib.sha256(proc.stdout).hexdigest()]
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--src", type=Path, default=ROOT, help="repository checkout to run")
    p.add_argument("--out", required=True, help="JSON file to write")
    args = p.parse_args(argv)
    cli = import_cli(args.src)
    jobs = [argv for w in WORKLOADS for argv in cycle_jobs(w)] + [list(a) for a in KNOWN_FAILURES]
    digests = {}
    for argv in jobs:
        key = job_key(argv)
        if key not in digests:
            res = run_job(cli, argv)
            digests[key] = [res.exit_code, res.digest]
    digests.update(demo_digests(args.src))
    lines = [f"{json.dumps(k)}: {json.dumps(v)}" for k, v in sorted(digests.items())]
    with open(args.out, "w") as fh:
        fh.write("{\n" + ",\n".join(lines) + "\n}\n")  # one job per line, for diff
    print(f"{len(digests)} outputs written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
