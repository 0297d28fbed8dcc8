"""Exit code, stdout digest and stderr summary of every benchmark job, known failure,
extra job and demo.

    python3 tools/output_digests.py --src DIR --out FILE [--against BEFORE] [--no-demos]

DIR is a checkout of this repository (default: the one holding this script).
Its ``src/uqsl2`` runs every job of every workload in ``perfbench/workloads.py``
in-process, through ``run_cli`` below, and so does each job of ``EXTRA_JOBS``; its
``demos/*.py`` run as subprocesses, unless ``--no-demos``.
The job list always comes from this script's own checkout, so two checkouts are
compared on the same jobs.  FILE receives ``{"env": ENV, "outputs": {job: [exit_code,
sha256 of stdout, records, stderr_lines, diagnostic]}}``, where records lists each
``verify`` record as ``[check, residual, pass]`` (empty for other outputs),
stderr_lines counts the lines written to stderr with every warning shown (under
pytest too, whose own warning capture would otherwise swallow them), and
diagnostic is the one-line JSON diagnostic of a refusal, the exception of a job that
ends in a traceback, or null.  Warning text holds checkout paths, so only its lines
are counted.  ENV names the Python, numpy, scipy and BLAS that ran (``env_block``).
Two runs with identical CLI output give identical files:

    python3 tools/output_digests.py --src ../parent --out before.json
    python3 tools/output_digests.py --out after.json --against before.json

With ``--against``, the outputs whose digest differs from BEFORE are
summarized: per check name, how many records moved and the largest relative
move of a residual.  Then every change of stderr line count or diagnostic is
listed, and every change of exit code or of a record's pass flag.  BEFORE must
come from this version of the script.  The exit status is 1 when any exit code
or pass flag changed.

``tests/data/output_ledger.json`` is this file for the CLI jobs alone
(``--no-demos``); ``tests/test_output_ledger.py`` regenerates it and compares.
``tests/test_cli.py`` runs the CLI through the same ``run_cli``.  A change that
moves an output re-records the ledger in the same commit:

    python3 tools/output_digests.py --no-demos --out tests/data/output_ledger.json
"""

import os

# BLAS threads are pinned before numpy loads, as in perfbench/run.py.
PINS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1"}
os.environ.update(PINS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

from workloads import KNOWN_FAILURES, WORKLOADS, cycle_jobs, job_key  # noqa: E402

#: end-to-end commands no workload runs: the default sweeps at N' = 5 and 7, one sweep of
#: two lambda1 rows of three alpha1 points, Yang-Baxter at N' = 13 and 17 (17 exits 1), the
#: rmatrix branches no workload reaches (a Verma export, a single-z spectral export under
#: each Cartan tail, a semicyclic export with an explicit off-curve --alpha2, a
#: degenerate weight with --alpha2 given, which exits 2, and both weights degenerate
#: with --alpha2 given at z = 1, where the pole of R(z) is met first and exits 3), and
#: extreme finite inputs that must exit 2 with no warning, among them q = e^{2 pi i/66},
#: where a q-factorial of the universal form vanishes
EXTRA_JOBS = [
    ("sweep", "--Nprime", "5"),
    ("sweep", "--Nprime", "7"),
    ("sweep", "--Nprime", "5", "--lambda1-range", "0.5:1.5:2", "--alpha1-range", "0.2:1.0:3"),
    ("rmatrix", "--kind", "verma", "--q", "1.17,0.06", "--depths", "4,4"),
    *(("rmatrix", "--kind", "spectral", "--Nprime", "5", "--depths", "5,5", "--z", "0.6,0.8",
       *cartan) for cartan in ((), ("--cartan", "raw"), ("--cartan", "none"))),
    ("rmatrix", "--kind", "semicyclic", "--Nprime", "5", "--lambda1", "0.8,0.05",
     "--lambda2", "1.3,-0.11", "--alpha1", "0.7", "--alpha2", "0.3", "--z", "1"),
    ("rmatrix", "--kind", "semicyclic", "--Nprime", "3", "--lambda1", "0.5", "--alpha1", "0.5",
     "--alpha2", "0.3"),
    ("rmatrix", "--kind", "semicyclic", "--Nprime", "3", "--alpha1", "0.5", "--alpha2", "0.3",
     "--z", "1"),
    ("verify", "ybe", "--Nprime", "13"),
    ("verify", "ybe", "--Nprime", "17"),
    *(("sweep", "--Nprime", "3", "--lambda1-range", "0.5:0.5:1", "--alpha1-range", f"{a}:{a}:1")
      for a in ("1e200", "1e300")),
    *(("verify", suite, "--q", "1e-20")
      for suite in ("drinfeld", "schur-oracle", "product-oracle")),
    *(("verify", suite, "--q", "1e-50") for suite in ("quasi", "intertwine", "product-oracle")),
    ("verify", "quasi", "--q", "0.9954719225730846,0.09505604330418266", "--depths", "34,34,34"),
    *(("verify", "ybe", "--q", q) for q in ("1e-70", "1e-80")),
    ("verify", "drinfeld", "--q", "1e-45"),
    ("verify", "schur-oracle", "--q", "1e-15"),
]


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


def run_cli(main, argv) -> tuple:
    """(exit code, stdout, stderr) of ``main(argv)``, run in-process with both streams
    captured.  argparse's ``SystemExit`` gives its code (2 when that is no int); any
    other exception propagates.  Every warning is written to the captured stderr, in
    order, not only the first one from its line of code: ``showwarning`` is replaced,
    since a surrounding ``catch_warnings(record=True)``, as pytest keeps around each
    test, would otherwise take the warnings before they reach stderr."""
    out, err = io.StringIO(), io.StringIO()

    def show(message, category, filename, lineno, file=None, line=None):
        err.write(warnings.formatwarning(message, category, filename, lineno, line))

    with (contextlib.redirect_stdout(out), contextlib.redirect_stderr(err),
          warnings.catch_warnings()):
        warnings.simplefilter("always")
        warnings.showwarning = show
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue(), err.getvalue()


def stderr_summary(err: str, raised=None) -> list:
    """[line count, diagnostic] of a job's stderr: the diagnostic is its last line when
    that is a JSON diagnostic, else the exception that ended the job, else None."""
    lines = err.splitlines()
    diag = lines[-1] if lines and lines[-1].startswith('{"error": ') else raised
    return [len(lines), diag]


def demo_digests(src: Path) -> dict:
    env = {**os.environ, **PINS, "PYTHONPATH": str(src / "src")}
    out = {}
    for script in sorted((src / "demos").glob("*.py")):
        proc = subprocess.run([sys.executable, str(script)], capture_output=True,
                              env=env, cwd=src, timeout=600)
        digest = hashlib.sha256(proc.stdout).hexdigest()
        out[f"demo {script.name}"] = [proc.returncode, digest, [],
                                      *stderr_summary(proc.stderr.decode())]
    return out


def verify_records(output: str) -> list:
    """[check, residual, pass] of each record of a verify report; [] for other output."""
    try:
        doc = json.loads(output)
    except ValueError:
        return []
    if not isinstance(doc, dict):
        return []
    return [[r["check"], r["residual"], r["pass"]] for r in doc.get("records", [])]


def relative_move(before: float, after: float) -> float:
    if before == after:
        return 0.0
    return abs(after - before) / abs(before) if before else float("inf")


def compare(before: dict, after: dict) -> int:
    """Print what moved between two digest files; 1 if a verdict changed."""
    common = sorted(k for k in after if k in before)
    changed = [k for k in common if before[k][1] != after[k][1]]
    print(f"{len(changed)} of {len(after)} outputs differ from the earlier run")
    for k in sorted(set(before) ^ set(after)):
        print(f"  only in {'the earlier' if k in before else 'this'} run: {k}")
    verdicts = [f"  exit code {before[k][0]} -> {after[k][0]}: {k}"
                for k in common if before[k][0] != after[k][0]]
    stderr = [f"  {k}: {before[k][3:]} -> {after[k][3:]}"
              for k in common if before[k][3:] != after[k][3:]]
    moved = {}        # check -> [records moved, largest relative move, job, before, after]
    for k in changed:
        recs0, recs1 = before[k][2], after[k][2]
        if not recs0 and not recs1:
            print(f"  differs, no verify records: {k}")
        if [r[0] for r in recs0] != [r[0] for r in recs1]:
            verdicts.append(f"  record names changed: {k}")
            continue
        for (check, res0, ok0), (_, res1, ok1) in zip(recs0, recs1):
            if ok0 != ok1:
                verdicts.append(f"  pass {ok0} -> {ok1}: {check} in {k}")
            rel = relative_move(res0, res1)
            if rel:
                row = moved.setdefault(check, [0, 0.0, "", 0.0, 0.0])
                row[0] += 1
                if rel > row[1]:
                    row[1:] = [rel, k, res0, res1]
    print("moved residuals, by check (records moved, largest relative move, where):")
    for check, (n, rel, k, res0, res1) in sorted(moved.items()):
        print(f"  {check:28s} {n:4d}  {rel:9.3g}  {res0:.4g} -> {res1:.4g}  ({k})")
    print("stderr changes, [line count, diagnostic]:" if stderr else "stderr: unchanged")
    for line in stderr:
        print(line)
    if not verdicts:
        print("exit codes and pass flags: unchanged")
        return 0
    print("exit code and pass flag changes:")
    for line in verdicts:
        print(line)
    return 1


def env_block() -> dict:
    """What an output's bytes depend on besides the source: the Python, numpy and scipy
    versions, the BLAS and LAPACK of each (their build directories left out) and the
    CPU features numpy found (OpenBLAS picks its kernels by CPU too)."""
    import numpy as np
    import scipy

    def libs(config):
        return {name: {k: v for k, v in config["Build Dependencies"][name].items()
                       if "directory" not in k} for name in ("blas", "lapack")}

    numpy_config = np.show_config(mode="dicts")
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "numpy_libs": libs(numpy_config),
            "scipy_libs": libs(scipy.show_config(mode="dicts")),
            "cpu_features": numpy_config["SIMD Extensions"]["found"]}


def revision(src: Path) -> str:
    """``git describe --always`` of the checkout src, or "unknown"; suffixed ``-dirty``
    when a tracked file under ``src/`` or ``perfbench/``, the code that runs, differs
    from HEAD (other files, such as the records, leave it off)."""
    git = ["git", "-C", str(src)]
    out = subprocess.run([*git, "describe", "--always"], capture_output=True, text=True)
    if not out.stdout.strip():
        return "unknown"
    diff = subprocess.run([*git, "diff", "--quiet", "HEAD", "--", "src", "perfbench"])
    return out.stdout.strip() + ("-dirty" if diff.returncode == 1 else "")


def cli_digests(cli_module) -> dict:
    """{job: [exit_code, sha256, records, stderr_lines, diagnostic]} of every workload
    job, known failure and extra job, each run once in-process by ``cli_module``.  An
    exception escaping ``main`` ends its job as exit 1, the code ``python -m uqsl2.cli``
    would end with, and is the job's diagnostic."""
    raised = []

    def main(argv):
        try:
            return cli_module.main(argv)
        except Exception as exc:
            raised.append(f"{type(exc).__name__}: {exc}")
            return 1

    jobs = ([argv for w in WORKLOADS for argv in cycle_jobs(w)]
            + [list(a) for a in (*KNOWN_FAILURES, *EXTRA_JOBS)])
    digests = {}
    for argv in jobs:
        key = job_key(argv)
        if key not in digests:
            raised.clear()
            code, out, err = run_cli(main, argv)
            digests[key] = [code, hashlib.sha256(out.encode()).hexdigest(),
                            verify_records(out),
                            *stderr_summary(err, raised[0] if raised else None)]
    return digests


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--src", type=Path, default=ROOT, help="repository checkout to run")
    p.add_argument("--out", required=True, help="JSON file to write")
    p.add_argument("--against", help="digest file of an earlier run to compare with")
    p.add_argument("--no-demos", action="store_true", help="leave out the demo scripts")
    args = p.parse_args(argv)
    before = None
    if args.against:
        with open(args.against) as fh:
            before = json.load(fh)["outputs"]
    digests = cli_digests(import_cli(args.src))
    if not args.no_demos:
        digests.update(demo_digests(args.src))
    lines = [f"{json.dumps(k)}: {json.dumps(v)}" for k, v in sorted(digests.items())]
    with open(args.out, "w") as fh:  # the env block on one line, then one job per line, for diff
        fh.write(f'{{"env": {json.dumps(env_block())},\n"outputs": {{\n'
                 + ",\n".join(lines) + "\n}}\n")
    print(f"{len(digests)} outputs written to {args.out}")
    return 0 if before is None else compare(before, digests)


if __name__ == "__main__":
    sys.exit(main())
