"""uqsl2 benchmark: one client drives ``uqsl2.cli.main(argv)`` in a closed loop.

    python3 perfbench/run.py --workload cli-mix --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15

Run from the repository root; the package is imported from ``src/``.  Each
job starts when the previous one returns.  The loop runs the whole number of
cycles (see ``workloads.py``) nearest to ``--seconds``, checks every job's
output against ``reference.json`` and prints every metric by name and unit.  The
last line of standard output is one JSON object: with ``--trace 0`` it holds
the end-to-end metrics, with ``--trace 1`` the per-layer metrics of a traced
replay of the first cycle.  ``--workload all`` runs every workload, untraced
and traced, each in its own process.
"""

import os

# BLAS threads are pinned before numpy loads.
os.environ["OMP_NUM_THREADS"] = "1"
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from jobs import failures, run_job, worst_record  # noqa: E402
from spans import LAYERS, Tracer  # noqa: E402
from workloads import KNOWN_FAILURES, WORKLOADS, cycles, job_key  # noqa: E402

SETUP_PROBES = 5
TAIL_BEYOND = 10

END_TO_END_UNITS = {"setup_s": "s", "jobs_per_s": "1/s", "job_p50_s": "s",
                    "job_tail_s": "s", "peak_rss_mb": "MB"}


def per_layer_units() -> dict:
    units = {}
    for layer in LAYERS:
        units.update({f"{layer}.calls": "count", f"{layer}.self_s": "s", f"{layer}.share": "1"})
    units.update({"remainder.self_s": "s", "remainder.share": "1",
                  "raffine.schur.order_sum": "count", "cpotts.solver.unknowns": "count",
                  "cpotts.solver.gram_mb_computed": "MB", "cpotts.solver.dim1_ratio": "1",
                  "cli.out_bytes": "bytes", "cli.identical_outputs": "count",
                  "trace.overhead_ratio": "1"})
    return units


# ---------------------------------------------------------------------------
# set-up, provenance


def import_cli():
    """Import uqsl2.cli from this checkout's src/, never from elsewhere."""
    if not (SRC / "uqsl2" / "cli.py").is_file():
        raise SystemExit(f"error: {SRC / 'uqsl2'} not found; run from the repository root")
    sys.path.insert(0, str(SRC))
    import uqsl2.cli
    if Path(uqsl2.cli.__file__).resolve().parent != (SRC / "uqsl2").resolve():
        raise SystemExit(f"error: uqsl2 was imported from {uqsl2.cli.__file__}")
    return uqsl2.cli


def measure_setup(workload: str) -> tuple:
    """Median set-up time over fresh interpreters, and whether every warm-up passed."""
    times, ok = [], True
    for _ in range(SETUP_PROBES):
        proc = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), workload],
                              cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise SystemExit(f"error: set-up probe failed:\n{proc.stderr}")
        doc = json.loads(proc.stdout.strip().splitlines()[-1])
        times.append(doc["setup_s"])
        ok = ok and all(code == 0 for code in doc["exit_codes"])
    return statistics.median(times), ok


def git_commit():
    """The checkout's commit, or None outside a git repository.

    The search for ``.git`` stops at the checkout root, so an enclosing
    repository is never reported.
    """
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def source_digest() -> str:
    """Digest of the package sources; identifies the code where there is no commit."""
    h = hashlib.sha256()
    for path in sorted((SRC / "uqsl2").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def blas_version(show_config):
    try:
        return show_config(mode="dicts")["Build Dependencies"]["blas"].get("version")
    except Exception:       # older numpy/scipy have no dict mode
        return None


def provenance(workload: str, args, first_cycle: list) -> dict:
    import numpy
    import scipy
    spec = WORKLOADS[workload]
    return {
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": {"numpy": blas_version(numpy.show_config),
                     "scipy": blas_version(scipy.show_config)},
        "blas_threads": {k: os.environ.get(k) for k in ("OMP_NUM_THREADS",
                                                        "OPENBLAS_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "seed": args.seed,
        "seconds": args.seconds,
        "workload": workload,
        "clients": 1,
        "loop": "closed",
        "configs": [" ".join(c) for c in spec["configs"]],
        "job_seeds": spec["seeds"],
        "warmup": [" ".join(c) for c in spec["warmup"]],
        "cycle_jobs": len(first_cycle),
        "first_cycle_sha256": hashlib.sha256(
            "\n".join(job_key(j) for j in first_cycle).encode()).hexdigest(),
    }


# ---------------------------------------------------------------------------
# the loop


def timed_loop(cli, workload: str, seed: int, seconds: float) -> tuple:
    """Run the whole number of cycles that comes nearest to ``seconds``, at least one.

    Returns (results, wall time, first cycle).
    """
    results, canonical = [], {}
    first = None
    t0 = time.perf_counter()
    for done, cycle in enumerate(cycles(workload, seed), start=1):
        first = first or cycle
        for argv in cycle:
            res = run_job(cli, argv)
            # share one copy of each distinct output to bound memory
            res.output = canonical.setdefault((job_key(argv), res.digest), res.output)
            results.append(res)
        elapsed = time.perf_counter() - t0
        if elapsed >= seconds - elapsed / done / 2:
            return results, elapsed, first


def check_results(results, reference, validator) -> list:
    """(job, reasons) for every failed job; each distinct output is checked once."""
    cache, failed = {}, []
    for res in results:
        key = (job_key(res.argv), res.digest, res.exit_code, res.raised)
        if key not in cache:
            cache[key] = failures(res, reference.get(job_key(res.argv)), validator)
        if cache[key]:
            failed.append((res, cache[key]))
    return failed


def known_failures(cli) -> list:
    """Run the recorded failing inputs untimed and describe each outcome."""
    lines = []
    for argv in KNOWN_FAILURES:
        res = run_job(cli, argv)
        text = f"exit {res.exit_code}"
        if res.raised:
            text += f", raised {res.raised}"
        elif res.output:
            worst = worst_record(json.loads(res.output)["records"])
            text += (f", worst {worst['check']} {worst['residual']:.2e}"
                     f" (tolerance {worst['tolerance']:.0e}, {'pass' if worst['pass'] else 'fail'})")
        lines.append(f"  {job_key(argv)}: {text}")
    return lines


def tail(latencies: list) -> tuple:
    """(value, percentile) of the latency with TAIL_BEYOND samples above it.

    With fewer than 2 * TAIL_BEYOND samples that latency would lie below the
    median, so the maximum is reported instead.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n < 2 * TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def traced_replay(cli, cycle: list, untraced: list, reference: dict, validator) -> tuple:
    """Replay one cycle with every layer wrapped; return (metrics, problems, results)."""
    tracer = Tracer()
    tracer.install()
    try:
        t0 = time.perf_counter()
        results = [run_job(cli, argv) for argv in cycle]
        wall = time.perf_counter() - t0
    finally:
        still_wrapped = tracer.restore()
    problems = tracer.check(wall, [r.seconds for r in results])
    if still_wrapped:
        problems.append(f"aliases left wrapped: {still_wrapped}")
    if any(r.argv[0] == "rmatrix" and "semicyclic" in r.argv for r in results):
        chain = ("cpotts.r_semicyclic", "raffine.r_spectral", "raffine.rplus_closed")
        if not tracer.chains(chain):
            problems.append("nested chain r_semicyclic > r_spectral > rplus_closed not traced")
    untraced_digest = {job_key(r.argv): r.digest for r in untraced[:len(cycle)]}
    if any(untraced_digest.get(job_key(r.argv)) != r.digest for r in results):
        problems.append("traced outputs differ from untraced outputs")

    # untraced cost of the cycle: each job's median latency over the timed loop
    by_job = {}
    for res in untraced:
        by_job.setdefault(job_key(res.argv), []).append(res.seconds)
    untraced_seconds = sum(statistics.median(by_job[job_key(argv)]) for argv in cycle)

    totals = tracer.layer_totals()
    metrics = {}
    for layer, (calls, own) in totals.items():
        metrics.update({f"{layer}.calls": calls, f"{layer}.self_s": own,
                        f"{layer}.share": own / wall})
    remainder = wall - sum(r.seconds for r in results)
    counts = tracer.counts
    solver_calls = metrics["cpotts.solver.calls"]
    metrics.update({
        "remainder.self_s": remainder,
        "remainder.share": remainder / wall,
        "raffine.schur.order_sum": counts["raffine.schur.order_sum"],
        "cpotts.solver.unknowns": counts["cpotts.solver.unknowns"],
        "cpotts.solver.gram_mb_computed": counts["cpotts.solver.gram_bytes"] / 2**20,
        "cpotts.solver.dim1_ratio": (counts["cpotts.solver.dim1_calls"] / solver_calls
                                     if solver_calls else 0.0),
        "cli.out_bytes": sum(len(r.output.encode()) for r in results),
        "cli.identical_outputs": sum(reference.get(job_key(r.argv), {}).get("sha256") == r.digest
                                     for r in results),
        "trace.overhead_ratio": sum(r.seconds for r in results) / untraced_seconds,
    })
    return metrics, problems, results


# ---------------------------------------------------------------------------


def boltzmann_validator():
    import jsonschema
    schema = json.loads((SRC / "uqsl2" / "schemas" / "boltzmann.schema.json").read_text())
    return jsonschema.validators.validator_for(schema)(schema)


def run_workload(args) -> int:
    cli = import_cli()
    reference = json.loads((HERE / "reference.json").read_text())["jobs"]
    validator = boltzmann_validator()
    setup_s, warmups_ok = (measure_setup(args.workload) if not args.trace else (None, True))
    warm = [run_job(cli, argv) for argv in WORKLOADS[args.workload]["warmup"]]
    warmups_ok = warmups_ok and all(r.exit_code == 0 for r in warm)

    results, wall, first = timed_loop(cli, args.workload, args.seed, args.seconds)
    failed = check_results(results, reference, validator)
    problems = [] if warmups_ok else ["a warm-up job did not exit 0"]
    units = END_TO_END_UNITS
    if args.trace:
        metrics, trace_problems, replay = traced_replay(cli, first, results, reference, validator)
        failed += check_results(replay, reference, validator)
        problems += trace_problems
        results = results + replay
        units = per_layer_units()
    else:
        latencies = [r.seconds for r in results]
        tail_s, tail_pct = tail(latencies)
        metrics = {"setup_s": setup_s, "jobs_per_s": len(results) / wall,
                   "job_p50_s": statistics.median(latencies), "job_tail_s": tail_s,
                   "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}

    print(f"== uqsl2 benchmark: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds} s, trace {args.trace}")
    print("provenance " + json.dumps(provenance(args.workload, args, first), sort_keys=True))
    print("known failures (untimed, not counted):")
    print("\n".join(known_failures(cli)))
    for res, reasons in failed[:10]:
        print(f"FAILED {job_key(res.argv)}: {'; '.join(reasons)}")
    for problem in problems:
        print(f"CHECK FAILED {problem}")
    print("metrics:")
    for name, unit in units.items():
        print(f"  {name:34s} {metrics[name]:>14.6g} {unit}")
    print(f"  {'fail_ratio':34s} {len(failed) / len(results):>14.6g} 1"
          f"   ({len(failed)} of {len(results)} jobs)")
    if not args.trace:
        print(f"  job_tail_s is the {tail_pct:.2f}th percentile of {len(results)} samples"
              + (" (the maximum: too few samples for a tail with"
                 f" {TAIL_BEYOND} beyond it)" if len(results) < 2 * TAIL_BEYOND else ""))
    print(json.dumps({
        "correct": not failed and not problems,
        "attempted": len(results),
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if not failed and not problems else 1


def run_all(args) -> int:
    """Every workload, untraced then traced, each in a process of its own."""
    status = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=900)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            status = status or proc.returncode
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
