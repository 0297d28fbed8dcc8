"""Alternating before/after runs of perfbench/run.py from two checkouts.

    python3 tools/bench_pairs.py --parent DIR [--change DIR] --name NAME
        [--workload W [--workload W2 ...]] [--seed S [--seed S2 ...]] [--outdir OUT]

Each workload and each seed takes a flag of its own.  For each workload (default:
all four) and each seed (default: 1), PAIRS = 5 pairs are run, numbered on across
the seeds.  Each pair runs ``perfbench/run.py --workload W --seed S --trace 0``
once from each checkout, at run.py's own run length, each in its own process with
``PYTHONDONTWRITEBYTECODE=1`` and ``PYTHONPYCACHEPREFIX`` set to an empty
directory, so neither side reads a bytecode cache an earlier run left in its
checkout and both compile from source, as a fresh checkout does (run.py pins BLAS
to one thread); odd pairs run the parent first, even pairs the change first, so a
drift of the host falls on both sides alike.  The last line of each run's output,
its end-to-end metrics, becomes one entry of ``runs`` with the pair, the side, the
workload and the seed; a run that exits non-zero, passes TIMEOUT_S or ends without
that line becomes an entry with ``error`` in place of the metrics, and the session
goes on.  The record goes to ``OUT/BENCH_pairs_<date>_<NAME>.json`` (OUT defaults
to the root of this checkout), rewritten after every run, with ``what`` (the
protocol), ``parent`` and ``change`` (each checkout's
``output_digests.revision``), ``host`` (the CPU count and
``output_digests.env_block``: Python, numpy, scipy, their BLAS and LAPACK, and the
CPU features) and ``runs``.  At the end, per workload and metric, each side's
median and quartiles over the pairs that both sides completed are printed, with
the number of pairs in which the change was better and whether that makes a gain:
better in at least nine tenths of the pairs, and medians further apart than the
parent's quartiles.  A SIGTERM ends the session with exit status 143, and the run
it was waiting for is killed with it.
"""

import argparse
import datetime
import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from output_digests import ROOT, env_block, revision

WORKLOADS = ("cli-mix", "oracle-series", "sweep-solver", "dense-large")
PAIRS = 5
TIMEOUT_S = 900
#: end-to-end metrics and whether a higher value is better
METRICS = {"setup_s": False, "jobs_per_s": True, "job_p50_s": False, "job_tail_s": False,
           "peak_rss_mb": False}


def run_once(src: Path, workload: str, seed: int, pycache: str) -> dict:
    """One perfbench run from checkout src, bytecode looked up under the empty pycache:
    its closing JSON line, flattened, or ``error`` if it failed, ran out of time or
    ended without that line."""
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1", "PYTHONPYCACHEPREFIX": pycache}
    try:
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                               "--seed", str(seed), "--trace", "0"],
                              cwd=src, env=env, capture_output=True, text=True,
                              timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {TIMEOUT_S} s"}
    if proc.returncode:
        return {"error": f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"}
    last = (proc.stdout.strip().splitlines() or [""])[-1]
    try:
        doc = json.loads(last)
        return {"failed": doc["failed"], "attempted": doc["attempted"], "correct": doc["correct"],
                **{k: v["value"] for k, v in doc["metrics"].items()}}
    # not JSON, a field missing, or a field not of the expected kind
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        return {"error": f"malformed: last stdout line {last[-200:]!r}: "
                         f"{type(exc).__name__}: {exc}"}


def summary(runs: list) -> list:
    """Per workload and metric: each side's median and quartiles over the pairs both sides
    completed, the pairs the change won, and whether that is a gain."""
    lines = []
    for workload in dict.fromkeys(r["workload"] for r in runs):
        sides = {side: {r["pair"]: r for r in runs
                        if r["workload"] == workload and r["side"] == side and "error" not in r}
                 for side in ("parent", "change")}
        pairs = sorted(set(sides["parent"]) & set(sides["change"]))
        errors = sum(r["workload"] == workload and "error" in r for r in runs)
        if errors:
            lines.append(f"{workload:14s} {errors} failed run(s), their pairs left out")
        if len(pairs) < 2:
            lines.append(f"{workload:14s} fewer than two complete pairs")
            continue
        for metric, higher in METRICS.items():
            a = [sides["parent"][p][metric] for p in pairs]
            b = [sides["change"][p][metric] for p in pairs]
            (a1, a2, a3), (b1, b2, b3) = (statistics.quantiles(x, n=4) for x in (a, b))
            won = sum((y > x) if higher else (y < x) for x, y in zip(a, b))
            gain = won >= 0.9 * len(pairs) and abs(b2 - a2) > a3 - a1
            lines.append(f"{workload:14s} {metric:12s} {a2:10.4g} [{a1:.4g}, {a3:.4g}] -> "
                         f"{b2:10.4g} [{b1:.4g}, {b3:.4g}]  better in {won}/{len(pairs)}"
                         f"{'  gain' if gain else ''}")
    return lines


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", type=Path, required=True, help="checkout measured as before")
    p.add_argument("--change", type=Path, default=ROOT, help="checkout measured as after")
    p.add_argument("--name", required=True, help="the record's file name part")
    p.add_argument("--workload", action="append", choices=WORKLOADS,
                   help="workload to run (repeatable; default: all four)")
    p.add_argument("--seed", type=int, action="append",
                   help=f"perfbench seed, {PAIRS} pairs each (repeatable; default: 1)")
    p.add_argument("--outdir", type=Path, default=ROOT)
    args = p.parse_args(argv)
    # an exception, unlike SIGTERM's default action, makes subprocess.run kill its child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    workloads = args.workload or list(WORKLOADS)
    seeds = args.seed or [1]
    if not args.outdir.is_dir():
        p.error(f"no directory {args.outdir}")
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    out = args.outdir / f"BENCH_pairs_{datetime.date.today():%Y%m%d}_{args.name}.json"
    record = {
        "what": ("alternating parent/change pairs (odd pairs run the parent first), python3 "
                 "perfbench/run.py --workload W --seed S --trace 0 at run.py's own run "
                 "length, PYTHONDONTWRITEBYTECODE=1 and PYTHONPYCACHEPREFIX an empty "
                 "directory (no bytecode cache read), BLAS pinned to one thread by run.py; "
                 f"each side from its own checkout; {PAIRS} pairs per seed S in "
                 f"{', '.join(map(str, seeds))} on each of {', '.join(workloads)}"),
        "parent": revision(checkouts["parent"]),
        "change": revision(checkouts["change"]),
        "host": {"cpus": os.cpu_count(), **env_block()},
        "runs": [],
    }
    with tempfile.TemporaryDirectory(prefix="bench_pairs_pycache_") as pycache:
        for workload in workloads:
            for pair in range(1, PAIRS * len(seeds) + 1):
                seed = seeds[(pair - 1) // PAIRS]
                order = ("parent", "change") if pair % 2 else ("change", "parent")
                for side in order:
                    row = run_once(checkouts[side], workload, seed, pycache)
                    record["runs"].append({"pair": pair, "side": side, "workload": workload,
                                           "seed": seed, **row})
                    out.write_text(json.dumps(record, indent=1) + "\n")
                    print(f"{workload} pair {pair} {side}: "
                          f"{row.get('jobs_per_s', row.get('error'))}", file=sys.stderr)
    print("\n".join(summary(record["runs"])))
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
