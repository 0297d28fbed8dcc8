"""Wall time of the intertwiner solver at N' = 3, 5, 7, 9, 11, 13 and 17, on and off the curve.

    python3 tools/solver_scaling.py [--src DIR] [--outdir OUT]

DIR is a checkout of this repository (default: the one holding this script);
its ``src/uqsl2`` is imported, so two checkouts are timed by the same script.
For each N' the script solves ``cpotts.solve_intertwiner`` on a semicyclic
pair on the curve (z = 1, alpha1 = 0.7, alpha2 its curve partner) and on one
off it (alpha2 = 1.9), REPEATS times each, with BLAS pinned to one thread.
It records the wall times, the nullspace dimension, how many of the N charge
blocks (a pair of N-dimensional semicyclic modules is graded mod N, where N,
the order of q^2, is N' at odd N' and N'/2 at even) were diagonalized and so
how many were certified without an eigensolve, and the
Python, numpy, scipy and BLAS versions (``output_digests.env_block``).  A
diagonalized block, or the sector transfer's pencil in its place, is one call of
the solver's per-block function ``cpotts._block_zeros``, so DIR must be a
checkout that has it; ``orders`` lists the order (``len(gram)``) of each call of
the last repeat: N^3 for a charge-0 block of N-dimensional modules, N^2 for the
pencil.  The transfer also counts the pencil's zeros at the two ends of its band
with ``cpotts._zeros_count`` outside ``_block_zeros``; ``count_orders`` lists the
order of each such call (none in a checkout that has no such function).  Each
solve's wall time is split into ``kernel_s``, the seconds spent inside those
calls of both functions (a count nested in ``_block_zeros`` is timed once), and
``rest_s``, the rest: the affine images, the block assembly and the checks.
The record goes to ``OUT/BENCH_solver_<date>_<rev>.json`` (OUT defaults to the
root of this checkout), <rev> being ``output_digests.revision`` of DIR;
``source_sha256`` fingerprints the timed ``src/uqsl2/*.py`` either way.
"""

import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from output_digests import (PINS, ROOT, env_block, import_cli,  # noqa: E402  (pins BLAS first)
                            revision)

import argparse  # noqa: E402
import datetime  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402

# 3: cli-mix's sweep size, where the work outside the kernel weighs most
NPRIMES = (3, 5, 7, 9, 11, 13, 17)
REPEATS = 3
LAM1, LAM2 = 0.8 + 0.05j, 1.3 - 0.11j


def source_digest(src: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((src / "src" / "uqsl2").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def time_solve(uqsl2, blocks, rep1, rep2) -> dict:
    cpotts = uqsl2.cpotts
    # the solver looks both up at call time; a checkout before the transfer has no count
    originals = {name: getattr(cpotts, name) for name in ("_block_zeros", "_zeros_count")
                 if hasattr(cpotts, name)}
    calls, counts = [], []  # per kernel call of the current solve: its seconds and its order
    nested = []  # nonempty inside a timed call, which then times the calls it makes

    def timed(name, log):
        def call(gram, threshold, *args, **kwargs):  # metric and count pass through
            if nested:
                return originals[name](gram, threshold, *args, **kwargs)
            nested.append(name)
            t0 = time.perf_counter()
            try:
                return originals[name](gram, threshold, *args, **kwargs)
            finally:
                log.append((time.perf_counter() - t0, len(gram)))
                nested.pop()
        return call

    walls, kernels = [], []
    for name, log in (("_block_zeros", calls), ("_zeros_count", counts)):
        if name in originals:
            setattr(cpotts, name, timed(name, log))
    try:
        for _ in range(REPEATS):
            calls.clear()
            counts.clear()
            t0 = time.perf_counter()
            _, dim = uqsl2.solve_intertwiner(rep1, rep2, 1.0)
            walls.append(time.perf_counter() - t0)
            kernels.append(sum(t for t, _ in calls + counts))
    finally:
        for name, original in originals.items():
            setattr(cpotts, name, original)
    rest = [w - k for w, k in zip(walls, kernels)]
    return {"wall_s": walls, "wall_s_min": min(walls), "wall_s_median": statistics.median(walls),
            "kernel_s": kernels, "kernel_s_median": statistics.median(kernels),
            "rest_s": rest, "rest_s_median": statistics.median(rest),
            "nullspace_dim": dim, "blocks": blocks, "diagonalized": len(calls),
            "certified": blocks - len(calls), "unknowns": (rep1.dim * rep2.dim) ** 2,
            "orders": [n for _, n in calls], "count_orders": [n for _, n in counts]}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--src", type=Path, default=ROOT)
    ap.add_argument("--outdir", type=Path, default=ROOT)
    args = ap.parse_args()
    src = args.src.resolve()
    import_cli(src)
    import uqsl2

    QParam, semicyclic = uqsl2.QParam, uqsl2.semicyclic
    qp3 = QParam.root_of_unity(3)  # warm-up: the lazy scipy imports
    uqsl2.solve_intertwiner(semicyclic(0.7, LAM1, qp3), semicyclic(0.3, LAM2, qp3), 1.0)
    runs = []
    for nprime in NPRIMES:
        qp = QParam.root_of_unity(nprime)
        sc1 = semicyclic(0.7, LAM1, qp)
        partners = {"on-curve": uqsl2.on_curve_partner(0.7, LAM1, LAM2, qp), "off-curve": 1.9}
        for kind, alpha2 in partners.items():
            rec = time_solve(uqsl2, qp.N, sc1, semicyclic(alpha2, LAM2, qp))
            runs.append({"nprime": nprime, "kind": kind, **rec})
            print(f"N'={nprime:2d} {kind:9s} dim {rec['nullspace_dim']}  "
                  f"{rec['certified']}/{rec['blocks']} blocks certified  orders {rec['orders']}  "
                  f"counts {rec['count_orders']}  "
                  f"min {rec['wall_s_min']:.3f} s  median kernel {rec['kernel_s_median']:.4f} s "
                  f"+ rest {rec['rest_s_median']:.4f} s", flush=True)
    doc = {
        "benchmark": "solver_scaling",
        "date": datetime.date.today().isoformat(),
        "revision": revision(src),
        "source_sha256": source_digest(src),
        "pairs": {"lambda1": [LAM1.real, LAM1.imag], "lambda2": [LAM2.real, LAM2.imag],
                  "alpha1": 0.7, "off_curve_alpha2": 1.9, "z": 1.0},
        "repeats": REPEATS,
        "runs": runs,
        "max_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "thread_pins": {k: os.environ.get(k) for k in PINS},
        "machine": {"cpus": os.cpu_count(), "platform": platform.platform()},
        "versions": env_block(),
    }
    out = args.outdir / f"BENCH_solver_{doc['date'].replace('-', '')}_{doc['revision']}.json"
    out.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"written to {out}")


if __name__ == "__main__":
    main()
