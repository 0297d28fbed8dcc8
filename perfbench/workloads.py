"""Workload definitions: the jobs each workload runs, and why.

A workload is a list of *configs* (CLI argv without ``--seed``) and a pool
of job seeds.  One *cycle* is every config run once with every pool seed;
the benchmark seed only fixes the order of the jobs inside each cycle.  So
every run does the same work whatever its seed, and every job's output can
be compared with the reference outputs recorded in ``reference.json``.
"""

from __future__ import annotations

import random

TEST_TOL = ("--tol", "1e-7")   # the tolerance tests/test_cli.py uses

# tests/test_cli.py::TestVerify configurations, product-oracle left out
_TEST_SUITES = [
    ("verify", "ybe", "--Nprime", "5", "--depths", "5,5,5"),
    ("verify", "intertwine", "--Nprime", "3"),
    ("verify", "quasi", "--q", "1.17,0.06"),
    ("verify", "central", "--Nprime", "5"),
    ("verify", "drinfeld", "--q", "1.13,0.03", "--depths", "5"),
    ("verify", "schur-oracle", "--q", "1.13,0.03"),
    ("verify", "coincidence", "--Nprime", "3", "--depths", "6,6"),
    ("verify", "curve", "--Nprime", "3", "--draws", "2"),
    ("verify", "curve", "--Nprime", "3", "--draws", "2", "--sweep", "off-curve"),
]
_PAIR = ("--lambda1", "0.8,0.05", "--lambda2", "1.3,-0.11")
_EXPORTS = [
    ("rmatrix", "--kind", "spectral", "--Nprime", "3", *_PAIR, "--depths", "3,3",
     "--z", "roots:5"),
    ("rmatrix", "--kind", "semicyclic", "--Nprime", "3", *_PAIR, "--alpha1", "0.7",
     "--z", "1.0"),
    ("rmatrix", "--kind", "reshetikhin", "--Nprime", "3", *_PAIR, "--depths", "3,3"),
    ("sweep", "--Nprime", "3", "--lambda1-range", "0.5:1.5:2",
     "--alpha1-range", "0.3:0.9:2"),
]

WORKLOADS = {
    "cli-mix": {
        "why": "millisecond jobs: argparse, JSON output, module and operator builders "
               "dominate; the series oracles and the solver do little",
        "configs": [s + TEST_TOL for s in _TEST_SUITES] + _EXPORTS,
        "seeds": list(range(1, 9)),
        "warmup": [s + TEST_TOL for s in _TEST_SUITES] + _EXPORTS,
    },
    "oracle-series": {
        "why": "product-oracle at generic q: the Schur log series dominates",
        "configs": [("verify", "product-oracle", "--q", q) + TEST_TOL
                    for q in ("1.1,0.02", "1.05,0.02", "1.2,0.05")],
        "seeds": [1, 2, 3, 4],
        "warmup": [("verify", "product-oracle", "--q", "1.1,0.02", "--depths", "2,2")
                   + TEST_TOL],
    },
    "sweep-solver": {
        "why": "sweeps at N'=5 plus one N'=7 point: the dense intertwiner solver "
               "dominates and sets peak memory",
        "configs": [("sweep", "--Nprime", "5", "--lambda1-range", f"{l1}:{l1}:1",
                     "--alpha1-range", "0.2:1.0:5") for l1 in ("0.5", "1.0", "1.5")]
                   + [("sweep", "--Nprime", "7", "--lambda1-range", "0.8:0.8:1",
                       "--alpha1-range", "0.5:0.5:1")],
        "seeds": [1],
        "warmup": [("sweep", "--Nprime", "3", "--lambda1-range", "0.5:0.5:1",
                    "--alpha1-range", "0.3:0.3:1")],
    },
    "dense-large": {
        "why": "large dense verifiers: fractional matrix powers and Yang-Baxter "
               "residuals on 729x729 triples dominate",
        # ybe --Nprime 9 is listed twice so that the median job falls inside
        # one job population, not in the gap between two
        "configs": [
            ("verify", "ybe", "--Nprime", "9"),
            ("verify", "ybe", "--Nprime", "9"),
            ("verify", "ybe", "--q", "1.17,0.06", "--depths", "8,8,8"),
            ("verify", "coincidence", "--Nprime", "9"),
            ("verify", "quasi", "--depths", "7,7,7", "--q", "1.17,0.06"),
        ],
        "seeds": list(range(1, 10)),
        "warmup": [
            ("verify", "ybe", "--Nprime", "3"),
            ("verify", "ybe", "--q", "1.17,0.06"),
            ("verify", "coincidence", "--Nprime", "3", "--depths", "6,6"),
            ("verify", "quasi", "--q", "1.17,0.06"),
        ],
    },
}

# Inputs found to fail at the seed commit.  They run untimed on every
# invocation and are reported, never counted as timed jobs.
KNOWN_FAILURES = [
    ("verify", "product-oracle", "--q", "1.1,0.02", "--depths", "5,5"),
    ("verify", "central", "--Nprime", "13"),
    ("verify", "intertwine", "--q", "1.17,0.06", "--depths", "12,12"),
]


def job_argv(config, seed: int) -> list:
    return [*config, "--seed", str(seed)]


def job_key(argv) -> str:
    return " ".join(argv)


def cycle_jobs(workload: str) -> list:
    """Every job of one cycle, in definition order."""
    spec = WORKLOADS[workload]
    return [job_argv(c, s) for c in spec["configs"] for s in spec["seeds"]]


def cycles(workload: str, seed: int):
    """Endless sequence of cycles; the benchmark seed fixes each cycle's order."""
    rng = random.Random(seed)
    jobs = cycle_jobs(workload)
    while True:
        order = list(jobs)
        rng.shuffle(order)
        yield order
