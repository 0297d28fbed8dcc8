"""Determinism check: two invocations with the same seed must agree.

    python3 perfbench/selfcheck.py

Runs the traced ``cli-mix`` workload, the one with every command path,
twice with one seed and once with another.  The
two same-seed runs must have the same job list (first-cycle digest), the
same ``cli.identical_outputs`` and the same per-layer call counts; the other
seed must give another job order.  Exits 1 if any of this fails.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOAD = "cli-mix"
SEED = 1


def traced_run(seed: int) -> tuple:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", WORKLOAD, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"benchmark failed:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    prov = json.loads(next(ln for ln in lines if ln.startswith("provenance "))[11:])
    result = json.loads(lines[-1])
    return prov, result


def main() -> int:
    (prov_a, res_a), (prov_b, res_b) = (traced_run(SEED) for _ in range(2))
    prov_c, _ = traced_run(SEED + 1)
    exact = [k for k, v in res_a["metrics"].items()
             if v["unit"] == "count" or k == "cli.out_bytes"]
    checks = {
        "same job list": prov_a["first_cycle_sha256"] == prov_b["first_cycle_sha256"],
        "other seed, other job order": prov_a["first_cycle_sha256"] != prov_c["first_cycle_sha256"],
        "both runs correct": res_a["correct"] and res_b["correct"],
    }
    for key in exact:
        checks[f"same {key}"] = res_a["metrics"][key] == res_b["metrics"][key]
    for name, ok in checks.items():
        print(f"{'ok  ' if ok else 'FAIL'} {name}")
    return 0 if all(checks.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
