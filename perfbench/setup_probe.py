"""Set-up time of a fresh interpreter for one workload.

Times ``import uqsl2.cli`` plus one warm-up job of each command path in the
workload (which pulls in the lazy ``scipy.linalg`` imports), and prints
``{"setup_s": ..., "exit_codes": [...]}``.

    python3 perfbench/setup_probe.py <workload>
"""

import os

os.environ["OMP_NUM_THREADS"] = "1"
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import json  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(1, str(HERE))

from jobs import run_job  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def main() -> int:
    warmup = WORKLOADS[sys.argv[1]]["warmup"]
    t0 = time.perf_counter()
    import uqsl2.cli
    codes = [run_job(uqsl2.cli, argv).exit_code for argv in warmup]
    seconds = time.perf_counter() - t0
    print(json.dumps({"setup_s": seconds, "exit_codes": codes}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
