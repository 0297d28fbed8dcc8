"""Shared test set-up.

BLAS runs on one thread, as in ``tools/output_digests.py`` and
``perfbench/run.py``: with OpenBLAS's default of one thread per CPU, the suite's
wall time follows the load of the host more than the code.  The pins must be set
before numpy loads, which pytest does not do before reading this file.

``pyproject.toml`` puts ``src`` on this process's import path.  The CLI tests run
``uqsl2.cli.main`` in-process; the few whose subject is a fresh interpreter
start one (``tests/test_cli.py``'s ``test_pole_exits_3``, ``TestDeterminism``
and ``test_scipy_is_loaded_by_the_solver_alone``, and the ``python -m uqsl2.cli``
runs of ``tests/test_acceptance.py``), and need ``src`` on the child's
``PYTHONPATH`` as well, so that plain ``pytest`` works without an install.
"""

import os
import sys
from pathlib import Path

if "numpy" in sys.modules:
    raise RuntimeError("numpy was imported before tests/conftest.py could pin BLAS threads")
os.environ.update({"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1"})

SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
