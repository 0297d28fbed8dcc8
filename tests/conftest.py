"""Shared test set-up.

``pyproject.toml`` puts ``src`` on this process's import path; the tests that
run ``python -m uqsl2.cli`` in a subprocess need it on the child's
``PYTHONPATH`` as well, so that plain ``pytest`` works without an install.
"""

import os
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
