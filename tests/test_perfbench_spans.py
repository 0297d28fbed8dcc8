"""The benchmark's span tracer must keep resolving the functions it wraps.

``perfbench/spans.py`` names package functions by dotted path; a rename or
deletion in ``src/`` would only surface when the traced benchmark runs.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_layer_name_resolves(spans):
    missing = []
    for names in spans.LAYERS.values():
        for name in names:
            module, *path = name.split(".")
            owner = importlib.import_module(f"{spans.PACKAGE}.{module}")
            for part in path:
                owner = getattr(owner, part, None)
            if not callable(owner):
                missing.append(name)
    assert missing == []


def test_install_then_restore_leaves_nothing_wrapped(spans):
    tracer = spans.Tracer()
    tracer.install()
    assert tracer.restore() == []
