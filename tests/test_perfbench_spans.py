"""The benchmark's span tracer must keep resolving the functions it wraps.

``perfbench/spans.py`` names package functions by dotted path; a rename or
deletion in ``src/`` would only surface when the traced benchmark runs.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up while it loads
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def spans():
    return _load("spans")


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


def test_trace_hooks_read_parameters_that_exist(spans):
    # the hooks bind each call's arguments and read some of them by name: a
    # renamed parameter would only fail inside the traced benchmark
    from uqsl2 import QParam, cpotts, raffine, semicyclic, truncated_verma

    tracer = spans.Tracer()
    assert set(tracer._hooks) == {"raffine.eval_imaginary_prime", "cpotts.solve_intertwiner"}
    qp = QParam.root_of_unity(3)
    tracer.install()
    try:  # looked up after install, so the wrapped functions run
        raffine.eval_imaginary_prime(truncated_verma(0.7 + 0.1j, 3, qp), 1.0, 4, family="loop")
        cpotts.solve_intertwiner(semicyclic(0.4, 0.8 + 0.05j, qp),
                                 semicyclic(0.6, 1.3 - 0.11j, qp), 1.0)
    finally:
        assert tracer.restore() == []
    assert tracer.counts["raffine.schur.order_sum"] == 4
    assert tracer.counts["cpotts.solver.unknowns"] == 9**2


def test_traced_cli_mix_cycle(spans):
    # each cli-mix config once, at one seed, as the traced benchmark runs it; only
    # the checks that do not depend on timing (the wall-time sum is left out)
    from uqsl2 import cli

    workloads, jobs = _load("workloads"), _load("jobs")
    argvs = [workloads.job_argv(c, 1) for c in workloads.WORKLOADS["cli-mix"]["configs"]]
    assert len(argvs) == 13
    plain = [jobs.run_job(cli, argv) for argv in argvs]
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced = [jobs.run_job(cli, argv) for argv in argvs]
    finally:
        assert tracer.restore() == []
    assert [(r.exit_code, r.digest) for r in traced] == [(r.exit_code, r.digest) for r in plain]
    assert tracer.chains(("cpotts.r_semicyclic", "raffine.r_spectral",
                          "raffine.rplus_closed")) > 0
    assert tracer.spans and None not in tracer.spans
    assert all(tracer.spans[parent][1] <= start and end <= tracer.spans[parent][2]
               for _, start, end, parent in tracer.spans if parent >= 0)
    assert min(tracer.self_times()) >= -1e-9  # Tracer.check's rounding allowance
