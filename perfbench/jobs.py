"""Run one CLI job in-process and check its output against the reference."""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import time
from dataclasses import dataclass
from functools import cached_property


@dataclass
class JobResult:
    argv: list
    exit_code: int
    output: str
    raised: str | None
    seconds: float

    @cached_property
    def digest(self) -> str:
        return hashlib.sha256(self.output.encode()).hexdigest()


def run_job(cli_module, argv) -> JobResult:
    """Call ``cli_module.main(argv)`` with stdout captured in memory.

    ``main`` is looked up on every call so that a traced run reaches the
    wrapped function.  An exception escaping ``main`` is mapped to exit 1,
    the code ``python -m uqsl2.cli`` would end with.
    """
    out, err = io.StringIO(), io.StringIO()
    raised = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            code = cli_module.main(list(argv))
        except SystemExit as exc:        # argparse rejects the argv
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:         # counted as a failed job, never dropped
            code, raised = 1, f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t0
    return JobResult(list(argv), code, out.getvalue(), raised, seconds)


# Bounds tests/test_cli.py puts on outputs that carry no tolerance of their own.
SWEEP_RESIDUAL_BOUND = 1e-6        # a sweep row's intertwine_residual column
CURVE_ALPHA_BOUND = 1e-12          # residuals.curve_alpha of a Boltzmann export
# Exported operators must match the reference fingerprints to this share of their norm.
OPERATOR_RTOL = 1e-9


def _is_semicyclic_export(argv) -> bool:
    return argv[0] == "rmatrix" and "semicyclic" in argv


def _operator_entries(doc) -> list:
    """The complex entries of every operator an ``rmatrix`` export holds."""
    if "weights" in doc:
        return [[complex(*w[4]) for w in doc["weights"]]]
    ops = [doc["operator"]] if "operator" in doc else [o["operator"] for o in doc["operators"]]
    return [[complex(re, im) for row in op["matrix"] for re, im in row] for op in ops]


def fingerprint(entries: list) -> list:
    """Norm, entry sum, and first and last entries of one operator, as reals."""
    total = sum(entries)
    return [sum(abs(v) ** 2 for v in entries) ** 0.5, total.real, total.imag,
            entries[0].real, entries[0].imag, entries[-1].real, entries[-1].imag]


def _sweep_rows(output: str) -> list:
    """The columns of each CSV row below the header."""
    return [row.split(",") for row in output.strip().split("\n")[1:]]


def summarize(argv, output: str) -> dict:
    """The parts of an output that are compared with the reference.

    Record names and nullspace dimensions must match exactly, operator
    fingerprints within ``OPERATOR_RTOL``.
    """
    if argv[0] == "verify":
        return {"records": [r["check"] for r in json.loads(output)["records"]]}
    if argv[0] == "sweep":
        return {"nullspace_dims": [int(row[9]) for row in _sweep_rows(output)]}
    return {"fingerprints": [fingerprint(e) for e in _operator_entries(json.loads(output))]}


def _fingerprints_differ(got: list, want: list) -> bool:
    if len(got) != len(want):
        return True
    return any(abs(a - b) > OPERATOR_RTOL * max(1.0, w[0])
               for g, w in zip(got, want) for a, b in zip(g, w))


def worst_record(records) -> dict | None:
    """The record furthest on the wrong side of its tolerance, by ratio."""
    def badness(r):
        ratio = r["residual"] / r["tolerance"]
        return ratio if r["mode"] == "bound" else 1.0 / max(ratio, 1e-300)
    return max(records, key=badness, default=None)


def failures(res: JobResult, ref: dict | None, boltzmann_validator) -> list:
    """Reasons the job failed; an empty list means it passed."""
    if ref is None:
        return ["no reference output for this job"]
    reasons = []
    if res.raised:
        reasons.append(f"raised {res.raised}")
    if res.exit_code != ref["exit"]:
        reasons.append(f"exit {res.exit_code}, expected {ref['exit']}")
    if res.raised or not res.output:
        return reasons or ["no output"]
    try:
        summary = summarize(res.argv, res.output)
        doc = json.loads(res.output) if res.argv[0] != "sweep" else None
        sweep_residuals = ([float(row[8]) for row in _sweep_rows(res.output)]
                           if res.argv[0] == "sweep" else [])
    except (ValueError, KeyError, IndexError) as exc:
        return reasons + [f"unreadable output: {exc}"]
    for rec in (doc or {}).get("records", []):
        r, tol = rec["residual"], rec["tolerance"]
        if rec["mode"] == "bound" and not r < tol:
            reasons.append(f"{rec['check']}: {r:.3e} not below {tol:.1e}")
        if rec["mode"] == "detect" and not r > tol:
            reasons.append(f"{rec['check']}: {r:.3e} not above {tol:.1e}")
    for key, value in summary.items():
        differ = (_fingerprints_differ(value, ref.get(key, [])) if key == "fingerprints"
                  else value != ref.get(key))
        if differ:
            reasons.append(f"{key} differ from the reference")
    bad_rows = sum(not r < SWEEP_RESIDUAL_BOUND for r in sweep_residuals)
    if bad_rows:
        reasons.append(f"{bad_rows} sweep rows with intertwine_residual "
                       f"not below {SWEEP_RESIDUAL_BOUND:.0e}")
    if _is_semicyclic_export(res.argv):
        reasons += [f"boltzmann schema: {e.message}"
                    for e in boltzmann_validator.iter_errors(doc)]
        alpha = doc.get("residuals", {}).get("curve_alpha")
        if not (isinstance(alpha, (int, float)) and alpha < CURVE_ALPHA_BOUND):
            reasons.append(f"curve_alpha {alpha} not below {CURVE_ALPHA_BOUND:.0e}")
    return reasons
