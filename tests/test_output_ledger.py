"""Every CLI job of tools/output_digests.py against tests/data/output_ledger.json.

The ledger holds, per output, the exit code, the stdout digest, each verify
record's residual and pass flag, the stderr line count and the diagnostic line,
and the env block (Python, numpy, scipy, BLAS, CPU features) it was recorded
under.  A change that moves an output re-records the ledger in the same commit:

    python3 tools/output_digests.py --no-demos --out tests/data/output_ledger.json

The demos are left out: tests/test_demos.py runs them.  The runner the ledger is
recorded with, ``output_digests.run_cli``, is pinned under pytest's own warning
capture; the last test pins the revision name (``output_digests.revision``) that
the benchmark records carry.
"""

import json
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
LEDGER = ROOT / "tests" / "data" / "output_ledger.json"
sys.path.insert(0, str(ROOT / "tools"))

import output_digests  # noqa: E402  (the BLAS pins it sets equal conftest.py's)

# Under another env a residual may move by this many times itself.  Another BLAS,
# numpy or CPU reorders floating-point sums; a change that only reordered sums (the
# one-term-per-entry scatter of the closed factors) moved rounding-level residuals by
# up to 3.1 of themselves (1.8e-15 -> 7.3e-15), and no residual further.  A residual
# that stops being rounding-level moves by orders of magnitude.  An exact zero must
# stay exact: it comes from products of exact zeros, which no BLAS rounds.
RESIDUAL_RTOL = 8.0


def mismatches(ledger: dict, env: dict, outputs: dict) -> list:
    """What differs between the ledger and a fresh run: exit codes, pass flags, record
    names, stderr line counts and diagnostics always; stdout digests when the env block
    matches, else each residual beyond RESIDUAL_RTOL of itself."""
    before = ledger["outputs"]
    out = [f"only in {'the ledger' if k in before else 'this run'}: {k}"
           for k in sorted(set(before) ^ set(outputs))]
    same_env = ledger["env"] == env
    for k in sorted(set(before) & set(outputs)):
        (code0, digest0, recs0, *err0), (code1, digest1, recs1, *err1) = before[k], outputs[k]
        if code0 != code1:
            out.append(f"exit code {code0} -> {code1}: {k}")
        if err0 != err1:
            out.append(f"stderr {err0} -> {err1}: {k}")
        if [(r[0], r[2]) for r in recs0] != [(r[0], r[2]) for r in recs1]:
            out.append(f"record names or pass flags changed: {k}")
        elif same_env and digest0 != digest1:
            out.append(f"stdout digest changed: {k}")
        elif not same_env:
            out += [f"{check} residual {r0:.4g} -> {r1:.4g}: {k}"
                    for (check, r0, _), (_, r1, _) in zip(recs0, recs1)
                    if not output_digests.relative_move(r0, r1) <= RESIDUAL_RTOL]
    return out


def test_cli_outputs_match_the_ledger():
    import uqsl2.cli
    ledger = json.loads(LEDGER.read_text())
    outputs = output_digests.cli_digests(uqsl2.cli)
    problems = mismatches(ledger, output_digests.env_block(), outputs)
    if problems:
        output_digests.compare(ledger["outputs"], outputs)  # the --against summary
    assert not problems, "\n".join(problems)


def test_runner_writes_every_warning_before_the_diagnostic():
    # pytest records the warnings of each test; inside the runner each one is still
    # written to the job's stderr, in order, and none reaches the recorder outside
    import numpy as np

    def main(argv):
        for _ in range(2):  # twice from one line of code: shown twice
            np.float64(1e300) * np.float64(1e300)
        sys.stderr.write('{"error": "refused", "code": 2}\n')
        return 2

    with warnings.catch_warnings(record=True) as outside:
        code, out, err = output_digests.run_cli(main, [])
    lines = err.splitlines()
    assert (code, out, outside) == (2, "", [])
    assert len(lines) == 5
    assert all("RuntimeWarning: overflow encountered" in line for line in lines[0:4:2])
    assert output_digests.stderr_summary(err) == [5, '{"error": "refused", "code": 2}']


@pytest.mark.parametrize("exit_arg,code", [(3, 3), ("a message", 2)])
def test_runner_gives_the_code_of_an_exit(exit_arg, code):
    # an int code is kept; an exit with a message counts as argparse's usage error, 2
    def main(argv):
        raise SystemExit(exit_arg)

    assert output_digests.run_cli(main, [])[0] == code


def test_another_env_compares_residuals():
    # under a different env the digests are not compared, the residuals are
    ledger = json.loads(LEDGER.read_text())
    other = {**ledger["env"], "numpy": "0"}
    job = next(k for k, v in ledger["outputs"].items() if v[2] and v[2][0][1] > 0)
    outputs = json.loads(json.dumps(ledger["outputs"]))
    outputs[job][1] = "0" * 64
    outputs[job][2][0][1] *= 1 + RESIDUAL_RTOL / 2
    assert mismatches(ledger, other, outputs) == []
    assert mismatches(ledger, ledger["env"], outputs) == [f"stdout digest changed: {job}"]
    outputs[job][2][0][1] *= 4
    assert len(mismatches(ledger, other, outputs)) == 1
    outputs[job][2][0][2] = not outputs[job][2][0][2]
    assert mismatches(ledger, other, outputs) == [
        f"record names or pass flags changed: {job}"]


def test_revision_is_dirty_only_when_the_code_differs(tmp_path):
    # in a fresh repository: an edited record or note leaves the name clean, an
    # edited file under src/ or perfbench/ marks it
    def git(*args):
        subprocess.run(["git", "-C", str(tmp_path), "-c", "user.name=t", "-c", "user.email=t@t",
                        "-c", "commit.gpgsign=false", *args], check=True, capture_output=True)

    for name in ("src/m.py", "perfbench/run.py", "NOTES.md"):
        (tmp_path / name).parent.mkdir(exist_ok=True)
        (tmp_path / name).write_text("1\n")
    git("init", "-q")
    git("add", "-A")
    git("commit", "-q", "-m", "one")
    head = output_digests.revision(tmp_path)
    assert head and head != "unknown" and not head.endswith("-dirty")
    (tmp_path / "NOTES.md").write_text("2\n")
    (tmp_path / "src" / "untracked.py").write_text("2\n")
    assert output_digests.revision(tmp_path) == head
    for name in ("src/m.py", "perfbench/run.py"):
        (tmp_path / name).write_text("2\n")
        assert output_digests.revision(tmp_path) == head + "-dirty"
        (tmp_path / name).write_text("1\n")
        assert output_digests.revision(tmp_path) == head
