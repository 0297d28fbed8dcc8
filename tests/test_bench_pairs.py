"""tools/bench_pairs.py: the rule that decides a paired record's gain, a stopped
session that leaves no benchmark run behind, and runs whose output holds no metrics."""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))

import bench_pairs  # noqa: E402  (the BLAS pins its output_digests import sets equal conftest.py's)

PAIRS = range(1, 11)


def run(pair, side, workload="cli-mix", **metrics):
    """One entry of ``runs``: every metric 1.0 unless given."""
    return {"pair": pair, "side": side, "workload": workload,
            **dict.fromkeys(bench_pairs.METRICS, 1.0), **metrics}


def paired(metric, parent, change):
    """Ten pairs, pair p reading parent[p - 1] and change[p - 1] on metric."""
    return [r for p in PAIRS for r in (run(p, "parent", **{metric: parent[p - 1]}),
                                       run(p, "change", **{metric: change[p - 1]}))]


def line(lines, metric):
    return next(x for x in lines if x.split()[1] == metric)


class TestSummary:
    PARENT = [100.0 + p / 10 for p in range(10)]  # median 100.45, quartiles 100.175, 100.725

    def test_every_pair_won_by_more_than_the_spread_is_a_gain(self):
        out = line(bench_pairs.summary(paired("jobs_per_s", self.PARENT,
                                              [x + 5 for x in self.PARENT])), "jobs_per_s")
        assert out.endswith("better in 10/10  gain")

    def test_nine_of_ten_pairs_are_enough(self):
        change = [x + 5 for x in self.PARENT]
        change[3] = 0.0
        out = line(bench_pairs.summary(paired("jobs_per_s", self.PARENT, change)), "jobs_per_s")
        assert out.endswith("better in 9/10  gain")

    def test_eight_of_ten_pairs_are_not(self):
        change = [x + 5 for x in self.PARENT]
        change[3] = change[7] = 0.0
        out = line(bench_pairs.summary(paired("jobs_per_s", self.PARENT, change)), "jobs_per_s")
        assert out.endswith("better in 8/10")

    def test_a_gap_within_the_parent_quartiles_is_no_gain(self):
        # won in every pair, but the medians lie 0.5 apart and the quartiles 0.55
        out = line(bench_pairs.summary(paired("jobs_per_s", self.PARENT,
                                              [x + 0.5 for x in self.PARENT])), "jobs_per_s")
        assert out.endswith("better in 10/10")

    def test_a_lower_is_better_metric_counts_the_other_way(self):
        lower = [x - 5 for x in self.PARENT]
        lines = bench_pairs.summary(paired("job_p50_s", self.PARENT, lower))
        assert line(lines, "job_p50_s").endswith("better in 10/10  gain")
        raised = bench_pairs.summary(paired("job_p50_s", self.PARENT,
                                            [x + 5 for x in self.PARENT]))
        assert line(raised, "job_p50_s").endswith("better in 0/10")

    def test_a_failed_side_leaves_its_pair_out_and_is_counted(self):
        runs = paired("jobs_per_s", self.PARENT, [x + 5 for x in self.PARENT])
        runs[5] = {"pair": 3, "side": "change", "workload": "cli-mix", "error": "exit 1"}
        lines = bench_pairs.summary(runs)
        assert lines[0] == f"{'cli-mix':14s} 1 failed run(s), their pairs left out"
        assert line(lines, "jobs_per_s").endswith("better in 9/9  gain")

    @pytest.mark.parametrize("complete", [0, 1])
    def test_fewer_than_two_complete_pairs_are_reported(self, complete):
        runs = [run(1, "parent"), run(2, "parent"), run(1, "change"), run(2, "change")]
        for pair in range(complete + 1, 3):  # the change side of the other pairs fails
            runs[1 + pair] = {"pair": pair, "side": "change", "workload": "cli-mix",
                              "error": "exit 1"}
        lines = bench_pairs.summary(runs)
        assert lines == [f"{'cli-mix':14s} {2 - complete} failed run(s), their pairs left out",
                         f"{'cli-mix':14s} fewer than two complete pairs"]


FAKE_RUN = """\
import os, time
open("pid.tmp", "w").write(str(os.getpid()))
os.replace("pid.tmp", "pid")
time.sleep(120)
"""


def alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def fake_checkout(path: Path, run_py: str) -> Path:
    """A checkout at path holding only perfbench/run.py with the text run_py."""
    (path / "perfbench").mkdir(parents=True)
    (path / "perfbench" / "run.py").write_text(run_py)
    return path


def test_sigterm_ends_the_running_benchmark(tmp_path):
    # a fake checkout whose perfbench/run.py writes its pid and sleeps
    fake = fake_checkout(tmp_path / "checkout", FAKE_RUN)
    pidfile = fake / "pid"
    session = subprocess.Popen(
        [sys.executable, str(ROOT / "tools" / "bench_pairs.py"), "--parent", str(fake),
         "--change", str(fake), "--name", "stopped", "--workload", "cli-mix",
         "--outdir", str(tmp_path)], stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    child = None
    try:
        deadline = time.monotonic() + 60
        while not pidfile.exists():
            assert session.poll() is None and time.monotonic() < deadline
            time.sleep(0.05)
        child = int(pidfile.read_text())
        session.send_signal(signal.SIGTERM)
        assert session.wait(timeout=30) == 128 + signal.SIGTERM
        deadline = time.monotonic() + 10
        while alive(child) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not alive(child)
    finally:
        if session.poll() is None:
            session.kill()
            session.wait()
        if child is not None and alive(child):
            os.kill(child, signal.SIGKILL)


def test_a_run_without_its_metrics_line_is_recorded_and_the_session_goes_on(tmp_path, capsys):
    # both runs exit 0: the parent's run.py prints nothing, the change's "not json"; the
    # session runs in this process (its SIGTERM handler put back after), each run.py in its own
    parent = fake_checkout(tmp_path / "parent", "")
    change = fake_checkout(tmp_path / "change", "print('not json')\n")
    handler = signal.getsignal(signal.SIGTERM)
    try:
        code = bench_pairs.main(["--parent", str(parent), "--change", str(change),
                                 "--name", "malformed", "--workload", "cli-mix",
                                 "--outdir", str(tmp_path)])
    finally:
        signal.signal(signal.SIGTERM, handler)
    out = capsys.readouterr().out
    assert code == 0
    runs = json.loads(next(tmp_path.glob("BENCH_pairs_*_malformed.json")).read_text())["runs"]
    assert len(runs) == 2 * bench_pairs.PAIRS
    for r in runs:
        last = "''" if r["side"] == "parent" else "'not json'"
        assert r["error"].startswith(f"malformed: last stdout line {last}: "), r
    assert f"{'cli-mix':14s} {2 * bench_pairs.PAIRS} failed run(s)" in out


@pytest.mark.parametrize("metrics, why", [
    ("", "KeyError: 'metrics'"),
    (', "metrics": [1]', "AttributeError: 'list' object has no attribute 'items'")])
def test_a_json_line_without_metrics_is_an_error(tmp_path, metrics, why):
    printed = '{"failed": 0, "attempted": 1, "correct": true' + metrics + '}'
    fake = fake_checkout(tmp_path, f"print({printed!r})\n")
    row = bench_pairs.run_once(fake, "cli-mix", 1, str(tmp_path / "pycache"))
    assert row == {"error": f"malformed: last stdout line {printed!r}: {why}"}
