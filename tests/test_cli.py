import contextlib
import io
import json
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "uqsl2.cli", *args],
                          capture_output=True, text=True)


def assert_config_error(argv, capsys):
    from uqsl2.cli import main
    assert main(list(argv)) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and json.loads(err)["code"] == 2


class TestRMatrix:
    def test_verma_top_entry(self, tmp_path):
        out = tmp_path / "r.json"
        res = run_cli("rmatrix", "--kind", "verma", "--q", "1.3,0",
                      "--depths", "2,2", "-o", str(out))
        assert res.returncode == 0
        doc = json.loads(out.read_text())
        top = complex(*doc["operator"]["matrix"][0][0])
        assert abs(top - 1.3**0.5) < 1e-12

    def test_spectral_normalization_recorded(self, tmp_path):
        out = tmp_path / "r.json"
        res = run_cli("rmatrix", "--kind", "spectral", "--Nprime", "3",
                      "--lambda1", "0.8,0.05", "--lambda2", "1.3,-0.11",
                      "--depths", "3,3", "--z", "1.0", "-o", str(out))
        assert res.returncode == 0
        doc = json.loads(out.read_text())
        assert abs(complex(*doc["normalization"]) - 1) < 1e-12

    def test_spectral_coincident_weights_report_pole(self):
        # equal weights with z on the unit lattice sit on the excluded locus
        res = run_cli("rmatrix", "--kind", "spectral", "--Nprime", "3",
                      "--lambda1", "1", "--lambda2", "1", "--depths", "3,3",
                      "--z", "1.0")
        assert res.returncode == 3
        assert json.loads(res.stderr.strip())["code"] == 3

    def test_semicyclic_writes_schema_valid_weights(self, tmp_path):
        import importlib.resources as res_
        import jsonschema
        out = tmp_path / "b.json"
        res = run_cli("rmatrix", "--kind", "semicyclic", "--Nprime", "3",
                      "--lambda1", "0.8,0.05", "--lambda2", "1.3,-0.11",
                      "--alpha1", "0.7", "--z", "1.0", "-o", str(out))
        assert res.returncode == 0
        doc = json.loads(out.read_text())
        schema = json.loads(
            res_.files("uqsl2.schemas").joinpath("boltzmann.schema.json").read_text())
        jsonschema.validate(doc, schema)
        assert doc["residuals"]["curve_alpha"] < 1e-12

    def test_unsupported_order_exits_2(self):
        res = run_cli("rmatrix", "--kind", "spectral", "--Nprime", "2",
                      "--lambda1", "1", "--lambda2", "1", "--depths", "3,3")
        assert res.returncode == 2
        diag = json.loads(res.stderr.strip())
        assert "unsupported order" in diag["error"]
        assert diag["code"] == 2

    def test_pole_exits_3(self):
        res = run_cli("rmatrix", "--kind", "semicyclic", "--Nprime", "3",
                      "--lambda1", "1.0", "--lambda2", "1.0",
                      "--alpha1", "0.7", "--alpha2", "0.7", "--z", "1.0")
        assert res.returncode == 3
        diag = json.loads(res.stderr.strip())
        assert diag["code"] == 3
        assert "weight_pair" in diag

    def test_conflicting_qparams_exit_2(self):
        res = run_cli("rmatrix", "--kind", "verma", "--q", "1.3", "--Nprime", "5")
        assert res.returncode == 2

    def test_tolerance_flag_rejected(self):
        # an export has no residual bound to apply a tolerance to
        from uqsl2.cli import main
        with pytest.raises(SystemExit) as exc:
            main(["rmatrix", "--kind", "verma", "--q", "1.3", "--depths", "2,2",
                  "--tol", "nan"])
        assert exc.value.code == 2

    def test_z_sweep_keyed_by_z(self, tmp_path):
        import importlib.resources as res_
        import jsonschema
        out = tmp_path / "r.json"
        res = run_cli("rmatrix", "--kind", "spectral", "--Nprime", "3",
                      "--lambda1", "0.8,0.05", "--lambda2", "1.3,-0.11",
                      "--depths", "3,3", "--z", "roots:3", "-o", str(out))
        assert res.returncode == 0
        doc = json.loads(out.read_text())
        assert len(doc["operators"]) == 3
        schema = json.loads(
            res_.files("uqsl2.schemas").joinpath("tensor_operator.schema.json").read_text())
        for entry in doc["operators"]:
            jsonschema.validate(entry["operator"], schema)

    def test_cartan_flag(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        base = ("rmatrix", "--kind", "spectral", "--q", "1.13,0.03",
                "--lambda1", "0.8,0.05", "--lambda2", "1.3,-0.11",
                "--depths", "2,2", "--z", "0.3")
        run_cli(*base, "--cartan", "normalized", "-o", str(a))
        run_cli(*base, "--cartan", "none", "-o", str(b))
        assert json.loads(a.read_text())["operator"] != json.loads(b.read_text())["operator"]


class TestVerify:
    @pytest.mark.parametrize("suite,flags", [
        ("ybe", ("--Nprime", "5", "--depths", "5,5,5")),
        ("intertwine", ("--Nprime", "3")),
        ("quasi", ("--q", "1.17,0.06")),
        ("central", ("--Nprime", "5")),
        ("drinfeld", ("--q", "1.13,0.03", "--depths", "5")),
        ("schur-oracle", ("--q", "1.13,0.03")),
        ("product-oracle", ("--q", "1.1,0.02")),
        ("coincidence", ("--Nprime", "3", "--depths", "6,6")),
        ("curve", ("--Nprime", "3", "--draws", "2")),
        ("curve", ("--Nprime", "3", "--draws", "2", "--sweep", "off-curve")),
    ])
    def test_suites_pass(self, suite, flags, tmp_path):
        out = tmp_path / "report.json"
        res = run_cli("verify", suite, *flags, "--seed", "7", "--tol", "1e-7",
                      "-o", str(out))
        assert res.returncode == 0, res.stderr
        doc = json.loads(out.read_text())
        assert doc["all_pass"]
        assert doc["records"]

    def test_report_schema(self, tmp_path):
        import importlib.resources as res_
        import jsonschema
        out = tmp_path / "report.json"
        run_cli("verify", "ybe", "--Nprime", "3", "--seed", "1", "-o", str(out))
        doc = json.loads(out.read_text())
        schema = json.loads(
            res_.files("uqsl2.schemas").joinpath("report.schema.json").read_text())
        jsonschema.validate(doc, schema)

    def test_detection_records_count_as_pass(self, tmp_path):
        out = tmp_path / "report.json"
        res = run_cli("verify", "curve", "--Nprime", "3", "--draws", "2",
                      "--sweep", "off-curve", "--seed", "5", "-o", str(out))
        assert res.returncode == 0
        doc = json.loads(out.read_text())
        assert all(r["mode"] == "detect" for r in doc["records"])

    def test_wrong_mode_exits_2(self):
        res = run_cli("verify", "quasi", "--Nprime", "3")
        assert res.returncode == 2

    def test_nonpositive_tolerance_exits_2(self):
        res = run_cli("verify", "ybe", "--Nprime", "3", "--tol", "-1")
        assert res.returncode == 2

    @pytest.mark.parametrize("argv", [
        ("verify", "ybe", "--q", "nan"),
        ("verify", "ybe", "--Nprime", "3", "--tol", "nan"),
        ("verify", "ybe", "--Nprime", "3", "--tol", "inf"),
        ("sweep", "--Nprime", "3", "--lambda2", "nan", "--lambda1-range", "1:1:1",
         "--alpha1-range", "0.2:0.2:1"),
        ("sweep", "--Nprime", "3", "--lambda-imag", "nan", "--lambda1-range", "1:1:1",
         "--alpha1-range", "0.2:0.2:1"),
        ("rmatrix", "--kind", "spectral", "--Nprime", "3", "--lambda1", "inf"),
    ], ids=["q-nan", "tol-nan", "tol-inf", "lambda2-nan", "lambda-imag-nan", "lambda1-inf"])
    def test_non_finite_input_exits_2(self, argv, capsys):
        assert_config_error(argv, capsys)

    @pytest.mark.parametrize("argv", [
        ("verify", "product-oracle", "--q", "1.1,0.02", "--depths", "5,5"),
        ("verify", "central", "--Nprime", "13"),
    ], ids=["product-oracle-depth-5", "central-13"])
    def test_imaginary_root_suites_pass_at_default_tolerance(self, argv, tmp_path, monkeypatch):
        # the dense log series failed both: a false commutator alarm, and
        # 2.8e-9 of rounding in the loop-F centrality residual
        from uqsl2.cli import main
        monkeypatch.delenv("UQSL2_TOL", raising=False)
        out = tmp_path / "report.json"
        assert main([*argv, "-o", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["tolerance"] == 1e-9 and doc["all_pass"]

    @pytest.mark.parametrize("draws", ["0", "-3"])
    def test_no_checks_exits_2(self, draws, tmp_path):
        # a report with no records in it must not pass
        out = tmp_path / "report.json"
        res = run_cli("verify", "curve", "--Nprime", "3", "--draws", draws, "-o", str(out))
        assert res.returncode == 2
        assert json.loads(res.stderr.strip())["code"] == 2
        assert not out.exists()

    def test_failing_check_exits_1(self, tmp_path):
        out = tmp_path / "r.json"
        res = run_cli("verify", "ybe", "--Nprime", "3", "--seed", "1",
                      "--tol", "1e-300", "-o", str(out))
        assert res.returncode == 1
        assert not json.loads(out.read_text())["all_pass"]


class TestSweep:
    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ("sweep", "--Nprime", "3", "--lambda1-range", "0.5:1.5:3",
                "--alpha1-range", "0.3:0.9:2", "--seed", "9")
        run_cli(*args, "-o", str(a))
        run_cli(*args, "-o", str(b))
        assert a.read_bytes() == b.read_bytes()
        lines = a.read_text().strip().split("\n")
        assert lines[0].startswith("nprime,lambda1")
        assert len(lines) == 1 + 3 * 2

    def test_empty_grid_header_only(self, tmp_path):
        out = tmp_path / "empty.csv"
        run_cli("sweep", "--Nprime", "3", "--lambda1-range", "0.5:1.5:0",
                "--alpha1-range", "0.3:0.9:0", "-o", str(out))
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 1

    @pytest.mark.parametrize("flag,spec", [("--lambda1-range", "1:2"),
                                           ("--alpha1-range", "0.2:1.0:x"),
                                           ("--lambda1-range", "nan:1:2")])
    def test_bad_range_exits_2(self, flag, spec):
        res = run_cli("sweep", "--Nprime", "3", flag, spec)
        assert res.returncode == 2
        diag = json.loads(res.stderr.strip())
        assert diag["code"] == 2 and spec in diag["error"]

    def test_tolerance_flag_rejected(self):
        # sweep has no residual bound to apply a tolerance to
        from uqsl2.cli import main
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--Nprime", "3", "--tol", "-1", "--lambda1-range", "1:1:1",
                  "--alpha1-range", "0.2:0.2:1"])
        assert exc.value.code == 2

    def test_bad_root_count_exits_2(self, capsys):
        assert_config_error(("sweep", "--Nprime", "3", "--z", "roots:abc"), capsys)

    def test_on_curve_rows(self, tmp_path):
        out = tmp_path / "s.csv"
        run_cli("sweep", "--Nprime", "3", "--lambda1-range", "0.5:1.5:2",
                "--alpha1-range", "0.3:0.9:2", "-o", str(out))
        for line in out.read_text().strip().split("\n")[1:]:
            cols = line.split(",")
            assert float(cols[8]) < 1e-6   # intertwine residual
            assert int(cols[9]) == 1       # nullspace dimension


class TestDeterminism:
    def test_verify_reports_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ("verify", "ybe", "--Nprime", "3", "--seed", "42")
        run_cli(*args, "-o", str(a))
        run_cli(*args, "-o", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_seed_changes_draws(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run_cli("verify", "ybe", "--Nprime", "3", "--seed", "1", "-o", str(a))
        run_cli("verify", "ybe", "--Nprime", "3", "--seed", "2", "-o", str(b))
        assert a.read_bytes() != b.read_bytes()

    def test_env_var_overrides_default_tolerance(self, tmp_path):
        import os
        out = tmp_path / "r.json"
        env = dict(os.environ, UQSL2_TOL="1e-5")
        res = subprocess.run(
            [sys.executable, "-m", "uqsl2.cli", "verify", "ybe", "--Nprime", "3",
             "--seed", "1", "-o", str(out)],
            capture_output=True, text=True, env=env)
        assert res.returncode == 0
        assert json.loads(out.read_text())["tolerance"] == 1e-5

    def test_bad_env_tolerance_exits_2(self, capsys, monkeypatch):
        monkeypatch.setenv("UQSL2_TOL", "abc")
        assert_config_error(("verify", "ybe", "--Nprime", "3"), capsys)


# ---------------------------------------------------------------------------
# the exit-code contract over the argument space

COMPLEX = st.sampled_from(["1", "0.8,0.05", "1.3,-0.11", "0", "-1", "2,0.5", "nan", "1,inf",
                           "abc", "1,2,3", ""])
QFLAGS = st.one_of(
    st.integers(-1, 7).map(lambda n: ["--Nprime", str(n)]),
    st.sampled_from(["1.17,0.06", "1.3", "0.9,-0.2", "1", "-1", "0", "nan", "abc", "1,2,3",
                     "x"]).map(lambda q: ["--q", q]),
    st.just([]),
    st.just(["--q", "1.2", "--Nprime", "3"]),
    st.just(["--Nprime", "x"]),
)
DEPTHS = st.sampled_from(["1", "2", "3", "1,1", "1,2", "2,2", "3,2", "2,3", "1,1,1", "2,1,2",
                          "2,2,2", "3,2,3", "0,2", "-1,2", "x", "2,,2"])
ZS = st.sampled_from(["1", "0.5,0.2", "0.3;1", "roots:3", "roots:0", "roots:x", "0", "nan", "2",
                      "-1"])
#: sweep grids stay at most 2 x 2 points
RANGES = st.sampled_from(["0.5:1.5:2", "1:1:1", "1:1:0", "1:2", "a:b:c", "0:1:-1", "nan:1:1",
                          "0.8:0.8:1"])


def optional(flag, values):
    return st.one_of(st.just([]), values.map(lambda v: [flag, v]))


RMATRIX_ARGS = st.tuples(
    st.just(["rmatrix"]), QFLAGS,
    optional("--kind", st.sampled_from(["verma", "reshetikhin", "spectral", "semicyclic", "x"])),
    optional("--lambda1", COMPLEX), optional("--lambda2", COMPLEX), optional("--depths", DEPTHS),
    optional("--alpha1", COMPLEX), optional("--alpha2", COMPLEX), optional("--z", ZS),
    optional("--cartan", st.sampled_from(["normalized", "raw", "none"])),
    optional("--tol", st.just("1e-9")))
VERIFY_ARGS = st.tuples(
    st.just(["verify"]),
    st.sampled_from(["ybe", "intertwine", "quasi", "central", "drinfeld", "curve",
                     "schur-oracle", "product-oracle", "coincidence", "x"]).map(lambda s: [s]),
    QFLAGS, optional("--depths", DEPTHS), optional("--seed", st.sampled_from(["0", "3", "x"])),
    optional("--tol", st.sampled_from(["1e-9", "1e-3", "0", "-1", "nan", "inf", "1e-300", "x"])),
    optional("--sweep", st.sampled_from(["on-curve", "off-curve"])),
    st.sampled_from(["0", "1", "2", "-1", "x"]).map(lambda v: ["--draws", v]))
SWEEP_ARGS = st.tuples(
    st.just(["sweep"]), QFLAGS,
    RANGES.map(lambda v: ["--lambda1-range", v]), RANGES.map(lambda v: ["--alpha1-range", v]),
    optional("--lambda-imag", st.sampled_from(["0.1", "0", "nan", "x"])),
    optional("--lambda2", COMPLEX), optional("--z", ZS))
CLI_ARGS = st.one_of(RMATRIX_ARGS, VERIFY_ARGS, SWEEP_ARGS).map(
    lambda parts: [a for part in parts for a in part])


def run_main(argv):
    """cli.main in-process: (exit code, stderr); an uncaught exception propagates."""
    from uqsl2.cli import main
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


class TestExitCodeContract:
    @given(CLI_ARGS)
    @settings(max_examples=60, deadline=None)
    def test_exit_codes_and_diagnostics(self, argv):
        code, err = run_main(argv)
        assert code in (0, 1, 2, 3), (argv, code)
        assert "Traceback" not in err, argv
        if code in (2, 3):
            assert err.count("\n") == 1 and err.endswith("\n"), (argv, err)
            assert json.loads(err)["code"] == code, (argv, err)

    @pytest.mark.parametrize("argv", [
        ("verify", "ybe", "--q", "1.17,0.06", "--depths", "2,1,2"),
        ("verify", "intertwine", "--Nprime", "3", "--depths", "1,1"),
        ("verify", "drinfeld", "--q", "1.17,0.06", "--depths", "2"),
    ], ids=["ybe", "intertwine", "drinfeld"])
    def test_depths_without_safe_window_exit_2(self, argv):
        code, err = run_main(list(argv))
        assert code == 2
        assert "safe window" in json.loads(err)["error"]

    @pytest.mark.parametrize("argv", [
        ("rmatrix", "--kind", "semicyclic", "--Nprime", "3", "--z", "0.5,0.2"),
        ("sweep", "--Nprime", "3", "--lambda1-range", "1:1:1", "--alpha1-range", "0.2:0.2:1",
         "--lambda-imag", "0"),
    ], ids=["rmatrix", "sweep"])
    def test_degenerate_curve_exits_2(self, argv):
        # lambda = 1 at N' = 3 makes K^N = 1, where the curve has no denominator
        code, err = run_main(list(argv))
        assert code == 2
        assert "degenerate curve" in json.loads(err)["error"]

    @pytest.mark.parametrize("argv", [
        ("verify", "product-oracle", "--q", "0.9,-0.2"),
        ("verify", "product-oracle", "--q", "1.3", "--seed", "3"),
    ], ids=["pochhammer-base", "growth-ratio"])
    def test_diverging_oracle_exits_2(self, argv):
        code, err = run_main(list(argv))
        assert code == 2
        assert "converge" in json.loads(err)["error"]

    def test_sweep_at_zero_spectral_parameter_exits_2(self):
        code, err = run_main(["sweep", "--Nprime", "3", "--lambda1-range", "0.5:0.5:1",
                              "--alpha1-range", "0.5:0.5:1", "--z", "0"])
        assert code == 2 and json.loads(err)["code"] == 2

    def test_usage_error_writes_one_json_line(self):
        code, err = run_main(["verify", "ybe", "--Nprime", "x"])
        assert code == 2
        assert err.count("\n") == 1 and json.loads(err)["code"] == 2
