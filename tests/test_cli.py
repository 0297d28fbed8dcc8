"""The ``uqsl2`` command line.

Every test runs ``uqsl2.cli.main`` in-process through ``run``, the runner that
``tools/output_digests.py`` records the output ledger with; it writes every warning
to the captured stderr, so a test that asserts stderr's lines also refuses a
warning on the way.  A subprocess is started only where the process is the
subject: ``test_pole_exits_3`` (the exit status of ``python -m uqsl2.cli``),
``TestDeterminism`` (bytes across fresh interpreters) and
``test_scipy_is_loaded_by_the_solver_alone`` (a fresh process's imports).
"""

import importlib
import inspect
import json
import math
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

from output_digests import run_cli  # noqa: E402  (the BLAS pins it sets equal conftest.py's)
from uqsl2.cli import main  # noqa: E402


def run(*argv):
    """(exit code, stdout, stderr) of ``main(argv)`` in-process; an exception other
    than argparse's exit propagates."""
    return run_cli(main, argv)


def refusal(*argv, code=2):
    """The JSON diagnostic of an argv that main refuses with exit ``code``, after
    checking that stderr holds that one line and nothing more."""
    got, _, err = run(*argv)
    assert got == code, (argv, got, err)
    assert err.count("\n") == 1 and err.endswith("\n"), (argv, err)
    diag = json.loads(err)
    assert diag["code"] == code, (argv, err)
    return diag


def run_python_m(*args):
    """``python -m uqsl2.cli`` in a fresh interpreter."""
    return subprocess.run([sys.executable, "-m", "uqsl2.cli", *args],
                          capture_output=True, text=True)


class TestRMatrix:
    def test_verma_top_entry(self, tmp_path):
        out = tmp_path / "r.json"
        code, _, _ = run("rmatrix", "--kind", "verma", "--q", "1.3,0",
                         "--depths", "2,2", "-o", str(out))
        assert code == 0
        doc = json.loads(out.read_text())
        top = complex(*doc["operator"]["matrix"][0][0])
        assert abs(top - 1.3**0.5) < 1e-12

    def test_spectral_normalization_recorded(self, tmp_path):
        out = tmp_path / "r.json"
        code, _, _ = run("rmatrix", "--kind", "spectral", "--Nprime", "3",
                         "--lambda1", "0.8,0.05", "--lambda2", "1.3,-0.11",
                         "--depths", "3,3", "--z", "1.0", "-o", str(out))
        assert code == 0
        doc = json.loads(out.read_text())
        assert abs(complex(*doc["normalization"]) - 1) < 1e-12

    def test_spectral_coincident_weights_report_pole(self):
        # equal weights with z on the unit lattice sit on the excluded locus
        refusal("rmatrix", "--kind", "spectral", "--Nprime", "3", "--lambda1", "1",
                "--lambda2", "1", "--depths", "3,3", "--z", "1.0", code=3)

    def test_semicyclic_writes_schema_valid_weights(self, tmp_path):
        import importlib.resources as res_
        import jsonschema
        out = tmp_path / "b.json"
        code, _, _ = run("rmatrix", "--kind", "semicyclic", "--Nprime", "3",
                         "--lambda1", "0.8,0.05", "--lambda2", "1.3,-0.11",
                         "--alpha1", "0.7", "--z", "1.0", "-o", str(out))
        assert code == 0
        doc = json.loads(out.read_text())
        schema = json.loads(
            res_.files("uqsl2.schemas").joinpath("boltzmann.schema.json").read_text())
        jsonschema.validate(doc, schema)
        assert doc["residuals"]["curve_alpha"] < 1e-12

    def test_semicyclic_at_nprime_4(self, tmp_path):
        # N' = 4 makes [2]_q = 0, which the imaginary root vectors need but these
        # R-matrices do not: the export is on the curve and intertwines
        import importlib.resources as res_
        import jsonschema
        from uqsl2 import QParam, TensorOperator, affine_intertwine_residual, semicyclic
        out = tmp_path / "b.json"
        assert main(["rmatrix", "--kind", "semicyclic", "--Nprime", "4",
                     "--lambda1", "0.8,0.05", "--lambda2", "1.3,-0.11",
                     "--alpha1", "0.7", "--z", "1.0", "-o", str(out)]) == 0
        doc = json.loads(out.read_text())
        jsonschema.validate(doc, json.loads(
            res_.files("uqsl2.schemas").joinpath("boltzmann.schema.json").read_text()))
        assert doc["residuals"]["curve_alpha"] < 1e-12
        d1, d2 = doc["dims"]
        *index, pairs = zip(*doc["weights"])
        i, j, ip, jp = map(np.array, index)
        R = np.full((d1 * d2, d1 * d2), np.nan, dtype=complex)
        R[ip * d2 + jp, i * d2 + j] = np.array(pairs, float).view(complex)[:, 0]
        c = {k: complex(*v) for k, v in doc["parameters"].items() if isinstance(v, list)}
        qp = QParam.root_of_unity(4)
        sc1 = semicyclic(c["alpha1"], c["lambda1"], qp)
        sc2 = semicyclic(c["alpha2"], c["lambda2"], qp)
        assert affine_intertwine_residual(c["z"], sc1, sc2,
                                          R=TensorOperator((d1, d2), R)) <= 1e-9

    def test_spectral_at_nprime_4(self, tmp_path):
        from uqsl2 import QParam, TensorOperator, affine_intertwine_residual, truncated_verma
        out = tmp_path / "r.json"
        assert main(["rmatrix", "--kind", "spectral", "--Nprime", "4",
                     "--lambda1", "0.8,0.05", "--lambda2", "1.3,-0.11",
                     "--depths", "6,6", "--z", "0.6,0.8", "-o", str(out)]) == 0
        op = json.loads(out.read_text())["operator"]
        R = TensorOperator(tuple(op["dims"]), np.array(op["matrix"], float).view(complex)[..., 0])
        qp = QParam.root_of_unity(4)
        reps = truncated_verma(0.8 + 0.05j, 6, qp), truncated_verma(1.3 - 0.11j, 6, qp)
        assert affine_intertwine_residual(0.6 + 0.8j, *reps, R=R) <= 1e-9

    def test_unsupported_order_exits_2(self):
        diag = refusal("rmatrix", "--kind", "spectral", "--Nprime", "2",
                       "--lambda1", "1", "--lambda2", "1", "--depths", "3,3")
        assert "unsupported order" in diag["error"]

    def test_pole_exits_3(self):
        # through `python -m`, whose sys.exit(main()) makes main's return the exit status
        res = run_python_m("rmatrix", "--kind", "semicyclic", "--Nprime", "3",
                      "--lambda1", "1.0", "--lambda2", "1.0",
                      "--alpha1", "0.7", "--alpha2", "0.7", "--z", "1.0")
        assert res.returncode == 3
        diag = json.loads(res.stderr.strip())
        assert diag["code"] == 3
        assert "weight_pair" in diag

    def test_conflicting_qparams_exit_2(self):
        refusal("rmatrix", "--kind", "verma", "--q", "1.3", "--Nprime", "5")

    def test_tolerance_flag_rejected(self):
        # an export has no residual bound to apply a tolerance to
        with pytest.raises(SystemExit) as exc:
            main(["rmatrix", "--kind", "verma", "--q", "1.3", "--depths", "2,2",
                  "--tol", "nan"])
        assert exc.value.code == 2

    def test_z_sweep_keyed_by_z(self, tmp_path):
        import importlib.resources as res_
        import jsonschema
        out = tmp_path / "r.json"
        code, _, _ = run("rmatrix", "--kind", "spectral", "--Nprime", "3",
                         "--lambda1", "0.8,0.05", "--lambda2", "1.3,-0.11",
                         "--depths", "3,3", "--z", "roots:3", "-o", str(out))
        assert code == 0
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
        assert run(*base, "--cartan", "normalized", "-o", str(a))[0] == 0
        assert run(*base, "--cartan", "none", "-o", str(b))[0] == 0
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
        code, _, err = run("verify", suite, *flags, "--seed", "7", "--tol", "1e-7",
                           "-o", str(out))
        assert code == 0, err
        doc = json.loads(out.read_text())
        assert doc["all_pass"]
        assert doc["records"]

    def test_report_schema(self, tmp_path):
        import importlib.resources as res_
        import jsonschema
        out = tmp_path / "report.json"
        assert run("verify", "ybe", "--Nprime", "3", "--seed", "1", "-o", str(out))[0] == 0
        doc = json.loads(out.read_text())
        schema = json.loads(
            res_.files("uqsl2.schemas").joinpath("report.schema.json").read_text())
        jsonschema.validate(doc, schema)

    def test_detection_records_count_as_pass(self, tmp_path):
        out = tmp_path / "report.json"
        code, _, _ = run("verify", "curve", "--Nprime", "3", "--draws", "2",
                         "--sweep", "off-curve", "--seed", "5", "-o", str(out))
        assert code == 0
        doc = json.loads(out.read_text())
        assert all(r["mode"] == "detect" for r in doc["records"])

    def test_wrong_mode_exits_2(self):
        refusal("verify", "quasi", "--Nprime", "3")

    def test_nonpositive_tolerance_exits_2(self):
        refusal("verify", "ybe", "--Nprime", "3", "--tol", "-1")

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
    def test_non_finite_input_exits_2(self, argv):
        refusal(*argv)

    @pytest.mark.parametrize("argv", [
        ("verify", "product-oracle", "--q", "1.1,0.02", "--depths", "5,5"),
        ("verify", "central", "--Nprime", "13"),
    ], ids=["product-oracle-depth-5", "central-13"])
    def test_imaginary_root_suites_pass_at_default_tolerance(self, argv, tmp_path):
        # the dense log series failed both: a false commutator alarm, and
        # 2.8e-9 of rounding in the loop-F centrality residual
        out = tmp_path / "report.json"
        assert main([*argv, "-o", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["tolerance"] == 1e-9 and doc["all_pass"]

    @pytest.mark.parametrize("draws", ["0", "-3"])
    def test_no_checks_exits_2(self, draws, tmp_path):
        # a report with no records in it must not pass
        out = tmp_path / "report.json"
        refusal("verify", "curve", "--Nprime", "3", "--draws", draws, "-o", str(out))
        assert not out.exists()

    def test_failing_check_exits_1(self, tmp_path):
        out = tmp_path / "r.json"
        code, _, _ = run("verify", "ybe", "--Nprime", "3", "--seed", "1",
                         "--tol", "1e-300", "-o", str(out))
        assert code == 1
        assert not json.loads(out.read_text())["all_pass"]


class TestSweep:
    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ("sweep", "--Nprime", "3", "--lambda1-range", "0.5:1.5:3",
                "--alpha1-range", "0.3:0.9:2", "--seed", "9")
        assert run(*args, "-o", str(a))[0] == run(*args, "-o", str(b))[0] == 0
        assert a.read_bytes() == b.read_bytes()
        lines = a.read_text().strip().split("\n")
        assert lines[0].startswith("nprime,lambda1")
        assert len(lines) == 1 + 3 * 2

    def test_empty_grid_header_only(self, tmp_path):
        out = tmp_path / "empty.csv"
        code, _, _ = run("sweep", "--Nprime", "3", "--lambda1-range", "0.5:1.5:0",
                         "--alpha1-range", "0.3:0.9:0", "-o", str(out))
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 1

    @pytest.mark.parametrize("flag,spec", [("--lambda1-range", "1:2"),
                                           ("--alpha1-range", "0.2:1.0:x"),
                                           ("--lambda1-range", "nan:1:2")])
    def test_bad_range_exits_2(self, flag, spec):
        assert spec in refusal("sweep", "--Nprime", "3", flag, spec)["error"]

    def test_tolerance_flag_rejected(self):
        # sweep has no residual bound to apply a tolerance to
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--Nprime", "3", "--tol", "-1", "--lambda1-range", "1:1:1",
                  "--alpha1-range", "0.2:0.2:1"])
        assert exc.value.code == 2

    def test_bad_root_count_exits_2(self):
        refusal("sweep", "--Nprime", "3", "--z", "roots:abc")

    def test_on_curve_rows(self, tmp_path):
        out = tmp_path / "s.csv"
        code, _, _ = run("sweep", "--Nprime", "3", "--lambda1-range", "0.5:1.5:2",
                         "--alpha1-range", "0.3:0.9:2", "-o", str(out))
        assert code == 0
        for line in out.read_text().strip().split("\n")[1:]:
            cols = line.split(",")
            assert float(cols[8]) < 1e-6   # intertwine residual
            assert int(cols[9]) == 1       # nullspace dimension

    #: two lambda1 rows of three alpha1 points each, at N' = 5
    GRID = ["sweep", "--Nprime", "5", "--lambda1-range", "0.5:1.5:2",
            "--alpha1-range", "0.2:1.0:3"]

    def test_parent_r_matrix_built_once_per_row(self, monkeypatch):
        # alpha enters only through the quotient maps, so the parent pair's R(z)
        # is built at a row's first point and folded for each of its alphas
        import uqsl2.cpotts
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[0])
            return r_spectral(*args, **kwargs)

        r_spectral = uqsl2.cpotts.r_spectral
        monkeypatch.setattr(uqsl2.cpotts, "r_spectral", counted)
        code, _, err = run(*self.GRID)
        assert (code, err) == (0, "")
        assert len(calls) == 2

    def test_rows_match_a_point_by_point_build(self):
        from uqsl2 import (CurveSpec, QParam, affine_intertwine_residual, curve_residual,
                           on_curve_partner, r_semicyclic, semicyclic, solve_intertwiner)
        code, out, err = run(*self.GRID)
        assert (code, err) == (0, "")
        qp, lam2, z = QParam.root_of_unity(5), complex(1.3, -0.11), complex(1.0)
        lines = ["nprime,lambda1,lambda2,alpha1,alpha2,z,r1,r2,intertwine_residual,"
                 "nullspace_dim"]
        for l1 in np.linspace(0.5, 1.5, 2):
            lam1 = complex(l1, 0.1)
            for a1 in np.linspace(0.2, 1.0, 3):
                a2 = on_curve_partner(a1, lam1, lam2, qp)
                sc1, sc2 = semicyclic(a1, lam1, qp), semicyclic(a2, lam2, qp)
                r1, r2 = curve_residual(CurveSpec(z, lam1, lam2, a1, a2, N=qp.N), qp)
                resid = affine_intertwine_residual(z, sc1, sc2, R=r_semicyclic(z, sc1, sc2))
                _, dim = solve_intertwiner(sc1, sc2, z)
                lines.append(f"5,{lam1.real:.12g}{lam1.imag:+.12g}j,"
                             f"{lam2.real:.12g}{lam2.imag:+.12g}j,"
                             f"{a1:.12g},{a2.real:.12g}{a2.imag:+.12g}j,"
                             f"{z.real:.12g}{z.imag:+.12g}j,"
                             f"{r1:.6e},{r2:.6e},{resid:.6e},{dim}")
        assert out == "\n".join(lines) + "\n"

    def test_fold_overflow_at_a_rows_last_point_names_both_alphas(self):
        # the row's parent R-matrix is built at alpha1 = 0.5; the fold at 1e200 leaves float64
        diag = refusal("sweep", "--Nprime", "5", "--lambda1-range", "0.5:0.5:1",
                       "--alpha1-range", "0.5:1e200:2")
        assert "non-finite restricted R-matrix" in diag["error"]
        assert "alpha1=(1e+200+0j), alpha2=(" in diag["error"]


class TestWorkCounts:
    """How often one job builds what it could build once."""

    def test_ybe_builds_one_raising_table_per_module(self, monkeypatch):
        # three modules, each read by two of the three spectral R-matrices
        from uqsl2 import reps
        calls = []
        table = reps._raising_table
        monkeypatch.setattr(reps, "_raising_table", lambda rep: calls.append(rep) or table(rep))
        code, _, _ = run("verify", "ybe", "--Nprime", "9")
        assert code == 0 and len(calls) == 3

    def test_product_oracle_builds_each_closed_factor_once(self, monkeypatch):
        from uqsl2 import cli, raffine
        calls = []
        for name in ("rplus_closed", "rminus_closed", "rzero_bar"):
            build = getattr(raffine, name)
            counted = (lambda b, n: lambda *a, **k: calls.append(n) or b(*a, **k))(build, name)
            for module in (cli, raffine):
                monkeypatch.setattr(module, name, counted)
        code, _, _ = run("verify", "product-oracle", "--q", "1.1,0.02")
        assert code == 0
        assert sorted(calls) == ["rminus_closed", "rplus_closed", "rzero_bar"]


class TestDeterminism:
    """Report bytes across two fresh interpreters, not only within one process."""

    def test_verify_reports_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ("verify", "ybe", "--Nprime", "3", "--seed", "42")
        run_python_m(*args, "-o", str(a))
        run_python_m(*args, "-o", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_seed_changes_draws(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run_python_m("verify", "ybe", "--Nprime", "3", "--seed", "1", "-o", str(a))
        run_python_m("verify", "ybe", "--Nprime", "3", "--seed", "2", "-o", str(b))
        assert a.read_bytes() != b.read_bytes()


BOUNDARY_SCRIPT = """
import sys
sys.path[:0] = sys.argv[1:]
from output_digests import run_cli
from workloads import WORKLOADS
from uqsl2.cli import main

def run(argv):
    code, _, _ = run_cli(main, [*argv, "--seed", "1"])
    assert code == 0, (argv, code)

for name in ("cli-mix", "oracle-series", "dense-large"):
    for config in WORKLOADS[name]["configs"]:
        if config[0] != "sweep":
            run(config)
print("scipy" in sys.modules)
run(("sweep", "--Nprime", "3", "--lambda1-range", "0.5:0.5:1", "--alpha1-range", "0.3:0.3:1"))
print("scipy" in sys.modules)
"""


def test_scipy_is_loaded_by_the_solver_alone():
    """Every benchmark job but a sweep runs on numpy alone, in one fresh process;
    the sweep's intertwiner solver is what loads scipy."""
    root = Path(__file__).resolve().parents[1]
    res = subprocess.run([sys.executable, "-c", BOUNDARY_SCRIPT, str(root / "tools"),
                          str(root / "perfbench")], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout.split() == ["False", "True"]


def nan_r_verma_direct(rep1, rep2):
    """r_verma_direct with NaN in its first entry."""
    from uqsl2 import TensorOperator, r_verma_direct
    mat = r_verma_direct(rep1, rep2).mat.copy()
    mat[0, 0] = np.nan
    return TensorOperator((rep1.dim, rep2.dim), mat)


class TestNanResidual:
    """A NaN residual fails its record and the report exits 1: it never reads as 0."""

    @staticmethod
    def report(*argv):
        code, out, _ = run(*argv)
        return code, {r["check"]: r for r in json.loads(out)["records"]}

    @staticmethod
    def assert_nan_fails(code, records, check):
        assert math.isnan(records[check]["residual"]) and not records[check]["pass"]
        assert code == 1

    def test_intertwine_with_nan_rmatrix(self, monkeypatch):
        import uqsl2.cli
        monkeypatch.setattr(uqsl2.cli, "r_verma_direct", nan_r_verma_direct)
        self.assert_nan_fails(*self.report("verify", "intertwine", "--Nprime", "3"),
                              "intertwine-finite")

    def test_schur_oracle_with_nan_forward_image(self, monkeypatch):
        import uqsl2.cli
        from uqsl2 import schur_forward

        def nan_forward(e_images, qp, n):
            out = schur_forward(e_images, qp, n)
            out[0, 0] = np.nan
            return out

        monkeypatch.setattr(uqsl2.cli, "schur_forward", nan_forward)
        code, records = self.report("verify", "schur-oracle", "--q", "1.13,0.03")
        self.assert_nan_fails(code, records, "schur-roundtrip-closed")

    def test_drinfeld_with_nan_generator(self, monkeypatch):
        import uqsl2.raffine
        build = uqsl2.raffine.drinfeld_generators

        def nan_generators(rep, x, n_max):
            g = build(rep, x, n_max)
            g[("a", 2)] = g[("a", 2)].copy()
            g[("a", 2)][0, 0] = np.nan
            return g

        monkeypatch.setattr(uqsl2.raffine, "drinfeld_generators", nan_generators)
        code, records = self.report("verify", "drinfeld", "--q", "1.13,0.03")
        self.assert_nan_fails(code, records, "drinfeld-aa")


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
                      "-1", "1e60", "1e200", "1e-300"])
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
    QFLAGS, optional("--depths", DEPTHS),
    optional("--seed", st.sampled_from(["0", "3", "-1", "x"])),
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


#: argv templates of the extreme-input grid, one finite magnitude in place of {x}
EXTREME_TEMPLATES = {
    "rmatrix-semicyclic": ("rmatrix", "--kind", "semicyclic", "--Nprime", "5",
                           "--lambda1", "0.5", "--lambda2", "0.7", "--alpha1", "{x}"),
    "rmatrix-semicyclic-z": ("rmatrix", "--kind", "semicyclic", "--Nprime", "5",
                             "--lambda1", "0.5", "--lambda2", "0.7", "--alpha1", "0.3",
                             "--z", "{x}"),
    "rmatrix-spectral": ("rmatrix", "--kind", "spectral", "--Nprime", "3", "--z", "{x}"),
    "rmatrix-spectral-q": ("rmatrix", "--kind", "spectral", "--q", "{x}"),
    "rmatrix-verma": ("rmatrix", "--kind", "verma", "--q", "{x}"),
    "rmatrix-reshetikhin": ("rmatrix", "--kind", "reshetikhin", "--Nprime", "3",
                            "--lambda1", "{x}"),
    **{f"sweep-{name}": ("sweep", "--Nprime", "3", *flags) for name, flags in (
        ("alpha", ("--lambda1-range", "0.5:0.5:1", "--alpha1-range", "{x}:{x}:1")),
        ("lambda", ("--lambda1-range", "{x}:{x}:1", "--alpha1-range", "0.5:0.5:1")),
        ("lambda2", ("--lambda1-range", "0.5:0.5:1", "--alpha1-range", "0.5:0.5:1",
                     "--lambda2", "{x}")),
        ("lambda-imag", ("--lambda1-range", "0.5:0.5:1", "--alpha1-range", "0.5:0.5:1",
                         "--lambda-imag", "{x}")),
        ("z", ("--lambda1-range", "0.5:0.5:1", "--alpha1-range", "0.5:0.5:1", "--z", "{x}")))},
    **{f"verify-{suite}": ("verify", suite, "--q", "{x}") for suite in (
        "ybe", "quasi", "product-oracle", "drinfeld", "schur-oracle", "intertwine")},
}
EXTREME_MAGNITUDES = ["1e300", "-1e300", "1e-300", "1e-150", "1e-100", "1e-50", "1e-20", "1e20",
                      "1e150", "1e200"]


def refusal_classes():
    """Every exception class defined in a module of the package, found by walking the
    module namespaces, so that a new class cannot be left out."""
    import uqsl2
    found = set()
    for info in pkgutil.iter_modules(uqsl2.__path__):
        module = importlib.import_module(f"uqsl2.{info.name}")
        found.update(obj for _, obj in inspect.getmembers(module, inspect.isclass)
                     if issubclass(obj, BaseException) and obj.__module__ == module.__name__)
    return sorted(found, key=lambda cls: cls.__name__)


class TestExitCodeContract:
    @pytest.mark.parametrize("x", EXTREME_MAGNITUDES)
    @pytest.mark.parametrize("name", sorted(EXTREME_TEMPLATES))
    def test_extreme_finite_input(self, name, x):
        # a finite input computes a result or is refused with one line; a numpy warning
        # on the way adds lines to stderr and fails the case
        argv = [a.replace("{x}", x) for a in EXTREME_TEMPLATES[name]]
        code, _, err = run(*argv)
        assert code in (0, 1, 2, 3), (argv, code)
        if code in (2, 3):
            assert err.count("\n") == 1 and json.loads(err)["code"] == code, (argv, err)
        else:
            assert err == "", (argv, err)

    @pytest.mark.parametrize("argv", [
        ("verify", "quasi", "--q", "1e-50"),
        ("verify", "quasi", "--q", "0.9954719225730846,0.09505604330418266",
         "--depths", "34,34,34"),
        ("verify", "ybe", "--Nprime", "3", "--seed", "-1"),
    ], ids=["coproduct-overflow", "q-factorial-vanishes", "negative-seed"])
    def test_refusal_off_the_old_list_exits_2(self, argv):
        # the coproduct of the Verma pair leaves float64 at q = 1e-50; at q = e^{2 pi i/66},
        # which passes the guard against roots of unity of order <= 64, a q-factorial of
        # the universal form vanishes at order 33; numpy's default_rng rejects a negative
        # seed: each ended in a traceback with exit 1
        refusal(*argv)

    @pytest.mark.parametrize("argv", [
        ("verify", "ybe", "--q", "1e-70"),
        ("verify", "ybe", "--q", "1e-80"),
        ("verify", "drinfeld", "--q", "1e-45"),
        ("verify", "schur-oracle", "--q", "1e-15"),
    ], ids=["ybe-1e-70", "ybe-1e-80", "drinfeld-1e-45", "schur-oracle-1e-15"])
    def test_overflow_between_grid_magnitudes_names_q(self, argv):
        # the R-matrix coefficients of r_verma_direct, the real root vectors and the
        # closed imaginary root images leave float64 here, magnitudes the grid above
        # steps over; each is refused where it is built, naming q, with no warning first
        assert f"q=({float(argv[-1])!r}+0j)" in refusal(*argv)["error"]

    def test_every_exception_class_is_a_refusal(self):
        from uqsl2.qnum import RefusedInput
        classes = refusal_classes()
        assert len(classes) >= 12  # the base and eleven refusal classes
        assert [c.__name__ for c in classes if not issubclass(c, RefusedInput)] == []

    @pytest.mark.parametrize("where", [{}, {"z": 0.5 - 2j}, {"weight_pair": (1, 2)},
                                       {"z": 3.0, "weight_pair": (0, 4)}],
                             ids=["bare", "z", "weight-pair", "both"])
    @pytest.mark.parametrize("cls", refusal_classes(), ids=lambda cls: cls.__name__)
    def test_main_maps_each_refusal_by_its_type(self, cls, where, monkeypatch):
        from uqsl2 import cli

        def suite(*args):
            exc = cls("refused")
            exc.z, exc.weight_pair = where.get("z"), where.get("weight_pair")
            raise exc

        monkeypatch.setitem(cli.SUITES, "ybe", suite)
        code, _, err = run("verify", "ybe", "--q", "1.1")
        assert code == cls.code == (3 if cls.__name__ == "PoleError" else 2)
        assert err.count("\n") == 1 and err.endswith("\n")
        expected = {"error": "refused", "code": code}
        if "z" in where:
            expected["z"] = [where["z"].real, where["z"].imag]
        if "weight_pair" in where:
            expected["weight_pair"] = list(where["weight_pair"])
        assert list(json.loads(err).items()) == list(expected.items())

    def test_a_defect_is_not_a_refusal(self, monkeypatch):
        # an error that is no refusal of input propagates out of main: exit 1 with a
        # traceback, never hidden as exit 2
        from uqsl2 import cli

        def suite(*args):
            raise RuntimeError("a defect")

        monkeypatch.setitem(cli.SUITES, "ybe", suite)
        with pytest.raises(RuntimeError, match="a defect"):
            run("verify", "ybe", "--q", "1.1")

    @given(CLI_ARGS)
    @example(["verify", "ybe", "--Nprime", "3", "--seed", "-1", "--draws", "1"])
    @settings(max_examples=60, deadline=None)
    def test_exit_codes_and_diagnostics(self, argv):
        code, _, err = run(*argv)
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
        code, _, err = run(*argv)
        assert code == 2
        assert "safe window" in json.loads(err)["error"]

    @pytest.mark.parametrize("argv", [
        ("rmatrix", "--kind", "semicyclic", "--Nprime", "3", "--z", "0.5,0.2"),
        ("sweep", "--Nprime", "3", "--lambda1-range", "1:1:1", "--alpha1-range", "0.2:0.2:1",
         "--lambda-imag", "0"),
    ], ids=["rmatrix", "sweep"])
    def test_degenerate_curve_exits_2(self, argv):
        # lambda = 1 at N' = 3 makes K^N = 1, where the curve has no denominator
        code, _, err = run(*argv)
        assert code == 2
        assert "degenerate curve" in json.loads(err)["error"]

    @pytest.mark.parametrize("nprime", [3, 5])
    @pytest.mark.parametrize("weights,module", [
        ((), 1), (("--lambda1", "0.8,0.05"), 2),
        # with --alpha2 given no partner is computed: the export's curve residual
        # meets the degenerate weight
        (("--lambda2", "0.7", "--alpha2", "0.3"), 1), (("--lambda1", "0.5", "--alpha2", "0.3"), 2),
    ], ids=["defaults", "default-lambda2", "alpha2-default-lambda1", "alpha2-default-lambda2"])
    def test_semicyclic_default_weight_names_module_and_flag(self, nprime, weights, module):
        # at odd N' the default weight 1 gives K^N = q^N' = 1 on its module
        msg = refusal("rmatrix", "--kind", "semicyclic", "--Nprime", str(nprime),
                      "--z", "1", *weights)["error"]
        assert f"module {module}" in msg and f"pass another --lambda{module}" in msg

    @pytest.mark.parametrize("argv", [
        ("verify", "product-oracle", "--q", "0.9,-0.2"),
        ("verify", "product-oracle", "--q", "1.3", "--seed", "3"),
        ("verify", "product-oracle", "--q", "-1.1"),
        ("verify", "product-oracle", "--q", "1.001,0"),
    ], ids=["pochhammer-base", "growth-ratio", "exponent-overflow", "scalar-factor-tail"])
    def test_diverging_oracle_exits_2(self, argv):
        # refused before any overflow, not after: no warning comes first
        assert "converge" in refusal(*argv)["error"]

    @pytest.mark.parametrize("q,seed", [("1.29", 7), ("1.25", 2), ("1.32", 10), ("1.25", 11)])
    def test_overflowing_oracle_exits_2(self, q, seed):
        # the factors q^{-nH} of a long ordered product, the loop images built from
        # them, or the diagonal exponent's terms overflow float64: refused by order,
        # with no numpy warning before the diagnostic
        refusal("verify", "product-oracle", "--q", q, "--seed", str(seed))

    @pytest.mark.parametrize("q", ["1.01,0", "1.02,0.01"])
    def test_product_oracle_near_one_takes_the_scalar_factor_tail(self, q, tmp_path):
        # f(z)'s (.; q^-4) products need about log(TAIL_TOL)/log|q^-4| factors (699
        # and 353 here); a fixed 90 left residuals of 4e-5 and 2e-6 (exit 1)
        out = tmp_path / "report.json"
        code, _, err = run("verify", "product-oracle", "--q", q, "--seed", "1",
                           "-o", str(out))
        assert code == 0, err
        assert json.loads(out.read_text())["all_pass"]

    def test_product_oracle_takes_the_exponent_tail(self, tmp_path):
        # the diagonal exponent's partial sum at a fixed 70 orders overflowed exp
        # (exit 2); at the products' tail order the series has converged
        out = tmp_path / "report.json"
        code, _, err = run("verify", "product-oracle", "--q", "1.27", "--seed", "8",
                           "-o", str(out))
        assert code == 0, err
        assert json.loads(out.read_text())["all_pass"]

    @pytest.mark.parametrize("z,argv", [
        ("1e200", ("rmatrix", "--kind", "spectral", "--Nprime", "3")),
        ("1e60", ("rmatrix", "--kind", "semicyclic", "--Nprime", "3", "--lambda1", "0.8,0.05",
                  "--lambda2", "1.3,-0.11", "--alpha1", "0.3")),
    ], ids=["spectral", "semicyclic"])
    def test_rmatrix_overflowing_spectral_parameter_exits_2(self, z, argv):
        self.assert_overflow_names_z([*argv, "--z", z], z)

    @pytest.mark.parametrize("nprime,z", [(3, "1e60"), (3, "1e100"), (3, "1e200"),
                                          (5, "1e-300")])
    def test_sweep_overflowing_spectral_parameter_exits_2(self, nprime, z):
        # 1e60 and 1e100 overflow R(z), 1e200 already |z^N - 1|, and 1e-300 the
        # solver's constraints through F1 = E / z
        self.assert_overflow_names_z(["sweep", "--Nprime", str(nprime), "--z", z,
                                      "--lambda1-range", "0.5:0.5:1",
                                      "--alpha1-range", "0.3:0.3:1"], z)

    @pytest.mark.parametrize("nprime,z", [(7, "1e-150"), (5, "1e-8")])
    def test_sweep_unresolvable_constraint_scale_exits_2(self, nprime, z):
        # F1 = E / z makes the Gram matrix span ~1/|z|^2, so the nullspace threshold
        # lies above the unit-scale K0 constraint; the solve used to report every
        # unknown of charge 0 (N'=7) or a spurious intertwiner (N'=5) as nullspace
        diag = refusal("sweep", "--Nprime", str(nprime), "--z", z,
                       "--lambda1-range", "0.5:0.5:1", "--alpha1-range", "0.3:0.3:1")
        assert complex(*diag["z"]) == float(z)
        assert "cannot resolve the K0 constraint" in diag["error"]

    def test_sweep_spurious_charge_zero_nullspace_exits_2(self):
        # at z = 3.2e-7 the charge-0 block, which K0 cannot bound, holds eigenvalues under
        # the threshold that are no zeros: the kept vector misses a unit-scale
        # constraint, so the solve is refused
        diag = refusal("sweep", "--Nprime", "5", "--z", "3.2e-7",
                       "--lambda1-range", "0.5:0.5:1", "--alpha1-range", "0.3:0.3:1")
        assert complex(*diag["z"]) == 3.2e-7
        assert "z=(3.2e-07+0j)" in diag["error"] and "kept vector" in diag["error"]

    @pytest.mark.parametrize("nprime,z,refusal", [
        (5, "1e-7", "K0 constraint"), (5, "5.6e-7", "kept vector"),
        (7, "5.6e-7", "K0 constraint"), (7, "1.8e-6", "kept vector")])
    def test_sweep_tiny_spectral_parameter_band_exits_2(self, nprime, z, refusal):
        # zeros count against the Gram bound U, 8 to 66 times the largest eigenvalue of
        # the searched blocks, so at these |z| eigenvalues that are no zeros fall under
        # the threshold; the K0 bound or the kept-vector check refuses each point
        code, _, err = run("sweep", "--Nprime", str(nprime), "--z", z,
                           "--lambda1-range", "0.5:0.5:1", "--alpha1-range", "0.3:0.3:1")
        assert code == 2
        diag = json.loads(err)
        assert complex(*diag["z"]) == float(z) and refusal in diag["error"]

    @pytest.mark.parametrize("argv", [
        ("rmatrix", "--kind", "verma", "--q", "1.2", "--lambda1", "1e5"),
        ("rmatrix", "--kind", "semicyclic", "--Nprime", "5", "--alpha1", "0.3",
         "--lambda1", "1e300", "--lambda2", "0.7", "--z", "1"),
        ("sweep", "--Nprime", "5", "--lambda1-range", "1e300:1e300:1",
         "--alpha1-range", "0.3:0.3:1"),
        ("verify", "ybe", "--q", "1e-300"),
        ("verify", "ybe", "--q", "1e300"),
        ("verify", "drinfeld", "--q", "1e-10"),
    ], ids=["verma", "semicyclic", "sweep", "ybe-small-q", "ybe-large-q", "drinfeld-small-q"])
    def test_overflowing_power_of_q_exits_2(self, argv):
        # a finite weight (or a q far from 1) can still put q**e beyond a float; at
        # q = 1e300 already the guard against roots of unity, q**k for k <= 64, does
        diag = refusal(*argv)
        assert "q**e overflows a float" in diag["error"]
        assert ", e=" in diag["error"]  # names the exponent

    def test_non_finite_export_exits_2_and_writes_nothing(self, tmp_path):
        # alpha1 = 1e300 overflows the projection through the quotient: the Boltzmann
        # weights would hold NaN, so the document is refused before any write
        out = tmp_path / "weights.json"
        diag = refusal("rmatrix", "--kind", "semicyclic", "--Nprime", "5", "--alpha1", "1e300",
                       "--lambda1", "0.5", "--lambda2", "0.7", "--z", "1", "-o", str(out))
        assert "non-finite" in diag["error"]
        assert not out.exists()

    @pytest.mark.parametrize("nprime,z", [(5, "1e7"), (5, "1e10"), (7, "1e8")])
    def test_sweep_large_spectral_parameter_keeps_its_count(self, nprime, z):
        # E1 = z F spans the Gram matrix too, but the cyclic F keeps every eigenvalue
        # on that scale, so no zero is spurious: the solve answers, with the count
        # the solver gave before the K0 certificate (nullspace_dim 0), and no warning
        code, out, err = run("sweep", "--Nprime", str(nprime), "--z", z,
                             "--lambda1-range", "0.5:0.5:1", "--alpha1-range", "0.3:0.3:1")
        assert (code, err) == (0, "")
        header, row = out.strip().split("\n")
        assert header.endswith(",nullspace_dim") and row.endswith(",0")

    @staticmethod
    def assert_overflow_names_z(argv, z):
        diag = refusal(*argv)  # no RuntimeWarning besides the diagnostic
        assert complex(*diag["z"]) == float(z)
        assert f"z=({float(z)!r}+0j)" in diag["error"]

    @pytest.mark.parametrize("alpha,refusal", [("1e150", "cannot resolve the K0 constraint"),
                                               ("1e200", "non-finite restricted R-matrix")])
    def test_sweep_huge_alpha_names_both_alphas(self, alpha, refusal):
        # the solver's refusal (1e150) and the fold's (1e200) name the module
        # parameters at fault next to z
        code, _, err = run("sweep", "--Nprime", "3", "--lambda1-range", "0.5:0.5:1",
                           "--alpha1-range", f"{alpha}:{alpha}:1")
        assert code == 2
        diag = json.loads(err)
        assert refusal in diag["error"] and "z=(1+0j)" in diag["error"]
        assert f"alpha1=({float(alpha):g}+0j), alpha2=(" in diag["error"]

    @pytest.mark.parametrize("argv,error,z", [
        (("--Nprime", "5", "--z", "1e-300", "--lambda1-range", "0.5:0.5:1",
          "--alpha1-range", "0.3:0.3:1"),
         "overflow in the intertwiner constraints at z=(1e-300+0j)", 1e-300),
        (("--Nprime", "3", "--lambda1-range", "0.5:0.5:1", "--alpha1-range", "1e150:1e150:1"),
         "the nullspace threshold cannot resolve the K0 constraint at z=(1+0j), "
         "alpha1=(1e+150+0j), alpha2=(1.054329108365598e+150-1.2379089866990063e+150j): an "
         "eigenvalue below 8.27e+287 lies in a charge block whose K0 minimum is positive", 1.0),
        (("--Nprime", "5", "--z", "1e-7", "--lambda1-range", "0.5:0.5:1",
          "--alpha1-range", "0.3:0.3:1"),
         "the nullspace threshold cannot resolve the K0 constraint at z=(1e-07+0j), "
         "alpha1=(0.3+0j), alpha2=(0.3162987325096794-0.3713726960097019j): an eigenvalue "
         "below 16.8 lies in a charge block whose K0 minimum is positive", 1e-7),
    ], ids=["z-1e-300", "alpha-1e150", "z-1e-7"])
    def test_solver_refusals_keep_their_exact_diagnostics(self, argv, error, z):
        # the solver's three refusals that the sweep reaches, word for word: a pair the
        # sector transfer declines gets the charge blocks' refusal, in the old order
        code, out, err = run("sweep", *argv)
        assert (code, out) == (2, "")
        assert err == json.dumps({"error": error, "code": 2, "z": [z, 0.0]}) + "\n"

    def test_sweep_at_zero_spectral_parameter_exits_2(self):
        code, _, err = run("sweep", "--Nprime", "3", "--lambda1-range", "0.5:0.5:1",
                           "--alpha1-range", "0.5:0.5:1", "--z", "0")
        assert code == 2 and json.loads(err)["code"] == 2

    def test_usage_error_writes_one_json_line(self):
        refusal("verify", "ybe", "--Nprime", "x")

    @pytest.mark.parametrize("argv,cause", [
        (("rmatrix", "--kind", "verma", "--q", "1.2", "--depths", "2,x"), "cannot parse depths"),
        (("rmatrix", "--kind", "verma", "--q", "1.2", "--depths", "0,2"), "depths must be >= 1"),
        (("rmatrix", "--kind", "verma", "--q", "1.2", "--depths", "2,2,2"),
         "expected 2 depths, got 3"),
        (("rmatrix", "--kind", "spectral", "--Nprime", "3", "--z", "roots:0"),
         "roots:N needs N >= 1"),
        (("rmatrix", "--kind", "semicyclic", "--q", "1.2"), "semicyclic modules need a root"),
        (("rmatrix", "--kind", "reshetikhin", "--q", "1.2"), "the product form needs a root"),
        (("verify", "central", "--q", "1.2"), "the centrality suite needs a root"),
        (("verify", "curve", "--q", "1.2"), "the curve suite needs a root"),
        (("verify", "product-oracle", "--Nprime", "3"), "oracle runs at generic q"),
        (("verify", "coincidence", "--q", "1.2"), "compares root-of-unity forms"),
        (("sweep", "--q", "1.2"), "curve sweeps need a root"),
        (("sweep", "--Nprime", "3", "--lambda1-range", "0:1:-1"), "grid size must be >= 0"),
    ], ids=["depths-parse", "depths-zero", "depths-count", "roots-zero", "semicyclic-generic",
            "reshetikhin-generic", "central-generic", "curve-generic", "product-oracle-root",
            "coincidence-generic", "sweep-generic", "grid-negative"])
    def test_refusal_names_its_cause(self, argv, cause):
        assert cause in refusal(*argv)["error"]

    def test_non_finite_export_document_is_refused_before_writing(self, monkeypatch, tmp_path):
        # the document of a non-semicyclic kind is checked as a whole when it is written
        import uqsl2.cli
        monkeypatch.setattr(uqsl2.cli, "r_verma_direct", nan_r_verma_direct)
        out = tmp_path / "r.json"
        diag = refusal("rmatrix", "--kind", "verma", "--q", "1.2", "-o", str(out))
        assert diag["error"] == "non-finite entries in the verma R-matrix"
        assert not out.exists()
