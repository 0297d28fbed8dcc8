"""Acceptance suite: one test per criterion, each printing a PASS line.

Every tolerance is pinned here; run with `pytest -s tests/test_acceptance.py`
to see the per-criterion lines.
"""

import cmath
import subprocess
import sys

import numpy as np

from uqsl2 import (CurveSpec, QParam, affine_intertwine_residual, central_check,
                   central_affine_check, curve_residual, cyclic, decompos_product,
                   drinfeld_relation_check, eval_imaginary_prime, f_scalar,
                   fn_commutation_residual, intertwine_residual, masked_max_abs,
                   noncentral_residual, on_curve_partner, qbinom, qnumber,
                   quasitriangularity_residual, r_reshetikhin_product, r_semicyclic,
                   r_spectral, r_verma_direct, rminus_closed, rminus_product,
                   rplus_closed, rplus_product, rzero_bar, rzero_exponential,
                   safe_mask, schur_forward, schur_to_imaginary, semicyclic,
                   solve_intertwiner, spectral_ybe_residual, truncated_verma,
                   ybe_residual)


def _rand_lambda(rng):
    return complex(rng.uniform(0.1, 2.0), rng.uniform(-0.5, 0.5))


def report(k, text):
    print(f"\n[acceptance] criterion {k}: PASS - {text}")


def qbinom_generic_product(s, n, qp):
    out = 1 + 0j
    for k in range(1, n + 1):
        out *= qnumber(s - n + k, qp) / qnumber(k, qp)
    return out


def test_01_qbinomial_root_limits():
    """Root-of-unity q-binomials match the radial perturbation oracle."""
    hs = (1e-3, 1e-4, 1e-5)
    worst = 0.0
    for nprime in (3, 4, 5, 6, 8):
        qp = QParam.root_of_unity(nprime)
        N = qp.N
        perturbed = [qp.perturbed(h) for h in hs]
        for s in range(0, 3 * N + 1):
            for n in range(0, s + 1):
                vals = [qbinom_generic_product(s, n, qh) for qh in perturbed]
                for lvl in range(1, 3):
                    for i in range(3 - lvl):
                        vals[i] = (hs[i + lvl] * vals[i] - hs[i] * vals[i + 1]) \
                            / (hs[i + lvl] - hs[i])
                ref = vals[0]
                err = abs(qbinom(s, n, qp) - ref) / max(1.0, abs(ref))
                worst = max(worst, err)
                assert err < 1e-6, (nprime, s, n)
    report(1, f"q-binomial limits on 0<=n<=s<=3N, N' in (3,4,5,6,8); worst rel {worst:.2e} < 1e-6")


def test_02_finite_r_coincidence():
    """Direct weightwise form equals the finite product form entrywise."""
    rng = np.random.default_rng(2)
    worst = 0.0
    for nprime in (3, 4, 5, 6):
        qp = QParam.root_of_unity(nprime)
        depth = 2 * qp.N
        for _ in range(10):
            r1 = truncated_verma(_rand_lambda(rng), depth, qp)
            r2 = truncated_verma(_rand_lambda(rng), depth, qp)
            mask = safe_mask((depth, depth), 1)
            diff = masked_max_abs(
                r_verma_direct(r1, r2).mat - r_reshetikhin_product(r1, r2).mat, mask)
            worst = max(worst, diff)
            assert diff < 1e-8, nprime
    report(2, f"direct vs product form, N' in (3,4,5,6), depths 2N, 10 draws each; worst {worst:.2e} < 1e-8")


def test_03_finite_intertwine_ybe_quasi():
    """Intertwining and Yang-Baxter at generic q and at roots; quasitriangularity."""
    rng = np.random.default_rng(3)
    qp = QParam.generic(1.17 + 0.06j)
    lams = [_rand_lambda(rng) for _ in range(3)]
    reps = [truncated_verma(l, 3, qp) for l in lams]
    r_int = intertwine_residual(r_verma_direct(reps[0], reps[1]), reps[0], reps[1])
    r_ybe = ybe_residual(*reps)
    r_q = quasitriangularity_residual(*reps)
    assert r_int < 1e-8 and r_ybe < 1e-8 and r_q < 1e-9
    worst_root = 0.0
    for nprime in (3, 5):
        qpr = QParam.root_of_unity(nprime)
        reps = [truncated_verma(_rand_lambda(rng), qpr.N, qpr) for _ in range(3)]
        worst_root = max(worst_root,
                         intertwine_residual(r_verma_direct(reps[0], reps[1]),
                                             reps[0], reps[1]),
                         ybe_residual(*reps))
    assert worst_root < 1e-7
    report(3, f"generic intertwine {r_int:.1e}, YBE {r_ybe:.1e}, quasi {r_q:.1e}; "
              f"root-of-unity worst {worst_root:.1e} < 1e-7")


def test_04_closed_vs_product_spectral_factors():
    """Closed spectral factors equal ordered-product forms at |z| <= 0.5, depth 4."""
    qp = QParam.generic(1.06 + 0.02j)
    rng = np.random.default_rng(4)
    lam1, lam2 = _rand_lambda(rng), _rand_lambda(rng)
    r1 = truncated_verma(lam1, 4, qp)
    r2 = truncated_verma(lam2, 4, qp)
    worst = 0.0
    mask = safe_mask((4, 4), 1)
    for z in (0.1, 0.32 + 0.21j, 0.5):
        a = float(np.max(np.abs(rplus_closed(z, r1, r2).mat - rplus_product(z, r1, r2).mat)))
        b = float(np.max(np.abs(rminus_closed(z, r1, r2).mat - rminus_product(z, r1, r2).mat)))
        f = f_scalar(z, lam1, lam2, qp, terms=140)
        c = masked_max_abs(np.diag(f * np.diag(rzero_bar(z, r1, r2).mat)
                                   - np.diag(rzero_exponential(z, r1, r2, n_max=160).mat)), mask)
        d = masked_max_abs(f * r_spectral(z, r1, r2, cartan="raw").mat
                           - decompos_product(z, r1, r2, n_imag=160).mat, mask)
        worst = max(worst, a, b, c, d)
        assert max(a, b, c, d) < 1e-6, z
    report(4, f"raising/lowering/diagonal/full factor identities, |z| <= 0.5; worst {worst:.2e} < 1e-6")


def test_05_renormalized_spectral_r_at_roots():
    """Normalization on the highest weight pair and spectral YBE at roots."""
    rng = np.random.default_rng(5)
    worst_norm = 0.0
    worst_ybe = 0.0
    for nprime in (3, 5):
        qp = QParam.root_of_unity(nprime)
        N = qp.N
        reps = [truncated_verma(_rand_lambda(rng), N, qp) for _ in range(3)]
        z = cmath.exp(1j * rng.uniform(0.2, 1.1))
        col = r_spectral(z, reps[0], reps[1]).mat[:, 0]
        col[0] -= 1.0
        worst_norm = max(worst_norm, float(np.max(np.abs(col))))
        xs = (1.0, cmath.exp(0.83j), cmath.exp(-0.41j))
        worst_ybe = max(worst_ybe, spectral_ybe_residual(*xs, *reps))
    assert worst_norm < 1e-12
    assert worst_ybe < 1e-7
    report(5, f"v0(x)v0 fixed to {worst_norm:.1e} < 1e-12; spectral YBE at roots {worst_ybe:.1e} < 1e-7")


def test_06_curve_biconditional():
    """On-curve <=> small intertwine residual, over seeded draws; exchange relations."""
    rng = np.random.default_rng(6)
    draws_per_order = 26  # 52 on/off draw pairs over the two orders
    worst_on = 0.0
    worst_fn = 0.0
    worst_curve = 0.0
    min_off_resid = np.inf
    min_off_curve = np.inf
    for nprime in (3, 5):
        qp = QParam.root_of_unity(nprime)
        N = qp.N
        for _ in range(draws_per_order):
            lam1, lam2 = _rand_lambda(rng), _rand_lambda(rng)
            a1 = complex(rng.uniform(0.2, 1.0), rng.uniform(-0.3, 0.3))
            a2 = on_curve_partner(a1, lam1, lam2, qp)
            z = cmath.exp(2j * cmath.pi * int(rng.integers(0, N)) / N)
            sc1, sc2 = semicyclic(a1, lam1, qp), semicyclic(a2, lam2, qp)
            spec = CurveSpec(z, lam1, lam2, a1, a2, N=N)
            r1, r2 = curve_residual(spec, qp)
            worst_curve = max(worst_curve, r1, r2)
            R = r_semicyclic(z, sc1, sc2)
            worst_on = max(worst_on, affine_intertwine_residual(z, sc1, sc2, R=R))
            fn = fn_commutation_residual(z, sc1, sc2, R)
            worst_fn = max(worst_fn, fn["ideal_exchange"], fn["spectral_exchange"])
            # off-curve twin
            a2_bad = a2 * 1.8 + 0.25
            spec_bad = CurveSpec(z, lam1, lam2, a1, a2_bad, N=N)
            rb, _ = curve_residual(spec_bad, qp)
            min_off_curve = min(min_off_curve, rb)
            scb = semicyclic(a2_bad, lam2, qp)
            Rb = r_semicyclic(z, sc1, scb)
            min_off_resid = min(min_off_resid,
                                affine_intertwine_residual(z, sc1, scb, R=Rb))
    assert worst_curve < 1e-8
    assert worst_on < 1e-6
    assert worst_fn < 1e-7
    assert min_off_curve > 1e-2
    assert min_off_resid > 1e-3
    report(6, f"52 draw pairs, N' in (3,5): on-curve intertwine <= {worst_on:.1e} < 1e-6, "
              f"exchange <= {worst_fn:.1e} < 1e-7; off-curve detection >= {min_off_resid:.1e} > 1e-3")


def test_07_centrality():
    """N-th powers and order-N loop images central on semicyclic modules."""
    rng = np.random.default_rng(7)
    worst = 0.0
    for nprime in (3, 5):
        qp = QParam.root_of_unity(nprime)
        rep = semicyclic(complex(rng.uniform(0.2, 0.8)), _rand_lambda(rng), qp)
        for name, row in central_check(rep).items():
            worst = max(worst, row["max_commutator"])
        for row in central_affine_check(rep):
            worst = max(worst, row["max_commutator"])
        neg = noncentral_residual(rep)
        assert neg > 1e-6
    assert worst < 1e-8
    report(7, f"central powers and order-N loop images; worst commutator {worst:.2e} < 1e-8, "
              f"negative control at order 1 detects")


def test_08_schur_roundtrip():
    """Partition-sum Schur map composed with the log inversion is the identity."""
    qp = QParam.generic(1.13 + 0.03j)
    rng = np.random.default_rng(8)
    rep = truncated_verma(_rand_lambda(rng), 5, qp)
    worst = 0.0
    for family in ("closed", "loop"):
        im = schur_to_imaginary(eval_imaginary_prime(rep, 0.8 + 0.3j, 4, family=family))
        for n in range(1, 5):
            fwd = schur_forward(im.e, qp, n)
            worst = max(worst, float(np.max(np.abs(fwd - im.eprime[n - 1]))))
    assert worst < 1e-10
    report(8, f"forward Schur sum after log inversion, n <= 4, both families; worst {worst:.2e} < 1e-10")


def test_09_drinfeld_relations():
    """Loop-algebra relation spot checks at zero central charge."""
    qp = QParam.generic(1.13 + 0.03j)
    rng = np.random.default_rng(9)
    rep = truncated_verma(_rand_lambda(rng), 4, qp)
    out = drinfeld_relation_check(rep, 0.8 + 0.3j, n_max=1)
    worst = max(out.values())
    assert worst < 1e-8, out
    rep6 = truncated_verma(_rand_lambda(rng), 6, qp)
    out6 = drinfeld_relation_check(rep6, 0.8 + 0.3j, n_max=2)
    worst = max(worst, max(out6.values()))
    assert worst < 1e-8, out6
    report(9, f"relations {sorted(out6)} at depths 4 and 6; worst {worst:.2e} < 1e-8")


def test_10_intertwiner_solver():
    """Nullspace solver agrees with the restriction; cyclic case recorded."""
    qp = QParam.root_of_unity(3)
    lam1, lam2 = 0.8 + 0.05j, 1.3 - 0.11j
    # nilpotent pair
    sc1, sc2 = semicyclic(0.0, lam1, qp), semicyclic(0.0, lam2, qp)
    R, dim = solve_intertwiner(sc1, sc2, 1.0)
    S = r_semicyclic(1.0, sc1, sc2).mat
    S = S / S.flat[np.argmax(np.abs(S))]
    assert dim == 1 and np.max(np.abs(R.mat - S)) < 1e-5
    # wrapping on-curve pair
    a1 = 0.7
    a2 = on_curve_partner(a1, lam1, lam2, qp)
    sc1, sc2 = semicyclic(a1, lam1, qp), semicyclic(a2, lam2, qp)
    R, dim = solve_intertwiner(sc1, sc2, 1.0)
    S = r_semicyclic(1.0, sc1, sc2).mat
    S = S / S.flat[np.argmax(np.abs(S))]
    assert dim == 1 and np.max(np.abs(R.mat - S)) < 1e-5
    # off-curve pair
    _, dim_off = solve_intertwiner(sc1, semicyclic(1.9, lam2, qp), 1.0)
    assert dim_off == 0
    # cyclic on-curve: empirical probe, recorded not asserted
    L1, L2 = qp.qpow(3 * lam1), qp.qpow(3 * lam2)
    b1 = 0.3
    b2 = b1 * (1 - 1 / L2) / (1 - 1 / L1)
    cy1 = cyclic(b1, a1, lam1, qp)
    cy2 = cyclic(b2, a2, lam2, qp)
    _, dim_cyc = solve_intertwiner(cy1, cy2, 1.0)
    verdict = "supports" if dim_cyc == 1 else "does not support"
    report(10, f"semicyclic solver dim 1 and matches restriction to 1e-5; off-curve dim 0; "
               f"cyclic on-curve probe: nullspace dim {dim_cyc} ({verdict} the sufficiency expectation; recorded)")


def test_11_cli_determinism(tmp_path):
    """Fixed seeds reproduce suite reports and sweeps byte for byte."""

    def run(*args):
        return subprocess.run([sys.executable, "-m", "uqsl2.cli", *args],
                              capture_output=True, text=True)

    pairs = []
    for name, args in (("verify", ("verify", "curve", "--Nprime", "3", "--draws", "2",
                                   "--seed", "13")),
                       ("sweep", ("sweep", "--Nprime", "3", "--lambda1-range",
                                  "0.5:1.5:2", "--alpha1-range", "0.3:0.9:2"))):
        a = tmp_path / f"{name}_a"
        b = tmp_path / f"{name}_b"
        ra = run(*args, "-o", str(a))
        rb = run(*args, "-o", str(b))
        assert ra.returncode == 0 and rb.returncode == 0
        assert a.read_bytes() == b.read_bytes()
        pairs.append(name)
    report(11, f"byte-identical outputs under fixed seed for {pairs}")
