import cmath
import dataclasses
import math

import numpy as np
import pytest
from scipy.linalg import block_diag

from uqsl2 import (EmptySafeWindow, PoleError, QParam, UnsupportedOrder,
                   affine_coproduct_images, affine_intertwine_residual, central_affine_check,
                   coproduct, opposite_coproduct, decompos_product, drinfeld_relation_check,
                   eval_generators, eval_imaginary_prime, eval_root_vectors, f_scalar,
                   kron2, noncentral_residual, qbinom, qnumber, r_spectral, rminus_closed,
                   rminus_product, rplus_closed, rplus_product, rzero_bar,
                   rzero_bar_eigenvalue, rzero_exponential, schur_forward,
                   schur_to_imaginary, semicyclic, spectral_ybe_residual, safe_mask,
                   masked_max_abs, renormalized_raising_power, truncated_verma)
from uqsl2 import raffine

from test_oracles import rminus_per_factor, rplus_per_factor

QP = QParam.generic(1.13 + 0.03j)
L1, L2, L3 = 0.63 + 0.17j, 1.21 - 0.09j, 0.44 + 0.21j


def commutativity_defect(im):
    """Largest commutator entry among the primed images of one family, NaN if any is NaN."""
    vals = [0.0]
    for fam in (im.eprime, im.fprime):
        for i in range(len(fam)):
            for j in range(i + 1, len(fam)):
                vals.append(np.max(np.abs(fam[i] @ fam[j] - fam[j] @ fam[i])))
    return float(np.max(vals))


def pair(d=4, qp=QP):
    return truncated_verma(L1, d, qp), truncated_verma(L2, d, qp)


class TestAffineCoproduct:
    @pytest.mark.parametrize("opposite", [False, True])
    def test_index_zero_is_the_finite_coproduct(self, opposite):
        r1, r2 = truncated_verma(L1, 3, QP), truncated_verma(L2, 4, QP)
        images = affine_coproduct_images(r1, r2, 0.7)[opposite]  # (left, right)
        delta = opposite_coproduct if opposite else coproduct
        for gen in ("E", "F", "K"):
            assert np.array_equal(images[gen + "0"], delta(r1, r2, gen).mat)

    @pytest.mark.parametrize("mod", ["verma", "semicyclic"])
    def test_pair_equals_the_coproduct_formulas(self, mod):
        # reference: each Chevalley triple (E_i, F_i, K_i), K_i^-1 = K_j, of V1(z) and
        # V2(1) through D(E) = E(x)1 + K^-1(x)E, D(F) = F(x)K + 1(x)F, D(K) = K(x)K and
        # D'(E) = 1(x)E + E(x)K^-1, D'(F) = F(x)1 + K(x)F, D'(K) = K(x)K by np.kron,
        # with complex identities as the images use (a float eye can round a signed
        # zero differently), compared byte for byte
        if mod == "verma":
            r1, r2 = truncated_verma(L1, 3, QP), truncated_verma(L2, 4, QP)
        else:
            qp = QParam.root_of_unity(5)
            r1, r2 = semicyclic(0.4, L1, qp), semicyclic(0.7 - 0.2j, L2, qp)
        z = 0.7 + 0.2j
        g1, g2 = eval_generators(r1, z), eval_generators(r2, 1.0)
        I1, I2 = (np.eye(r.dim, dtype=complex) for r in (r1, r2))
        ref = ({}, {})
        for i, j in (("0", "1"), ("1", "0")):
            (E1, F1, K1, Ki1), (E2, F2, K2, Ki2) = (
                (g["E" + i], g["F" + i], g["K" + i], g["K" + j]) for g in (g1, g2))
            ref[0].update({"E" + i: np.kron(E1, I2) + np.kron(Ki1, E2),
                           "F" + i: np.kron(F1, K2) + np.kron(I1, F2), "K" + i: np.kron(K1, K2)})
            ref[1].update({"E" + i: np.kron(I1, E2) + np.kron(E1, Ki2),
                           "F" + i: np.kron(F1, I2) + np.kron(K1, F2), "K" + i: np.kron(K1, K2)})
        for side, want in zip(affine_coproduct_images(r1, r2, z), ref):
            assert list(side) == list(want)
            for name, M in want.items():
                assert side[name].shape == M.shape and side[name].tobytes() == M.tobytes(), name

    def test_index_one_uses_the_inverse_cartan(self):
        # D(E_1) = E_1 (x) 1 + K (x) E_1 with E_1 = z F on V1(z), F on V2(1), and K_1^-1 = K
        r1, r2 = truncated_verma(L1, 3, QP), truncated_verma(L2, 4, QP)
        z = 0.7
        images, _ = affine_coproduct_images(r1, r2, z)
        ref = np.kron(z * r1.F, np.eye(4)) + np.kron(r1.K, r2.F)
        assert np.max(np.abs(images["E1"] - ref)) < 1e-14
        assert np.max(np.abs(images["K1"] - np.kron(r1.Kinv, r2.Kinv))) == 0


class TestEvaluationMap:
    def test_central_charge_zero(self):
        # K_0 K_1 = 1: the images of H_0 and H_1 sum to zero.  K_1 is the entrywise
        # reciprocal of the diagonal K_0, so each diagonal entry of the product is 1
        # up to the rounding of one complex reciprocal and one complex product
        g = eval_generators(truncated_verma(L1, 4, QP), 0.7)
        assert np.max(np.abs(g["K0"] @ g["K1"] - np.eye(4))) <= 8 * np.finfo(float).eps

    def test_unit_parameter(self):
        rep = truncated_verma(L1, 4, QP)
        g = eval_generators(rep, 1.0)
        assert np.array_equal(g["E1"], rep.F)

    def test_zero_parameter_rejected(self):
        with pytest.raises(ValueError):
            eval_generators(truncated_verma(L1, 3, QP), 0.0)

    def test_defining_relations_node_zero(self):
        rep = truncated_verma(L1, 5, QP)
        g = eval_generators(rep, 0.7)
        q = QP.q
        comm = g["E0"] @ g["F0"] - g["F0"] @ g["E0"]
        target = (g["K0"] - np.linalg.inv(g["K0"])) / (q - 1 / q)
        assert np.max(np.abs((comm - target)[:4, :4])) < 1e-9


class TestRootVectors:
    def test_base_cases(self):
        rep = truncated_verma(L1, 4, QP)
        x = 0.8 + 0.3j
        rv = eval_root_vectors(rep, x, 2)
        assert np.array_equal(rv["E0"][0], rep.E)
        assert np.max(np.abs(rv["E1"][0] - x * rep.F)) < 1e-14

    def test_x_scaling(self):
        rep = truncated_verma(L1, 4, QP)
        x, s = 0.8 + 0.3j, 1.7 - 0.4j
        a = eval_root_vectors(rep, x, 3)
        b = eval_root_vectors(rep, s * x, 3)
        for n in range(4):
            assert np.max(np.abs(b["E0"][n] - s**n * a["E0"][n])) < 1e-10

    @pytest.mark.parametrize("qp,lam,depth", [(QP, 0.7 + 0.1j, 5),
                                              (QParam.root_of_unity(3), 1.0, 2)])
    def test_antiinvolution_duality(self, qp, lam, depth):
        # F-type images are the transpose-conjugate images of the E-type ones
        # under q -> 1/q, x -> 1/x, through the ladder-normalizing diagonal
        x = 0.8 + 0.3j
        qpb = QParam.generic(1 / qp.q) if not qp.is_root else \
            QParam(1 / qp.q, qp.nprime)
        rep = truncated_verma(lam, depth, qp)
        repb = truncated_verma(lam, depth, qpb)
        dm = np.ones(depth, dtype=complex)
        for m in range(1, depth):
            dm[m] = dm[m - 1] / (qnumber(m, qp) * qnumber(lam - m + 1, qp))
        D = np.diag(dm)
        Dinv = np.linalg.inv(D)
        rv = eval_root_vectors(rep, x, 1)
        rvb = eval_root_vectors(repb, 1 / x, 1)
        for n in (0, 1):
            assert np.max(np.abs(rv["F0"][n] - D @ rvb["E0"][n].T @ Dinv)) < 1e-10
            assert np.max(np.abs(rv["F1"][n] - D @ rvb["E1"][n].T @ Dinv)) < 1e-10


class TestImaginaryRoots:
    def test_first_mode_formula(self):
        rep = truncated_verma(L1, 4, QP)
        x = 0.8 + 0.3j
        im = eval_imaginary_prime(rep, x, 1)
        W = rep.E @ rep.F - rep.F @ rep.E / QP.qpow(2)
        assert np.max(np.abs(im.eprime[0] - x / qnumber(2, QP) * W)) < 1e-12

    def test_families_agree_at_first_mode_only(self):
        rep = truncated_verma(L1, 5, QP)
        x = 0.8 + 0.3j
        a = eval_imaginary_prime(rep, x, 3, family="closed")
        b = eval_imaginary_prime(rep, x, 3, family="loop")
        assert np.max(np.abs(a.eprime[0] - b.eprime[0])) < 1e-12
        assert np.max(np.abs(a.eprime[1] - b.eprime[1])) > 1e-3

    def test_closed_family_weight_twisted_recursion(self):
        # the closed forms satisfy the bracket recursion with the weight-
        # twisted coefficient q^{2(n-2)}; the fixed q^-2 bracket holds at
        # n = 1 only (recorded here)
        rep = truncated_verma(L1, 5, QP)
        x = 0.8 + 0.3j
        rv = eval_root_vectors(rep, x, 4)
        im = eval_imaginary_prime(rep, x, 3)
        E1 = x * rep.F
        two = qnumber(2, QP)
        sub = np.ix_(range(4), range(4))
        for n in (1, 2, 3):
            A = rv["E0"][n - 1]
            twisted = (A @ E1 - QP.qpow(2 * (n - 2)) * E1 @ A) / two
            assert np.max(np.abs((im.eprime[n - 1] - twisted)[sub])) < 1e-10
        A = rv["E0"][1]
        printed = (A @ E1 - QP.qpow(-2) * E1 @ A) / two
        assert np.max(np.abs((im.eprime[1] - printed)[sub])) > 1e-3

    def test_x_homogeneity(self):
        rep = truncated_verma(L1, 4, QP)
        a = eval_imaginary_prime(rep, 0.8, 3)
        b = eval_imaginary_prime(rep, 1.6, 3)
        for n in (1, 2, 3):
            assert np.max(np.abs(b.eprime[n - 1] - 2**n * a.eprime[n - 1])) < 1e-10

    def test_commutativity_defect_keeps_nan(self):
        im = eval_imaginary_prime(truncated_verma(L1, 4, QP), 0.8, 3)
        assert commutativity_defect(im) < 1e-10
        im.eprime[1][0, 0] = np.nan
        assert np.isnan(commutativity_defect(im))

    def test_unsupported_order(self):
        qp4 = QParam.root_of_unity(4)
        rep = truncated_verma(1.0 + 0.2j, 2, qp4)
        with pytest.raises(UnsupportedOrder):
            eval_imaginary_prime(rep, 1.0, 2)


class TestSchur:
    def setup_method(self):
        self.rep = truncated_verma(L1, 5, QP)
        self.x = 0.8 + 0.3j

    def test_first_mode_identity(self):
        im = schur_to_imaginary(eval_imaginary_prime(self.rep, self.x, 3))
        assert np.max(np.abs(im.e[0] - im.eprime[0])) < 1e-12

    def test_second_mode_expansion(self):
        im = schur_to_imaginary(eval_imaginary_prime(self.rep, self.x, 3))
        c = QP.qpow(2) - QP.qpow(-2)
        pred = im.eprime[1] - c / 2 * (im.eprime[0] @ im.eprime[0])
        assert np.max(np.abs(im.e[1] - pred)) < 1e-12

    @pytest.mark.parametrize("family", ["closed", "loop"])
    def test_partition_sum_roundtrip(self, family):
        im = schur_to_imaginary(eval_imaginary_prime(self.rep, self.x, 4, family=family))
        for n in range(1, 5):
            fwd = schur_forward(im.e, QP, n)
            assert np.max(np.abs(fwd - im.eprime[n - 1])) < 1e-10

    def test_commutation_invariant(self):
        im = eval_imaginary_prime(self.rep, self.x, 4)
        assert commutativity_defect(im) < 1e-10

    def test_noncommuting_inputs_rejected(self):
        im = eval_imaginary_prime(self.rep, self.x, 2)
        im.eprime[1] = self.rep.E.copy()  # breaks commutativity
        with pytest.raises(ValueError):
            schur_to_imaginary(im)

    def test_non_finite_image_diverges_naming_its_order(self):
        stack = eval_imaginary_prime(self.rep, self.x, 3).eprime.copy()
        stack[1, 2, 2] = np.inf  # a diagonal entry: the image is still diagonal
        with pytest.raises(raffine.OracleDiverges, match="image of order 2 is not finite"):
            raffine._weight_diagonals(stack, raffine.DIAGONAL_TOL)


def _formal_log_series(coeffs: list, c: complex) -> list:
    """Given U(z) = sum_n u_n z^n (matrix coefficients, commuting), return the
    coefficients of log(1 + c*U)/c through the same order.

    Dense power-sum reference: sum_k (-1)^(k-1) c^(k-1)/k U^k with about M^3/6
    matrix products, kept here to check the diagonal recurrence against."""
    M = len(coeffs)
    if M == 0:
        return []
    d = coeffs[0].shape[0]
    prev = {n + 1: coeffs[n].copy() for n in range(M)}  # z^n coefficients of U^k
    out = [np.zeros((d, d), dtype=complex) for _ in range(M + 1)]
    k = 1
    while prev and k <= M:
        sign = (-1) ** (k - 1)
        for n, mat in prev.items():
            out[n] += sign * (c ** (k - 1) / k) * mat
        nxt = {}
        for n, mat in prev.items():
            for m in range(1, M - n + 1):
                acc = nxt.get(n + m)
                term = mat @ coeffs[m - 1]
                nxt[n + m] = term if acc is None else acc + term
        prev = nxt
        k += 1
    return out[1:]


class TestDiagonalLogSeries:
    MODULES = {"verma-generic": lambda: truncated_verma(L1, 4, QP),
               "semicyclic-5": lambda: semicyclic(0.4, 0.7 + 0.1j, QParam.root_of_unity(5))}

    @pytest.mark.parametrize("module", sorted(MODULES))
    @pytest.mark.parametrize("family", ["closed", "loop"])
    @pytest.mark.parametrize("M", [4, 30, 70])
    def test_matches_dense_reference(self, M, family, module):
        rep = self.MODULES[module]()
        d = rep.dim
        im = eval_imaginary_prime(rep, 0.8 + 0.3j, M, family=family)
        got = schur_to_imaginary(im)
        c = rep.qp.qpow(2) - rep.qp.qpow(-2)
        # E' and -F' as the two blocks of one dense series
        u = [block_diag(a, -b) for a, b in zip(im.eprime, im.fprime)]
        ref = _formal_log_series(u, c)
        # the moduli of every term the dense sum adds; it may lose up to
        # M eps times this to cancellation (every digit at N'=5, M=70, loop)
        terms = _formal_log_series([np.abs(m) for m in u], -abs(c))
        scale = max(np.abs(m).max() for m in ref)
        eps = np.finfo(float).eps
        for n in range(M):
            mine = block_diag(got.e[n], -got.f[n])
            bound = 1e-12 * scale + M * eps * terms[n].real
            assert np.all(np.abs(mine - ref[n]) <= bound), n
        assert got.e[0].shape == got.f[0].shape == (d, d)

    def test_input_left_unchanged(self):
        im = eval_imaginary_prime(truncated_verma(L1, 4, QP), 0.8 + 0.3j, 3)
        out = schur_to_imaginary(im)
        assert im.e == [] and im.f == []
        assert len(out.e) == len(out.f) == 3
        with pytest.raises(dataclasses.FrozenInstanceError):
            im.e = out.e

    def test_non_finite_image_rejected(self):
        im = eval_imaginary_prime(truncated_verma(L1, 4, QP), 0.8 + 0.3j, 3)
        im.fprime[2] = np.full((4, 4), np.nan)
        with pytest.raises(ValueError):
            schur_to_imaginary(im)


class TestClosedFactors:
    def test_raising_at_z_zero(self):
        from uqsl2 import r_generic_universal
        r1, r2 = pair()
        rp = rplus_closed(0.0, r1, r2)
        ru = r_generic_universal(r1, r2)
        # z = 0 removes the denominators: the plain q-exponential remains
        cart = np.array([QP.qpow(0.5 * h1 * h2) for h1 in r1.hvec for h2 in r2.hvec])
        assert np.max(np.abs(rp.mat - ru.mat / cart[None, :])) < 1e-10

    def test_lowering_at_z_zero_is_identity(self):
        r1, r2 = pair()
        assert np.max(np.abs(rminus_closed(0.0, r1, r2).mat - np.eye(16))) < 1e-14

    def test_product_oracle_raising(self):
        r1, r2 = pair()
        z = 0.25
        a = rplus_closed(z, r1, r2)
        b = rplus_product(z, r1, r2)
        assert np.max(np.abs(a.mat - b.mat)) < 1e-10

    def test_product_oracle_lowering(self):
        r1, r2 = pair()
        z = 0.25
        a = rminus_closed(z, r1, r2)
        b = rminus_product(z, r1, r2)
        assert np.max(np.abs(a.mat - b.mat)) < 1e-10

    def test_product_order_is_pinned(self):
        # reversing either family's order breaks the identity
        r1, r2 = pair()
        z = 0.25
        assert np.max(np.abs(rplus_closed(z, r1, r2).mat
                             - rplus_per_factor(z, r1, r2, "descending"))) > 1e-4
        assert np.max(np.abs(rminus_closed(z, r1, r2).mat
                             - rminus_per_factor(z, r1, r2, "ascending"))) > 1e-4

    def test_degree_grading(self):
        r1, r2 = pair(3)
        z = 0.2
        up = rplus_closed(z, r1, r2).mat
        dn = rminus_closed(z, r1, r2).mat
        for s in range(3):
            for sp in range(3):
                for t in range(3):
                    for tp in range(3):
                        u = up[t * 3 + tp, s * 3 + sp]
                        d = dn[t * 3 + tp, s * 3 + sp]
                        if abs(u) > 0:
                            assert t <= s and tp >= sp and s - t == tp - sp
                        if abs(d) > 0:
                            assert t >= s and tp <= sp and t - s == sp - tp

    def test_root_of_unity_entries_stay_finite(self):
        qp = QParam.root_of_unity(3)
        r1 = truncated_verma(0.77 + 0.21j, 4, qp)
        r2 = truncated_verma(1.55 - 0.12j, 4, qp)
        z = cmath.exp(0.37j)
        R = rplus_closed(z, r1, r2)
        assert np.all(np.isfinite(R.mat))
        qh = qp.perturbed(1e-5)
        rh1 = truncated_verma(0.77 + 0.21j, 4, qh)
        rh2 = truncated_verma(1.55 - 0.12j, 4, qh)
        Rh = rplus_closed(z, rh1, rh2)
        rel = np.max(np.abs(Rh.mat - R.mat)) / np.max(np.abs(R.mat))
        assert rel < 1e-3

    def test_pole_detection(self):
        qp = QParam.root_of_unity(3)
        r1 = truncated_verma(1.0, 3, qp)
        r2 = truncated_verma(1.0, 3, qp)
        with pytest.raises(PoleError):
            rplus_closed(1.0, r1, r2)


def scalar_raising_power(rep, n):
    """E^n / (n)_{q^-2}! entry by entry: the former implementation, kept as a reference."""
    qp = rep.qp
    d = rep.dim
    out = np.zeros((d, d), dtype=complex)
    if n == 0:
        return np.eye(d, dtype=complex)
    pref = qp.qpow(0.5 * n * (n - 1))
    for s in range(n, d):
        prod = 1.0 + 0j
        for r in range(1, n + 1):
            prod *= qnumber(rep.lam - s + r, qp)
        coeff = pref * qbinom(s, n, qp) * prod
        out[s - n, s] = coeff
    return out


def _kinv_k_vector(rep1, rep2):
    v1 = np.array([rep1.qp.qpow(-h) for h in rep1.hvec])
    v2 = np.array([rep2.qp.qpow(h) for h in rep2.hvec])
    return (v1[:, None] * v2[None, :]).reshape(-1)


def scalar_rplus_closed(z, rep1, rep2, pole_tol=1e-12):
    """R^+(z) with one scalar-built raising power per order: the former implementation."""
    qp = rep1.qp
    q = qp.q
    d1, d2 = rep1.dim, rep2.dim
    D = d1 * d2
    W = _kinv_k_vector(rep1, rep2)
    mat = np.eye(D, dtype=complex)
    den = np.ones(D, dtype=complex)
    Fn = np.eye(d2, dtype=complex)
    for n in range(1, d1):
        En = scalar_raising_power(rep1, n)
        if not En.any():
            break
        Fn = Fn @ rep2.F
        op = kron2(En, Fn)
        if not op.any():
            break
        den = den * (1 - z * qp.qpow(-2 * n) * W)
        support = np.abs(op).sum(axis=0) > 0
        bad = support & (np.abs(den) < pole_tol)
        if bad.any():
            i, j = divmod(int(np.argmax(bad)), d2)
            raise PoleError(
                f"raising-factor denominator vanished at weight pair ({i},{j}), z={z}",
                z=z, weight_pair=(i, j))
        mat += (q - 1 / q) ** n * op * (1 / np.where(support, den, 1.0))[None, :]
    return mat


def scalar_rminus_closed(z, rep1, rep2, pole_tol=1e-12):
    """R^-(z) with one scalar-built raising power per order: the former implementation."""
    qp = rep1.qp
    q = qp.q
    d1, d2 = rep1.dim, rep2.dim
    D = d1 * d2
    W = _kinv_k_vector(rep1, rep2)
    mat = np.eye(D, dtype=complex)
    den = np.ones(D, dtype=complex)
    Fn = np.eye(d1, dtype=complex)
    for n in range(1, d2):
        En = scalar_raising_power(rep2, n)
        if not En.any():
            break
        Fn = Fn @ rep1.F
        op = kron2(Fn, En)
        if not op.any():
            break
        den = den * (1 - z * qp.qpow(-2 * n) * W)
        support = np.abs(op).sum(axis=1) > 0
        bad = support & (np.abs(den) < pole_tol)
        if bad.any():
            i, j = divmod(int(np.argmax(bad)), d2)
            raise PoleError(
                f"lowering-factor denominator vanished at weight pair ({i},{j}), z={z}",
                z=z, weight_pair=(i, j))
        mat += z**n * (q - 1 / q) ** n * (1 / np.where(support, den, 1.0))[:, None] * op
    return mat


def scalar_rzero_bar(z, rep1, rep2):
    """Rbar^0(z) one eigenvalue at a time: the former implementation, kept as a reference."""
    d1, d2 = rep1.dim, rep2.dim
    diag = np.empty(d1 * d2, dtype=complex)
    for i in range(d1):
        for j in range(d2):
            diag[i * d2 + j] = rzero_bar_eigenvalue(
                z, i, j, rep1.lam, rep2.lam, rep1.qp)
    return np.diag(diag)


def assert_close_to_scale(got, ref, rel=1e-12):
    assert np.max(np.abs(got - ref)) <= rel * np.max(np.abs(ref))


def closed_factor_pairs():
    """(id, rep1, rep2, z): d1 != d2, generic q and roots of unity, Verma and semicyclic."""
    out = [("generic-5x3", truncated_verma(L1, 5, QP), truncated_verma(L2, 3, QP), 0.31 + 0.12j),
           ("generic-3x6", truncated_verma(L1, 3, QP), truncated_verma(L2, 6, QP), 0.8 - 0.4j)]
    for nprime in (3, 4, 5, 6, 9):
        qp = QParam.root_of_unity(nprime)
        N = qp.N
        z = cmath.exp(0.37j + 0.1 * nprime)
        out.append((f"{nprime}-verma", truncated_verma(L1, 2 * N + 1, qp),
                    truncated_verma(L2, N + 1, qp), z))
        out.append((f"{nprime}-semicyclic", semicyclic(0.5, L1, qp),
                    semicyclic(0.7 + 0.1j, L2, qp), z))
    return out


CLOSED_PAIRS = closed_factor_pairs()


class TestClosedFactorsAgainstScalar:
    @pytest.mark.parametrize("rid,rep1,rep2,z", CLOSED_PAIRS, ids=[c[0] for c in CLOSED_PAIRS])
    def test_raising_and_lowering(self, rid, rep1, rep2, z):
        for a, b in ((rep1, rep2), (rep2, rep1)):
            assert_close_to_scale(rplus_closed(z, a, b).mat, scalar_rplus_closed(z, a, b))
            assert_close_to_scale(rminus_closed(z, a, b).mat, scalar_rminus_closed(z, a, b))

    @pytest.mark.parametrize("rid,rep1,rep2,z", CLOSED_PAIRS, ids=[c[0] for c in CLOSED_PAIRS])
    def test_diagonal_factor_entry_by_entry(self, rid, rep1, rep2, z):
        for a, b in ((rep1, rep2), (rep2, rep1)):
            got = rzero_bar(z, a, b).mat
            assert not (got - np.diag(np.diagonal(got))).any()
            ref = np.diagonal(scalar_rzero_bar(z, a, b))
            for k, g in enumerate(np.diagonal(got)):
                assert abs(g - ref[k]) <= 1e-12 * max(1.0, abs(ref[k])), divmod(k, b.dim)

    @pytest.mark.parametrize("hit", ["first-ratio", "first-ratio-negative-l", "third-ratio"])
    def test_pole_reports_the_scalar_loops_weight_pair(self, hit):
        r1, r2 = truncated_verma(L1, 5, QP), truncated_verma(L2, 6, QP)
        M, P = L2 - L1, L2 + L1
        # z on a denominator factor: 1 - q^{M+2l} z (l = 2 or -1) or 1 - q^{-P+2l} z (l = 3)
        z = {"first-ratio": QP.qpow(-(M + 4)), "first-ratio-negative-l": QP.qpow(-(M - 2)),
             "third-ratio": QP.qpow(P - 6)}[hit]
        with pytest.raises(PoleError) as ref:
            scalar_rzero_bar(z, r1, r2)
        with pytest.raises(PoleError) as got:
            rzero_bar(z, r1, r2)
        assert got.value.weight_pair == ref.value.weight_pair
        assert str(got.value) == str(ref.value)
        assert got.value.z == z


class TestClosedFactorContraction:
    """R^+ and R^- as one contraction, against the per-term np.kron loops above."""

    @pytest.mark.parametrize("nprime", [3, 5])
    @pytest.mark.parametrize("verma_first", [True, False], ids=["verma-semicyclic",
                                                                 "semicyclic-verma"])
    def test_wrapping_semicyclic_factor(self, nprime, verma_first):
        # F^n of a semicyclic module wraps around (F^N = alpha), so every
        # order of the series has a nonzero term up to the Verma's depth
        qp = QParam.root_of_unity(nprime)
        v, s = truncated_verma(L1, 2 * qp.N + 1, qp), semicyclic(0.6 - 0.2j, L2, qp)
        a, b = (v, s) if verma_first else (s, v)
        z = cmath.exp(0.41j)
        assert_close_to_scale(rplus_closed(z, a, b).mat, scalar_rplus_closed(z, a, b))
        assert_close_to_scale(rminus_closed(z, a, b).mat, scalar_rminus_closed(z, a, b))

    def test_one_dimensional_factor_leaves_no_term(self):
        r1, r2 = truncated_verma(L1, 1, QP), truncated_verma(L2, 4, QP)
        for a, b in ((r1, r2), (r2, r1)):
            assert np.array_equal(rplus_closed(0.3, a, b).mat, np.eye(4))
            assert np.array_equal(rminus_closed(0.3, a, b).mat, np.eye(4))

    @pytest.mark.parametrize("factor", ["raising", "lowering"])
    def test_vanishing_denominator_where_the_table_vanishes_is_no_pole(self, factor):
        # at weight 1 the ladder factor [1 - s + r] vanishes at s = 2, r = 1, so E and
        # E^2/(2)! send v_2 to zero; z on the order-1 denominator at the pair E^1 would
        # reach from v_2 (source (2, 0) of R^+, target (1, 1) of R^-) is off every term
        raising = factor == "raising"
        r1 = truncated_verma(1.0 if raising else L1, 3, QP)
        r2 = truncated_verma(L2 if raising else 1.0, 3, QP)
        i, j = (2, 0) if raising else (1, 1)
        z = QP.qpow(2) / (QP.qpow(-r1.hvec[i]) * QP.qpow(r2.hvec[j]))
        build, ref = ((rplus_closed, scalar_rplus_closed) if raising
                      else (rminus_closed, scalar_rminus_closed))
        assert_close_to_scale(build(z, r1, r2).mat, ref(z, r1, r2))

    @pytest.mark.parametrize("order", [1, 2])
    @pytest.mark.parametrize("factor", ["raising", "lowering"])
    def test_pole_reports_the_kron_loops_weight_pair(self, factor, order):
        r1, r2 = truncated_verma(L1, 5, QP), truncated_verma(L2, 4, QP)
        # z on the order-`order` denominator 1 - z q^-2n K^-1 (x) K at weight pair (2, 1)
        z = QP.qpow(2 * order) / (QP.qpow(-r1.hvec[2]) * QP.qpow(r2.hvec[1]))
        build, ref_build = ((rplus_closed, scalar_rplus_closed) if factor == "raising"
                            else (rminus_closed, scalar_rminus_closed))
        with pytest.raises(PoleError) as ref:
            ref_build(z, r1, r2)
        with pytest.raises(PoleError) as got:
            build(z, r1, r2)
        assert got.value.weight_pair == ref.value.weight_pair
        assert str(got.value) == str(ref.value)


def weighted_kron_sum(As, Bs, d1, d2, weights, at_target):
    """1 + sum_n (As[n] (x) Bs[n]) diag(weights[n]), the diagonal at the source or, with
    at_target, (on the left) at the target; all terms in one batched matmul, written into
    a (d1, d2, d1, d2) view of the result."""
    D = d1 * d2
    if not len(As):
        return np.eye(D, dtype=complex)
    left = np.stack(As, axis=-1).astype(complex, copy=False).transpose(1, 0, 2)[None]
    right = np.stack(Bs).astype(complex, copy=False).transpose(1, 0, 2)[:, None]
    # left is indexed [., k, i, n] and right [j, ., n, l]: the product is [j, k, i, l]
    w = np.reshape(weights, (len(As), d1, d2))
    if at_target:
        left = left * w.transpose(2, 1, 0)[:, None]  # w[n, i, j] at [j, ., i, n]
    else:
        right = right * w.transpose(1, 0, 2)[None]   # w[n, k, l] at [., k, n, l]
    out = np.empty((D, D), dtype=complex)
    np.matmul(left, right, out=out.reshape(d1, d2, d1, d2).transpose(1, 2, 0, 3))
    out.reshape(-1)[::D + 1] += 1
    return out


def contracted_closed_factor(z, rep1, rep2, lowering):
    """R^+(z) or R^-(z) as the weighted Kronecker contraction over the orders n: the former
    implementation, kept as the reference of the scattered one.  w_n is taken on the
    support of term n, and PoleError reports the first vanishing denominator."""
    qp = rep1.qp
    q = qp.q
    d2 = rep2.dim
    ladder, other = (rep2, rep1) if lowering else (rep1, rep2)
    which, axis = ("lowering-factor", 1) if lowering else ("raising-factor", 0)
    W = np.outer(rep1.qpow_h(-1), rep2.qpow_h(1)).reshape(-1)
    den = np.ones(rep1.dim * d2, dtype=complex)
    Fn = np.eye(other.dim, dtype=complex)
    left, right, weights = [], [], []
    for n in range(1, ladder.dim):
        En = renormalized_raising_power(ladder, n)
        if not En.any():
            break
        Fn = Fn @ other.F
        if not Fn.any():
            break
        A, B = (Fn, En) if lowering else (En, Fn)
        den = den * (1 - z * qp.qpow(-2 * n) * W)
        support = np.outer(A.any(axis=axis), B.any(axis=axis)).reshape(-1)
        bad = support & (np.abs(den) < raffine.POLE_TOL)
        if bad.any():
            i, j = divmod(int(np.argmax(bad)), d2)
            raise PoleError(f"{which} denominator vanished at weight pair ({i},{j}), z={z}",
                            z=z, weight_pair=(i, j))
        weights.append(1 / np.where(support, den, 1.0))
        left.append((z**n * (q - 1 / q) ** n if lowering else (q - 1 / q) ** n) * A)
        right.append(B)
    return weighted_kron_sum(left, right, rep1.dim, d2, weights, lowering)


#: float64's unit roundoff
UNIT_ROUNDOFF = 2.0**-53


class TestClosedFactorScatter:
    """R^+ and R^- scattered one term per entry, against the weighted Kronecker contraction.

    Both sides form each entry of order n from the same coefficient, raising-table
    entry and F-power entry, and a weight w_n = 1/den_n, den_n the product of n
    identically rounded factors.  Each side is the exact value times at most n + 3
    rounding factors (1 + delta): n - 1 products in the denominator, one quotient and
    three products, each with |delta| <= 4u (a complex product's bound is sqrt(5) u).
    So the two differ entrywise by at most 2 (n + 3) 4u relative to the entry, to
    first order; n < d, the ladder module's dimension, gives the growth factor
    8 (d + 2).  An entry the reference holds as an exact zero must be one here too.
    """

    @pytest.mark.parametrize("rid,rep1,rep2,z", CLOSED_PAIRS, ids=[c[0] for c in CLOSED_PAIRS])
    @pytest.mark.parametrize("factor", ["raising", "lowering"])
    def test_matches_the_weighted_contraction(self, rid, rep1, rep2, z, factor):
        lowering = factor == "lowering"
        build = rminus_closed if lowering else rplus_closed
        for a, b in ((rep1, rep2), (rep2, rep1)):
            got = build(z, a, b).mat
            ref = contracted_closed_factor(z, a, b, lowering)
            growth = 8 * ((b if lowering else a).dim + 2)
            assert np.all(np.abs(got - ref) <= growth * UNIT_ROUNDOFF * np.abs(ref))

    def test_spectral_product_of_held_factors_is_r_spectral(self):
        # the product-oracle suite multiplies the closed factors it already holds
        r1, r2 = truncated_verma(L1, 4, QP), truncated_verma(L2, 4, QP)
        z = 0.2
        held = (rplus_closed(z, r1, r2), rzero_bar(z, r1, r2), rminus_closed(z, r1, r2))
        for cartan in raffine.CARTAN_MODES:
            got = raffine._spectral_product(z, r1, r2, cartan, lambda: held).mat
            assert got.tobytes() == r_spectral(z, r1, r2, cartan=cartan).mat.tobytes()


class TestDiagonalFactor:
    def test_highest_weight_and_z_zero(self):
        r1, r2 = pair()
        assert rzero_bar_eigenvalue(0.37, 0, 0, L1, L2, QP) == 1
        assert np.max(np.abs(rzero_bar(0.0, r1, r2).mat - np.eye(16))) < 1e-14

    def test_exponential_form_oracle(self):
        r1, r2 = pair()
        z = 0.2
        f = f_scalar(z, L1, L2, QP, terms=90)
        lhs = f * np.diag(rzero_bar(z, r1, r2).mat)
        rhs = np.diag(rzero_exponential(z, r1, r2, n_max=70).mat)
        keep = np.zeros((4, 4), bool)
        keep[:3, :3] = True
        assert np.max(np.abs((lhs - rhs)[keep.reshape(-1)])) < 1e-10


class TestScalarFactor:
    def test_z_zero(self):
        assert abs(f_scalar(0.0, L1, L2, QP) - 1) < 1e-14

    def test_two_forms_agree(self):
        qp = QParam.generic(1.3)
        a = f_scalar(0.2, 1.0, 2.0, qp, terms=80, form="exponential")
        b = f_scalar(0.2, 1.0, 2.0, qp, terms=80, form="pochhammer")
        assert abs(a - b) < 1e-8

    def test_symmetric_in_weights(self):
        a = f_scalar(0.2, L1, L2, QP, terms=60)
        b = f_scalar(0.2, L2, L1, QP, terms=60)
        assert abs(a - b) < 1e-10

    def test_singular_towards_root(self):
        # the log of the scalar factor grows like 1/h along q = eps e^h
        # (weights away from integers, where the poles would cancel)
        qp = QParam.root_of_unity(3)
        logs = []
        for h, terms in ((1e-2, 8000), (1e-3, 8000), (1e-4, 60000)):
            qh = qp.perturbed(h)
            logs.append(abs(np.log(complex(f_scalar(0.4, 0.7, 1.3, qh, terms=terms)))))
        assert logs[0] < logs[1] < logs[2]
        assert logs[2] > 5 * logs[1] > 25 * logs[0]

    def test_rejected_at_root(self):
        with pytest.raises(ValueError):
            f_scalar(0.2, 1.0, 1.0, QParam.root_of_unity(3))

    def test_refuses_no_terms(self):
        with pytest.raises(ValueError, match="terms must be >= 1"):
            f_scalar(0.2, 1.0, 2.0, QParam.generic(1.1), terms=0)

    def test_exponential_form_refuses_a_divergent_sum(self):
        with pytest.raises(raffine.OracleDiverges, match="diverges here"):
            f_scalar(5.0, 1.0, 2.0, QParam.generic(1.1), terms=80, form="exponential")

    def test_product_form_refuses_a_base_outside_the_unit_disc(self):
        # |q| < 1 puts q^-4 outside the unit disc, where the (.; q^-4) products diverge
        with pytest.raises(raffine.OracleDiverges, match=r"needs \|q\^-4\| < 1"):
            f_scalar(0.2, 1.0, 2.0, QParam.generic(0.9), terms=10)

    @pytest.mark.parametrize("q", [1.05 + 0.02j, 1.2 + 0.05j])
    def test_default_order_is_the_products_tail(self, q):
        # the (.; q^-4) products' geometric tail, and never fewer than 90 factors
        qp = QParam.generic(q)
        tail = int(math.log(1e-12) / math.log(abs(q) ** -4)) + 5
        assert f_scalar(0.2, L1, L2, qp) == f_scalar(0.2, L1, L2, qp, terms=max(90, tail))

    def test_default_order_refuses_a_tail_over_the_cap(self):
        # |q^-4| = 0.996 needs about 6900 factors
        with pytest.raises(raffine.OracleDiverges, match="converge"):
            f_scalar(0.2, L1, L2, QParam.generic(1.001))


class TestSpectralR:
    def test_fixes_highest_weight_vector(self):
        r1, r2 = pair()
        R = r_spectral(0.3, r1, r2)
        col = R.mat[:, 0]
        assert abs(col[0] - 1) < 1e-12
        assert np.max(np.abs(col[1:])) < 1e-12

    def test_z_zero_reduces_to_raising_factor(self):
        r1, r2 = pair()
        R = r_spectral(0.0, r1, r2, cartan="none")
        assert np.max(np.abs(R.mat - rplus_closed(0.0, r1, r2).mat)) < 1e-12

    def test_full_product_identity(self):
        r1, r2 = pair()
        z = 0.2
        f = f_scalar(z, L1, L2, QP, terms=90)
        lhs = f * r_spectral(z, r1, r2, cartan="raw").mat
        rhs = decompos_product(z, r1, r2).mat
        assert masked_max_abs(lhs - rhs, safe_mask((4, 4), 1)) < 1e-9

    def test_intertwines_affine_coproducts(self):
        r1, r2 = pair()
        assert affine_intertwine_residual(0.25, r1, r2) < 1e-9

    def test_bare_product_fails_intertwining(self):
        # without the trailing Cartan weight factor the operator fixes the
        # highest weight vector but is not an intertwiner (recorded)
        r1, r2 = pair()
        bare = r_spectral(0.25, r1, r2, cartan="none")
        assert affine_intertwine_residual(0.25, r1, r2, R=bare) > 1e-3

    def test_depth_one_trivial(self):
        # one generator application leaves a depth-1 truncation: nothing to compare
        r1 = truncated_verma(L1, 1, QP)
        r2 = truncated_verma(L2, 1, QP)
        with pytest.raises(EmptySafeWindow):
            affine_intertwine_residual(0.3, r1, r2)

    @pytest.mark.parametrize("nprime", [3, 5])
    def test_intertwines_at_root(self, nprime):
        qp = QParam.root_of_unity(nprime)
        r1 = truncated_verma(0.77 + 0.21j, qp.N, qp)
        r2 = truncated_verma(1.55 - 0.12j, qp.N, qp)
        z = cmath.exp(0.83j)
        assert affine_intertwine_residual(z, r1, r2) < 1e-7

    def test_commutes_with_total_weight(self):
        from uqsl2 import coproduct
        r1, r2 = pair()
        R = r_spectral(0.3, r1, r2).mat
        KK = coproduct(r1, r2, "K").mat
        assert np.max(np.abs(R @ KK - KK @ R)) < 1e-12


class TestSpectralYangBaxter:
    def test_depth_one_trivial(self):
        reps = [truncated_verma(l, 1, QP) for l in (L1, L2, L3)]
        with pytest.raises(EmptySafeWindow):
            spectral_ybe_residual(1.0, 0.7, 0.3, *reps)

    def test_generic(self):
        qp = QParam.generic(1.2 + 0.1j)
        reps = [truncated_verma(l, 3, qp) for l in (L1, L2, L3)]
        assert spectral_ybe_residual(1.0, 0.7, 0.3, *reps) < 1e-8

    @pytest.mark.parametrize("nprime", [3, 5])
    def test_at_root_with_unimodular_ratios(self, nprime):
        qp = QParam.root_of_unity(nprime)
        reps = [truncated_verma(l, min(3, qp.N), qp) for l in (L1, L2, L3)]
        xs = (1.0, cmath.exp(0.83j), cmath.exp(-0.41j))
        assert spectral_ybe_residual(*xs, *reps) < 1e-7


class TestLoopCentrality:
    @pytest.mark.parametrize("nprime", [3, 5])
    def test_central_at_multiples_of_N(self, nprime):
        qp = QParam.root_of_unity(nprime)
        rep = semicyclic(0.0, 1.0, qp)
        for row in central_affine_check(rep):
            assert row["max_commutator"] < 1e-8
            assert row["scalar_deviation"] < 1e-8

    def test_wrapping_module(self):
        qp = QParam.root_of_unity(3)
        rep = semicyclic(0.6, 0.9 + 0.2j, qp)
        for row in central_affine_check(rep):
            assert row["max_commutator"] < 1e-8

    def test_noncentral_below_N(self):
        qp = QParam.root_of_unity(3)
        rep = semicyclic(0.0, 1.0, qp)
        assert noncentral_residual(rep) > 1e-6

    def test_depth_one_module_leaves_no_window(self):
        rep = truncated_verma(0.5, 1, QParam.root_of_unity(3))
        with pytest.raises(EmptySafeWindow):
            noncentral_residual(rep)
        with pytest.raises(EmptySafeWindow):
            central_affine_check(rep)

    def test_generic_not_central(self):
        rep = truncated_verma(L1, 4, QP)
        with pytest.raises(ValueError):
            central_affine_check(rep)
        im = schur_to_imaginary(eval_imaginary_prime(rep, 1.0, 3))
        M = im.e[2]
        assert np.max(np.abs((M @ rep.F - rep.F @ M)[:3, :3])) > 1e-6


class TestDrinfeldRelations:
    def test_all_relations_at_generic_q(self):
        rep = truncated_verma(L1, 6, QP)
        out = drinfeld_relation_check(rep, 0.8 + 0.3j, n_max=2)
        for name, val in out.items():
            assert val < 1e-8, name

    def test_every_relation_is_keyed_by_name(self):
        rep = truncated_verma(L1, 5, QP)
        out = drinfeld_relation_check(rep, 0.8 + 0.3j)
        assert list(out) == ["aa", "kx", "ax", "xx", "xpxm"]
        assert out["kx"] < 1e-8

    def test_cartan_exchange_reduces_to_defining_relation(self):
        # k x+_0 k^-1 = q^2 x+_0 is K^-1 F K = q^2 F
        rep = truncated_verma(L1, 4, QP)
        q = QP.q
        lhs = rep.Kinv @ rep.F @ rep.K
        assert np.max(np.abs(lhs - q**2 * rep.F)) < 1e-12


class TestArgumentGuards:
    """One row per option value the affine builders refuse, and the empty Schur input."""

    @pytest.mark.parametrize("call,match", [
        (lambda: eval_imaginary_prime(pair()[0], 0.8, 3, family="x"),
         "unknown imaginary family 'x'"),
        (lambda: f_scalar(0.2, L1, L2, QP, form="x"), "unknown form 'x'"),
        (lambda: r_spectral(0.3, *pair(3), cartan="x"), "unknown cartan mode 'x'"),
    ], ids=["family", "scalar-form", "cartan"])
    def test_refused(self, call, match):
        with pytest.raises(ValueError, match=match):
            call()

    def test_schur_conversion_of_no_orders_is_empty(self):
        images = schur_to_imaginary(eval_imaginary_prime(pair()[0], 0.8, 0))
        assert len(images.eprime) == len(images.fprime) == 0 and images.e == images.f == []
