import cmath
import dataclasses

import numpy as np
import pytest
from scipy.linalg import block_diag

from uqsl2 import (PoleError, QParam, UnsupportedOrder, affine_intertwine_residual,
                   central_affine_check, decompos_product, drinfeld_relation_check,
                   eval_generators, eval_imaginary_prime, eval_root_vectors, f_scalar,
                   kron2, noncentral_residual, qbinom, qnumber, r_spectral, rminus_closed,
                   rminus_product, rplus_closed, rplus_product, rzero_bar,
                   rzero_bar_eigenvalue, rzero_exponential, schur_forward,
                   schur_to_imaginary, semicyclic, spectral_ybe_residual, safe_mask,
                   masked_max_abs, truncated_verma)

QP = QParam.generic(1.13 + 0.03j)
L1, L2, L3 = 0.63 + 0.17j, 1.21 - 0.09j, 0.44 + 0.21j


def pair(d=4, qp=QP):
    return truncated_verma(L1, d, qp), truncated_verma(L2, d, qp)


class TestEvaluationMap:
    def test_central_charge_zero(self):
        g = eval_generators(truncated_verma(L1, 4, QP), 0.7)
        assert np.max(np.abs(g["H0"] + g["H1"])) == 0

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
        assert im.commutativity_defect() < 1e-10

    def test_noncommuting_inputs_rejected(self):
        im = eval_imaginary_prime(self.rep, self.x, 2)
        im.eprime[1] = self.rep.E.copy()  # breaks commutativity
        with pytest.raises(ValueError):
            schur_to_imaginary(im)


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
                             - rplus_product(z, r1, r2, order="descending").mat)) > 1e-4
        assert np.max(np.abs(rminus_closed(z, r1, r2).mat
                             - rminus_product(z, r1, r2, order="ascending").mat)) > 1e-4

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


def scalar_rzero_bar(z, rep1, rep2, pole_tol=1e-12):
    """Rbar^0(z) one eigenvalue at a time: the former implementation, kept as a reference."""
    d1, d2 = rep1.dim, rep2.dim
    diag = np.empty(d1 * d2, dtype=complex)
    for i in range(d1):
        for j in range(d2):
            diag[i * d2 + j] = rzero_bar_eigenvalue(
                z, i, j, rep1.lam, rep2.lam, rep1.qp, pole_tol)
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
        assert affine_intertwine_residual(0.25, r1, r2, cartan="none") > 1e-3

    def test_depth_one_trivial(self):
        r1 = truncated_verma(L1, 1, QP)
        r2 = truncated_verma(L2, 1, QP)
        assert affine_intertwine_residual(0.3, r1, r2, margin=0) < 1e-13

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
        assert spectral_ybe_residual(1.0, 0.7, 0.3, *reps, margin=0) < 1e-13

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
        for row in central_affine_check(rep, 1.0, k_max=1):
            assert row["max_commutator"] < 1e-8
            assert row["scalar_deviation"] < 1e-8

    def test_wrapping_module(self):
        qp = QParam.root_of_unity(3)
        rep = semicyclic(0.6, 0.9 + 0.2j, qp)
        for row in central_affine_check(rep, 1.0, k_max=1):
            assert row["max_commutator"] < 1e-8

    def test_noncentral_below_N(self):
        qp = QParam.root_of_unity(3)
        rep = semicyclic(0.0, 1.0, qp)
        assert noncentral_residual(rep, 1.0, 1) > 1e-6

    def test_generic_not_central(self):
        rep = truncated_verma(L1, 4, QP)
        with pytest.raises(ValueError):
            central_affine_check(rep, 1.0)
        im = schur_to_imaginary(eval_imaginary_prime(rep, 1.0, 3))
        M = im.e[2]
        assert np.max(np.abs((M @ rep.F - rep.F @ M)[:3, :3])) > 1e-6


class TestDrinfeldRelations:
    def test_all_relations_at_generic_q(self):
        rep = truncated_verma(L1, 6, QP)
        out = drinfeld_relation_check(rep, 0.8 + 0.3j, n_max=2)
        for name, val in out.items():
            assert val < 1e-8, name

    def test_selection_subset(self):
        rep = truncated_verma(L1, 5, QP)
        out = drinfeld_relation_check(rep, 0.8 + 0.3j, selection=("kx",))
        assert set(out) == {"kx"}

    def test_cartan_exchange_reduces_to_defining_relation(self):
        # k x+_0 k^-1 = q^2 x+_0 is K^-1 F K = q^2 F
        rep = truncated_verma(L1, 4, QP)
        q = QP.q
        lhs = rep.Kinv @ rep.F @ rep.K
        assert np.max(np.abs(lhs - q**2 * rep.F)) < 1e-12
