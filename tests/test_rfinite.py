import cmath

import numpy as np
import pytest

from uqsl2 import (DenominatorVanishes, QParam, RFiniteOptions, apply_two_site,
                   cartan_weight_vector, coproduct, cyclic, e_derivation_matrix,
                   embed_two_site, intertwine_residual, kron2, masked_max_abs,
                   matrix_fractional_power, nilpotent_expm, qbinom, qexp_truncated, qnumber,
                   quasitriangularity_residual, r_generic_universal, r_reshetikhin_product,
                   r_verma_direct, renormalized_raising_power, safe_mask, semicyclic,
                   tensor_rep, truncated_verma, ybe_defect, ybe_residual)
from uqsl2.qnum import unsym_qfact
from uqsl2.rfinite import _kron_expm, _wrap_constant

QP = QParam.generic(1.17 + 0.06j)
LAMS = (0.43 + 0.11j, 1.27 - 0.23j, 0.9 + 0.05j)


def vermas(depths, qp=QP, lams=LAMS):
    return [truncated_verma(l, d, qp) for l, d in zip(lams, depths)]


class TestDirectForm:
    def test_highest_weight_eigenvalue(self):
        r1, r2 = vermas((3, 3))
        R = r_verma_direct(r1, r2)
        assert abs(R.mat[0, 0] - QP.qpow(0.5 * r1.lam * r2.lam)) < 1e-12
        col = R.mat[:, 0].copy()
        col[0] = 0
        assert np.max(np.abs(col)) < 1e-14

    def test_equals_universal_form(self):
        r1, r2 = vermas((4, 4))
        Rd = r_verma_direct(r1, r2)
        Ru = r_generic_universal(r1, r2)
        assert np.max(np.abs(Rd.mat - Ru.mat)) < 1e-10

    def test_triangularity(self):
        r1, r2 = vermas((4, 4))
        R = r_verma_direct(r1, r2).mat
        for s in range(4):
            for sp in range(4):
                for t in range(4):
                    for tp in range(4):
                        if R[t * 4 + tp, s * 4 + sp] != 0:
                            n = s - t
                            assert n >= 0 and tp == sp + n

    def test_weight_conservation(self):
        r1, r2 = vermas((4, 4))
        R = r_verma_direct(r1, r2).mat
        dK = coproduct(r1, r2, "K").mat
        assert np.max(np.abs(R @ dK - dK @ R)) < 1e-12

    def test_universal_form_refuses_roots(self):
        qp = QParam.root_of_unity(3)
        reps = vermas((3, 3), qp)
        with pytest.raises(ValueError):
            r_generic_universal(reps[0], reps[1])


class TestRenormalizedPowers:
    def test_plain_power_at_generic(self):
        rep = truncated_verma(0.77 + 0.21j, 5, QP)
        for n in (1, 2, 3):
            plain = np.linalg.matrix_power(rep.E, n) / unsym_qfact(n, QP.qpow(-2))
            assert np.max(np.abs(plain - renormalized_raising_power(rep, n))) < 1e-10

    def test_e_derivation_vanishes_below_N(self):
        qp = QParam.root_of_unity(3)
        rep = truncated_verma(0.77 + 0.21j, qp.N, qp)
        assert not e_derivation_matrix(rep).any()

    def test_e_derivation_value_and_oracle(self):
        qp = QParam.root_of_unity(3)
        N = qp.N
        lam = 0.77 + 0.21j
        rep = truncated_verma(lam, 2 * N + 1, qp)
        e = e_derivation_matrix(rep)
        # explicit top entry: e v_N = q^{N(N-1)/2} prod_{r=1}^N [lam-N+r] v_0
        pred = qp.qpow(N * (N - 1) / 2)
        for r in range(1, N + 1):
            pred *= qnumber(lam - N + r, qp)
        assert abs(e[0, N] - pred) < 1e-10
        assert np.max(np.abs(e[:, :N])) == 0

        def pert(h):
            qh = qp.perturbed(h)
            rh = truncated_verma(lam, 2 * N + 1, qh)
            return np.linalg.matrix_power(rh.E, N) / unsym_qfact(N, qh.qpow(-2))

        h1, h2 = 1e-4, 1e-5
        oracle = (h1 * pert(h2) - h2 * pert(h1)) / (h1 - h2)
        assert np.max(np.abs(oracle - e)) < 1e-5


class TestProductForm:
    @pytest.mark.parametrize("nprime", [3, 4, 5, 6])
    def test_coincides_with_direct_at_depth_N(self, nprime):
        qp = QParam.root_of_unity(nprime)
        r1, r2 = vermas((qp.N, qp.N), qp)
        Rd = r_verma_direct(r1, r2)
        Rp = r_reshetikhin_product(r1, r2)
        assert np.max(np.abs(Rd.mat - Rp.mat)) < 1e-10

    @pytest.mark.parametrize("nprime", [3, 4, 5, 6])
    def test_coincides_with_direct_beyond_wrap(self, nprime):
        # depth > N turns on the exponential factor in the renormalized
        # N-th power of E; the calibrated constant is (eps - 1/eps)^N
        qp = QParam.root_of_unity(nprime)
        depth = 2 * qp.N + 1
        r1, r2 = vermas((depth, depth), qp)
        Rd = r_verma_direct(r1, r2)
        Rp = r_reshetikhin_product(r1, r2)
        assert np.max(np.abs(Rd.mat - Rp.mat)) < 1e-8

    def test_shallow_truncation_has_trivial_exponential_factor(self):
        qp = QParam.root_of_unity(5)
        r1, r2 = vermas((3, 3), qp)  # depth < N: e (x) F^N = 0
        for wc in ("auto", "plus", "minus"):
            Rp = r_reshetikhin_product(r1, r2, wrap_constant=wc)
            assert np.max(np.abs(Rp.mat - r_verma_direct(r1, r2).mat)) < 1e-10

    def test_alternative_constants_fail_beyond_wrap(self):
        # the +-(1 - eps^-2)^-N branches do not reproduce the direct form;
        # frozen here as the calibration record
        qp = QParam.root_of_unity(3)
        depth = 2 * qp.N + 1
        r1, r2 = vermas((depth, depth), qp)
        Rd = r_verma_direct(r1, r2)
        for wc in ("plus", "minus"):
            Rp = r_reshetikhin_product(r1, r2, wrap_constant=wc)
            assert np.max(np.abs(Rd.mat - Rp.mat)) > 1e-2

    def test_literal_factor_normalization_differs(self):
        # the (1 - eps^m X)^{-m/N} factors belong to another convention and
        # do not match the direct form even below the wrap
        qp = QParam.root_of_unity(3)
        r1, r2 = vermas((qp.N, qp.N), qp)
        Rlit = r_reshetikhin_product(r1, r2, literal_factors=True)
        assert np.max(np.abs(Rlit.mat - r_verma_direct(r1, r2).mat)) > 1e-2

    def test_highest_weight_eigenvalue(self):
        qp = QParam.root_of_unity(5)
        r1, r2 = vermas((qp.N, qp.N), qp)
        R = r_reshetikhin_product(r1, r2)
        assert abs(R.mat[0, 0] - qp.qpow(0.5 * r1.lam * r2.lam)) < 1e-12

    def test_requires_root(self):
        r1, r2 = vermas((3, 3))
        with pytest.raises(ValueError):
            r_reshetikhin_product(r1, r2)


def dense_reshetikhin_product(rep1, rep2, wrap_constant="auto", literal_factors=False):
    """The product form as a product of dense fractional-power matrices.

    This was the implementation before the factors were multiplied as
    series in X = E (x) F; it is kept as an independent reference.
    """
    qp = rep1.qp
    N = qp.N
    eps = qp.q
    X = kron2(rep1.E, rep2.F)
    mat = np.eye(X.shape[0], dtype=complex)
    for r in range(N):
        if literal_factors:
            if r == 0:
                continue
            mat = mat @ matrix_fractional_power(qp.qpow(r), X, -r / N)
        else:
            a = qp.qpow(-2 * r - 1) * (eps - 1 / eps) ** 2
            mat = mat @ matrix_fractional_power(a, X, r / N)
    FN = np.linalg.matrix_power(rep2.F, N)
    if FN.any():
        e1 = e_derivation_matrix(rep1)
        if e1.any():
            C = _wrap_constant(qp, wrap_constant)
            mat = mat @ nilpotent_expm(C * kron2(e1, FN))
    return mat * cartan_weight_vector(rep1, rep2)[None, :]


def dense_generic_universal(rep1, rep2, terms=None):
    """exp_{q^-2}((q - q^-1) X) on the dense X = E (x) F: the former implementation."""
    qp = rep1.qp
    q = qp.q
    if terms is None:
        terms = min(rep1.dim, rep2.dim)
    mat = qexp_truncated((q - 1 / q) * kron2(rep1.E, rep2.F), qp.qpow(-2), terms)
    return mat * cartan_weight_vector(rep1, rep2)[None, :]


def assert_close_to_scale(got, ref, rel=1e-12):
    scale = np.max(np.abs(ref))
    assert np.max(np.abs(got - ref)) <= rel * scale


class TestSeriesFormsAgainstDense:
    @pytest.mark.parametrize("wrap", ["auto", "plus", "minus"])
    @pytest.mark.parametrize("literal", [False, True], ids=["calibrated", "literal"])
    @pytest.mark.parametrize("depth", ["N", "2N+1"])
    @pytest.mark.parametrize("nprime", [3, 4, 5, 6])
    def test_product_form(self, nprime, depth, literal, wrap):
        qp = QParam.root_of_unity(nprime)
        d = qp.N if depth == "N" else 2 * qp.N + 1
        r1, r2 = vermas((d, d), qp)
        got = r_reshetikhin_product(r1, r2, wrap_constant=wrap, literal_factors=literal)
        assert_close_to_scale(got.mat, dense_reshetikhin_product(r1, r2, wrap, literal))

    def test_product_form_refuses_non_nilpotent_argument(self):
        qp = QParam.root_of_unity(3)
        rep = cyclic(0.3, 0.7, LAMS[0], qp)  # E^N and F^N are nonzero scalars
        with pytest.raises(ValueError, match="nilpotent"):
            r_reshetikhin_product(rep, rep)

    @pytest.mark.parametrize("depths,terms", [((3, 3), None), ((4, 6), None),
                                              ((6, 4), None), ((5, 5), 2), ((3, 4), 20)])
    def test_universal_form(self, depths, terms):
        r1, r2 = vermas(depths)
        got = r_generic_universal(r1, r2, terms=terms)
        assert_close_to_scale(got.mat, dense_generic_universal(r1, r2, terms))

    @pytest.mark.parametrize("first", [True, False], ids=["(12)3", "1(23)"])
    def test_universal_form_on_tensor_factor(self, first):
        r1, r2, r3 = vermas((3, 4, 3))
        pair = (tensor_rep(r1, r2), r3) if first else (r1, tensor_rep(r2, r3))
        assert_close_to_scale(r_generic_universal(*pair).mat, dense_generic_universal(*pair))

    def test_vanishing_q_factorial_raises_while_powers_survive(self):
        qp = QParam.generic(cmath.exp(2j * cmath.pi / 66))  # (33)_{q^-2} = 0
        r1, r2 = vermas((34, 34), qp)
        with pytest.raises(DenominatorVanishes):
            r_generic_universal(r1, r2)
        # F^2 = 0 on a depth-2 factor ends the series long before order 33
        r2 = truncated_verma(LAMS[1], 2, qp)
        assert np.isfinite(r_generic_universal(r1, r2, terms=40).mat).all()


def scalar_cartan_weight_vector(rep1, rep2):
    """q^{h_i h_j / 2} entry by entry: the former implementation, kept as a reference."""
    qp = rep1.qp
    out = np.empty(rep1.dim * rep2.dim, dtype=complex)
    k = 0
    for hi in rep1.hvec:
        for hj in rep2.hvec:
            out[k] = qp.qpow(0.5 * hi * hj)
            k += 1
    return out


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


def scalar_verma_direct(rep1, rep2, include_cartan_factor=True):
    """The weightwise sum entry by entry: the former implementation, kept as a reference."""
    qp = rep1.qp
    q = qp.q
    d1, d2 = rep1.dim, rep2.dim
    mat = np.zeros((d1 * d2, d1 * d2), dtype=complex)
    for s in range(d1):
        for sp in range(d2):
            col = s * d2 + sp
            cart = qp.qpow(0.5 * rep1.hvec[s] * rep2.hvec[sp]) \
                if include_cartan_factor else 1.0
            prod = 1.0 + 0j
            for n in range(0, min(s, d2 - 1 - sp) + 1):
                if n > 0:
                    prod *= qnumber(rep1.lam - s + n, qp)
                coeff = (qp.qpow(0.5 * n * (n - 1)) * (q - 1 / q) ** n
                         * qbinom(s, n, qp) * prod)
                mat[(s - n) * d2 + (sp + n), col] += cart * coeff
    return mat


#: generic q and the root-of-unity orders the coefficient tables are checked at
QCASES = ["generic", 3, 4, 5, 6, 9]


def qparam_of(case):
    return QP if case == "generic" else QParam.root_of_unity(case)


class TestCoefficientTablesAgainstScalar:
    @pytest.mark.parametrize("cartan", [True, False], ids=["cartan", "no-cartan"])
    @pytest.mark.parametrize("shape", ["tall", "wide"])
    @pytest.mark.parametrize("case", QCASES)
    def test_direct_form(self, case, shape, cartan):
        qp = qparam_of(case)
        N = 3 if case == "generic" else qp.N
        depths = (2 * N + 1, N + 1) if shape == "tall" else (N, 2 * N)
        r1, r2 = vermas(depths, qp)
        got = r_verma_direct(r1, r2, RFiniteOptions(include_cartan_factor=cartan))
        assert_close_to_scale(got.mat, scalar_verma_direct(r1, r2, cartan))

    @pytest.mark.parametrize("case", [3, 4, 5, 6, 9])
    def test_direct_form_semicyclic_second_factor(self, case):
        qp = QParam.root_of_unity(case)
        r1 = truncated_verma(LAMS[0], 2 * qp.N + 1, qp)
        r2 = semicyclic(0.6 + 0.2j, LAMS[1], qp)
        assert_close_to_scale(r_verma_direct(r1, r2).mat, scalar_verma_direct(r1, r2))

    @pytest.mark.parametrize("case", QCASES)
    def test_raising_powers(self, case):
        qp = qparam_of(case)
        d = 7 if case == "generic" else 2 * qp.N + 1
        for rep in (truncated_verma(LAMS[2], d, qp),) + (
                (semicyclic(0.4, LAMS[0], qp),) if qp.is_root else ()):
            for n in range(rep.dim + 2):
                ref = scalar_raising_power(rep, n)
                got = renormalized_raising_power(rep, n)
                if ref.any():
                    assert_close_to_scale(got, ref)
                else:
                    assert not got.any()

    def test_raising_power_needs_a_ladder_module(self):
        rep = cyclic(0.3, 0.7, LAMS[0], QParam.root_of_unity(3))
        with pytest.raises(ValueError, match="ladder"):
            renormalized_raising_power(rep, 1)

    @pytest.mark.parametrize("case", QCASES)
    def test_cartan_weights_and_weight_powers(self, case):
        qp = qparam_of(case)
        r1, r2 = vermas((5, 3), qp)
        assert_close_to_scale(cartan_weight_vector(r1, r2), scalar_cartan_weight_vector(r1, r2))
        for a in (1, -1, 2.5, 0.3 - 0.2j):
            ref = np.array([qp.qpow(a * h) for h in r1.hvec])
            assert_close_to_scale(r1.qpow_h(a), ref)

    @pytest.mark.parametrize("case", [3, 4, 5, 6, 9])
    def test_wrap_exponential(self, case):
        qp = QParam.root_of_unity(case)
        N = qp.N
        r1, r2 = vermas((2 * N + 1, 2 * N + 1), qp)
        e1 = e_derivation_matrix(r1)
        FN = np.linalg.matrix_power(r2.F, N)
        C = _wrap_constant(qp, "auto")
        ref = nilpotent_expm(C * kron2(e1, FN))
        assert (ref != np.eye(len(ref))).any()  # the wrap term is switched on
        assert_close_to_scale(_kron_expm(C * e1, FN), ref)

    def test_wrap_exponential_refuses_non_nilpotent_argument(self):
        with pytest.raises(ValueError, match="nilpotent"):
            _kron_expm(np.eye(2), np.eye(3))


class TestTwoSiteApplication:
    DIMS = (2, 3, 4)
    POS = [(0, 1), (0, 2), (1, 2)]

    @pytest.mark.parametrize("pos", POS)
    def test_matches_embedding(self, pos):
        rng = np.random.default_rng(3)
        d = self.DIMS[pos[0]] * self.DIMS[pos[1]]
        M = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        X = rng.normal(size=(24, 5)) + 1j * rng.normal(size=(24, 5))
        ref = embed_two_site(M, self.DIMS, pos) @ X
        assert_close_to_scale(apply_two_site(M, X, self.DIMS, pos), ref)

    def test_unsupported_positions(self):
        with pytest.raises(ValueError):
            apply_two_site(np.eye(6), np.eye(24), self.DIMS, (1, 0))

    @pytest.mark.parametrize("masked", [True, False], ids=["safe-window", "all-columns"])
    def test_ybe_defect_matches_dense_products(self, masked):
        # random operators: the defect is far from zero, so the comparison
        # checks the evaluation order and the column selection
        rng = np.random.default_rng(5)
        d0, d1, d2 = self.DIMS
        ops = [rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
               for n in (d0 * d1, d0 * d2, d1 * d2)]
        mask = safe_mask(self.DIMS, 1) if masked else None
        R12, R13, R23 = (embed_two_site(M, self.DIMS, pos) for M, pos in zip(ops, self.POS))
        lhs, rhs = R12 @ R13 @ R23, R23 @ R13 @ R12
        ref = masked_max_abs(lhs - rhs, mask)
        scale = max(np.max(np.abs(lhs)), np.max(np.abs(rhs)))
        assert abs(ybe_defect(*ops, self.DIMS, mask) - ref) <= 1e-12 * scale


class TestIntertwining:
    def test_generic(self):
        r1, r2 = vermas((4, 4))
        R = r_verma_direct(r1, r2)
        assert intertwine_residual(R, r1, r2) < 1e-9

    def test_identity_is_not_an_intertwiner(self):
        from uqsl2.tensorop import TensorOperator
        r1, r2 = vermas((3, 3))
        I = TensorOperator((3, 3), np.eye(9, dtype=complex))
        assert intertwine_residual(I, r1, r2) > 1e-3

    @pytest.mark.parametrize("nprime", [3, 5])
    def test_at_root(self, nprime):
        qp = QParam.root_of_unity(nprime)
        r1, r2 = vermas((qp.N, qp.N), qp)
        R = r_verma_direct(r1, r2)
        assert intertwine_residual(R, r1, r2) < 1e-8


class TestYangBaxter:
    def test_one_dimensional_trivial(self):
        reps = vermas((1, 1, 1))
        assert ybe_residual(*reps, margin=0) < 1e-14

    def test_generic(self):
        assert ybe_residual(*vermas((3, 3, 3))) < 1e-9

    def test_at_root(self):
        qp = QParam.root_of_unity(5)
        assert ybe_residual(*vermas((5, 5, 5), qp)) < 1e-8


class TestQuasitriangularity:
    def test_one_dimensional_trivial(self):
        assert quasitriangularity_residual(*vermas((1, 1, 1)), margin=0) < 1e-14

    def test_generic(self):
        assert quasitriangularity_residual(*vermas((3, 3, 3))) < 1e-9

    def test_refused_at_roots(self):
        # the renormalized root-of-unity objects do not satisfy the identity;
        # the checker refuses rather than reporting a meaningless residual
        qp = QParam.root_of_unity(3)
        with pytest.raises(ValueError):
            quasitriangularity_residual(*vermas((3, 3, 3), qp))


class TestSafeWindow:
    def test_margin_bounds(self):
        with pytest.raises(ValueError):
            safe_mask((3, 3), 3)
        mask = safe_mask((3, 3), 1)
        assert mask.sum() == 3  # total degree <= 1 on a 3x3 grid
