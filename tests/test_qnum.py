import cmath

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from uqsl2 import (DenominatorVanishes, QParam, gauss_binom, qbinom, qbinom_table,
                   qbracket, qexp_truncated, qint, qnumber, qpochhammer_truncated,
                   unsym_qfact)


def qbinom_generic_product(s, n, qp):
    out = 1 + 0j
    for k in range(1, n + 1):
        out *= qnumber(s - n + k, qp) / qnumber(k, qp)
    return out


def neville_to_zero(hs, vs):
    vs = list(vs)
    for lvl in range(1, len(vs)):
        for i in range(len(vs) - lvl):
            vs[i] = (hs[i + lvl] * vs[i] - hs[i] * vs[i + 1]) / (hs[i + lvl] - hs[i])
    return vs[0]


def qbinom_limit_oracle(s, n, qp, hs=(1e-3, 1e-4, 1e-5)):
    """Radial-limit value of the symmetric q-binomial at a root of unity."""
    return neville_to_zero(hs, [qbinom_generic_product(s, n, qp.perturbed(h)) for h in hs])


class TestQParam:
    def test_root_of_unity_data(self):
        qp = QParam.root_of_unity(6)
        assert qp.N == 3
        assert abs(qp.q**6 - 1) < 1e-12
        assert all(abs(qp.q**k - 1) > 1e-6 for k in range(1, 6))
        assert QParam.root_of_unity(5).N == 5

    def test_generic_guard_rejects_near_roots(self):
        with pytest.raises(ValueError):
            QParam.generic(cmath.exp(2j * cmath.pi / 7))
        with pytest.raises(ValueError):
            QParam.generic(1.0)
        with pytest.raises(ValueError):
            QParam.generic(-1.0)
        QParam.generic(1.3)  # fine

    def test_low_orders_rejected(self):
        with pytest.raises(ValueError):
            QParam.root_of_unity(2)

    @pytest.mark.parametrize("q", [complex("nan"), complex(1.2, float("nan")),
                                   complex(float("inf"), 0.1)],
                             ids=["nan", "nan-imag", "inf"])
    def test_non_finite_generic_q_rejected(self, q):
        with pytest.raises(ValueError, match="finite"):
            QParam.generic(q)


class TestQIntegers:
    def test_qint_zero(self):
        assert qint(0, QParam.generic(1.4 + 0.2j)) == 0

    def test_qint_vanishes_at_multiples_of_N(self):
        qp = QParam.root_of_unity(5)
        assert abs(qint(qp.N, qp)) < 1e-12
        assert abs(qint(3 * qp.N, qp)) < 1e-12

    def test_qint_direct_value(self):
        assert abs(qint(2, QParam.generic(2.0)) - 2.5) < 1e-12

    @given(st.integers(min_value=-20, max_value=20))
    @settings(max_examples=40, deadline=None)
    def test_qint_antisymmetry(self, n):
        qp = QParam.generic(1.17 + 0.06j)
        assert abs(qint(-n, qp) + qint(n, qp)) < 1e-12

    def test_qbracket_values(self):
        qp = QParam.generic(2.0)
        assert abs(qbracket(1, qp) - 1) < 1e-14
        assert abs(qbracket(3, qp) - 7) < 1e-12

    def test_unsym_bracket_vanishes_at_root(self):
        qp = QParam.root_of_unity(5)
        # base q^-2 has order N, so (N)_{q^-2} = 0
        from uqsl2 import unsym_qnum
        assert abs(unsym_qnum(qp.N, qp.qpow(-2))) < 1e-12


class TestQBinomial:
    def test_choose_zero_is_one(self):
        for qp in (QParam.generic(1.3), QParam.root_of_unity(5)):
            assert qbinom(7, 0, qp) == 1

    def test_vanishing_interior_column_at_root(self):
        qp = QParam.root_of_unity(5)
        for n in range(1, qp.N):
            assert abs(qbinom(qp.N, n, qp)) < 1e-12

    def test_above_diagonal_is_zero(self):
        assert qbinom(2, 5, QParam.generic(1.3)) == 0

    def test_negative_index_raises(self):
        with pytest.raises(ValueError):
            qbinom(3, -1, QParam.generic(1.3))

    @pytest.mark.parametrize("nprime,expected_sign", [(3, 1), (5, 1), (6, -1), (8, -1)])
    def test_period_plus_one_choose_one(self, nprime, expected_sign):
        # [N+1 choose 1] = [N+1] -> q^{-N}, i.e. +-1 by the parity of N'
        qp = QParam.root_of_unity(nprime)
        val = qbinom(qp.N + 1, 1, qp)
        # two-point extrapolation at the pinned grid carries O(h1*h2) error
        ref = qbinom_limit_oracle(qp.N + 1, 1, qp, hs=(1e-3, 1e-4))
        assert abs(val - ref) < 1e-5
        assert abs(val - expected_sign) < 1e-9

    @pytest.mark.parametrize("nprime", [3, 4, 5, 6, 8])
    def test_limit_oracle_grid(self, nprime):
        qp = QParam.root_of_unity(nprime)
        N = qp.N
        for s in range(0, 2 * N + 1):
            for n in range(0, s + 1):
                mine = qbinom(s, n, qp)
                ref = qbinom_limit_oracle(s, n, qp)
                assert abs(mine - ref) <= 1e-6 * max(1.0, abs(ref)), (s, n)

    @given(st.integers(min_value=1, max_value=12), st.data())
    @settings(max_examples=60, deadline=None)
    def test_pascal_identity_generic(self, s, data):
        n = data.draw(st.integers(min_value=1, max_value=s))
        qp = QParam.generic(1.11 + 0.07j)
        q = qp.q
        lhs = qbinom(s, n, qp)
        rhs = q**n * qbinom(s - 1, n, qp) + q ** (n - s) * qbinom(s - 1, n - 1, qp)
        assert abs(lhs - rhs) < 1e-12 * max(1, abs(lhs))

    @pytest.mark.parametrize("qp", [QParam.generic(1.23 + 0.04j), QParam.root_of_unity(5),
                                    QParam.root_of_unity(6)])
    def test_symmetry(self, qp):
        for s in range(0, 9):
            for n in range(0, s + 1):
                assert abs(qbinom(s, n, qp) - qbinom(s, s - n, qp)) < 1e-10


class TestQBinomialTable:
    @pytest.mark.parametrize("d", [1, 2, 27])
    @pytest.mark.parametrize("qp", [QParam.generic(1.17 + 0.06j), QParam.generic(0.8 - 0.45j),
                                    QParam.generic(cmath.exp(0.41j))]
                             + [QParam.root_of_unity(n) for n in (3, 4, 5, 6, 9, 12)],
                             ids=lambda qp: f"N'={qp.nprime}" if qp.nprime else f"q={qp.q:.3g}")
    def test_matches_scalar_qbinom(self, qp, d):
        got = qbinom_table(d, qp)
        ref = np.array([[qbinom(s, n, qp) for n in range(d)] for s in range(d)])
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))
        assert np.array_equal(got == 0, ref == 0)


class TestQExponential:
    def test_zero_matrix_gives_identity(self):
        out = qexp_truncated(np.zeros((3, 3)), 0.7, 10)
        assert np.allclose(out, np.eye(3))

    def test_first_order_exact(self):
        X = np.array([[0, 2.3 + 0.4j], [0, 0]])
        out = qexp_truncated(X, 0.8 + 0.1j, 5)
        assert np.allclose(out, np.eye(2) + X)

    def test_matches_scalar_series(self):
        base = 0.8 + 0.1j
        zval = 0.37 + 0.21j
        direct = sum(zval**n / unsym_qfact(n, base) for n in range(25))
        out = qexp_truncated(np.array([[zval]]), base, 25)
        assert abs(out[0, 0] - direct) < 1e-12

    def test_vanishing_factorial_raises(self):
        qp = QParam.root_of_unity(5)
        with pytest.raises(DenominatorVanishes):
            qexp_truncated(np.eye(2), qp.qpow(-2), qp.N + 1)


class TestQPochhammer:
    def test_empty_product(self):
        assert qpochhammer_truncated(0.3, 0.5, 0) == 1

    def test_zero_argument(self):
        assert qpochhammer_truncated(0.0, 0.5, 7) == 1

    def test_matches_cumulative_loop(self):
        z, base, m = 1.0, 0.6 + 0.2j, 9
        ref = 1 + 0j
        arg = z
        for _ in range(m):
            ref *= 1 - arg
            arg *= base
        assert abs(qpochhammer_truncated(z, base, m) - ref) < 1e-13

    def test_gauss_binom_consistency(self):
        # Gaussian binomial at base q^2 against the symmetric one
        qp = QParam.generic(1.19 + 0.05j)
        for s in range(1, 7):
            for n in range(0, s + 1):
                sym = qbinom(s, n, qp)
                gauss = gauss_binom(s, n, qp.qpow(2))
                assert abs(gauss - qp.qpow(n * (s - n)) * sym) < 1e-10
