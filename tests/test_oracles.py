"""The ordered-product and exponential oracles, built from stacks over the order n.

Each stacked form is checked bit for bit (np.array_equal) against the
per-order loop it replaced, kept here as the reference: one kron2 and one
q-exponential per factor, one pair of matmuls per imaginary root image,
one np.kron per term of the diagonal exponent, and one log series per
family of imaginary root images.
"""

import cmath
import math
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import expm

from uqsl2 import (InadmissibleParameters, QParam, decompos_product, eval_imaginary_prime,
                   eval_root_vectors, f_scalar, kron2, qexp_truncated, qnumber, r_spectral,
                   rminus_closed, rminus_product, rplus_closed, rplus_product, rzero_bar,
                   rzero_bar_eigenvalue, rzero_exponential, schur_to_imaginary, truncated_verma)
from uqsl2 import raffine, reps, rfinite

QP = QParam.generic(1.13 + 0.03j)
L1, L2 = 0.63 + 0.17j, 1.21 - 0.09j


# ---------------------------------------------------------------------------
# per-order references


def qexp_product_per_factor(z, rep1, rep2, order, factor, shift):
    """prod_n exp_{q^-2}((q-1/q) z^{n+shift} factor(n)): one factor at a time."""
    qp = rep1.qp
    q = qp.q
    n_max = raffine._auto_terms(z, rep1, rep2)
    terms = min(rep1.dim, rep2.dim)
    rng = range(n_max + 1) if order == "ascending" else range(n_max, -1, -1)
    mat = np.eye(rep1.dim * rep2.dim, dtype=complex)
    for n in rng:
        mat = mat @ qexp_truncated((q - 1 / q) * z ** (n + shift) * factor(n), qp.qpow(-2),
                                   terms)
    return mat


def rplus_per_factor(z, rep1, rep2, order="ascending"):
    def factor(n):
        return kron2(rep1.qpow_h(-n)[:, None] * rep1.E, rep2.F * rep2.qpow_h(n)[None, :])
    return qexp_product_per_factor(z, rep1, rep2, order, factor, 0)


def rminus_per_factor(z, rep1, rep2, order="descending"):
    def factor(n):
        return kron2(rep1.F * rep1.qpow_h(-n)[None, :], rep2.qpow_h(n)[:, None] * rep2.E)
    return qexp_product_per_factor(z, rep1, rep2, order, factor, 1)


def root_vectors_per_order(rep, x, n_max):
    out = {"E0": [], "F0": [], "E1": [], "F1": []}
    for n in range(n_max + 1):
        sgn = (-1) ** n
        dm = rep.qpow_h(-n)
        dp = rep.qpow_h(n)
        out["E0"].append(sgn * x**n * (dm[:, None] * rep.E))
        out["F0"].append(sgn * x ** (-n) * (rep.F * dp[None, :]))
        out["E1"].append(sgn * x ** (n + 1) * (rep.F * dm[None, :]))
        out["F1"].append(sgn * x ** (-n - 1) * (dp[:, None] * rep.E))
    return out


def imaginary_prime_per_order(rep, x, n_max, family):
    qp = rep.qp
    two = qnumber(2, qp)
    eprime, fprime = [], []
    if family == "closed":
        q2 = qp.qpow(2)
        W = rep.E @ rep.F - rep.F @ rep.E / q2
        Wf = rep.F @ rep.E - rep.E @ rep.F / q2
        for n in range(1, n_max + 1):
            sgn = (-1) ** (n - 1)
            eprime.append(sgn / two * x**n * (rep.qpow_h(-(n - 1))[:, None] * W))
            fprime.append(sgn / two * x ** (-n) * (rep.qpow_h(n - 1)[:, None] * Wf))
    else:
        rv = root_vectors_per_order(rep, x, n_max)
        E1 = x * rep.F
        F1 = rep.E / x
        for n in range(1, n_max + 1):
            A = rv["E0"][n - 1]
            B = rv["F0"][n - 1]
            eprime.append((A @ E1 - E1 @ A / qp.qpow(2)) / two)
            fprime.append((F1 @ B - qp.qpow(2) * B @ F1) / two)
    return eprime, fprime


def rzero_exponential_kron(z, rep1, rep2, n_max):
    """The exponent accumulated with one np.kron of diagonals per order n."""
    qp = rep1.qp
    im1 = schur_to_imaginary(eval_imaginary_prime(rep1, 1.0, n_max, family="loop"))
    im2 = schur_to_imaginary(eval_imaginary_prime(rep2, 1.0, n_max, family="loop"))
    C = (qp.qpow(2) - qp.qpow(-2)) ** 2
    acc = np.zeros(rep1.dim * rep2.dim, dtype=complex)
    for n in range(1, n_max + 1):
        coeff = C * n * z**n / (qp.qpow(2 * n) - qp.qpow(-2 * n))
        acc += coeff * np.kron(np.diagonal(im1.e[n - 1]), np.diagonal(im2.f[n - 1]))
    return expm(np.diag(acc))


def imaginary_diagonals_per_family(eprime, fprime, c):
    """One log series per family: E' as it is, F' mirrored (q -> q^-1 flips the sign)."""
    ue = raffine._weight_diagonals(eprime, raffine.DIAGONAL_TOL)
    uf = raffine._weight_diagonals(fprime, raffine.DIAGONAL_TOL)
    return raffine._log_series_diagonal(ue, c), -raffine._log_series_diagonal(-uf, c)


PAIRS = {
    "4x4": lambda: (truncated_verma(L1, 4, QP), truncated_verma(L2, 4, QP)),
    "3x5": lambda: (truncated_verma(L1, 3, QP), truncated_verma(L2, 5, QP)),
    "6x2": lambda: (truncated_verma(0.4 - 0.3j, 6, QParam.generic(1.08 + 0.02j)),
                    truncated_verma(1.7 + 0.2j, 2, QParam.generic(1.08 + 0.02j))),
    "1x3": lambda: (truncated_verma(L1, 1, QP), truncated_verma(L2, 3, QP)),
}
ZS = [0.2, 0.15 - 0.1j, cmath.exp(0.7j) / 4]


# ---------------------------------------------------------------------------
# bit-identity with the per-order loops


class TestStackedAgainstPerOrder:
    @pytest.mark.parametrize("z", ZS)
    @pytest.mark.parametrize("pair", sorted(PAIRS))
    def test_ordered_products(self, pair, z):
        # each family in its own order: R^+ ascending, R^- descending
        r1, r2 = PAIRS[pair]()
        assert np.array_equal(rplus_product(z, r1, r2).mat, rplus_per_factor(z, r1, r2))
        assert np.array_equal(rminus_product(z, r1, r2).mat, rminus_per_factor(z, r1, r2))

    @pytest.mark.parametrize("x", [1.0, 0.8 + 0.3j])
    @pytest.mark.parametrize("pair", sorted(PAIRS))
    def test_root_vectors(self, pair, x):
        rep = PAIRS[pair]()[0]
        got, ref = eval_root_vectors(rep, x, 9), root_vectors_per_order(rep, x, 9)
        for key in ("E0", "F0", "E1", "F1"):
            assert got[key].shape == (10, rep.dim, rep.dim)
            assert np.array_equal(got[key], np.array(ref[key]))

    @pytest.mark.parametrize("family", ["closed", "loop"])
    @pytest.mark.parametrize("x", [1.0, 0.8 + 0.3j])
    @pytest.mark.parametrize("pair", sorted(PAIRS))
    def test_imaginary_primes(self, pair, x, family):
        for rep in PAIRS[pair]():
            im = eval_imaginary_prime(rep, x, 12, family=family)
            eprime, fprime = imaginary_prime_per_order(rep, x, 12, family)
            assert np.array_equal(im.eprime, np.array(eprime))
            assert np.array_equal(im.fprime, np.array(fprime))

    @pytest.mark.parametrize("n_max", [1, 30, 70])
    @pytest.mark.parametrize("z", ZS)
    @pytest.mark.parametrize("pair", sorted(PAIRS))
    def test_exponential_diagonal(self, pair, z, n_max):
        r1, r2 = PAIRS[pair]()
        with np.errstate(over="ignore"):
            ref = rzero_exponential_kron(z, r1, r2, n_max)
        if np.isfinite(ref).all():
            assert np.array_equal(rzero_exponential(z, r1, r2, n_max=n_max).mat, ref)
        else:  # the series diverges here (6x2 at |z| = 1/4, n_max = 70)
            with pytest.raises(raffine.OracleDiverges):
                rzero_exponential(z, r1, r2, n_max=n_max)

    @pytest.mark.parametrize("n_max", [0, 1, 30, 70])
    @pytest.mark.parametrize("x", [1.0, 0.8 + 0.3j])
    @pytest.mark.parametrize("pair", sorted(PAIRS))
    def test_one_log_series_for_both_families(self, pair, x, n_max):
        r1, r2 = PAIRS[pair]()
        c = r1.qp.qpow(2) - r1.qp.qpow(-2)
        im1, im2 = (eval_imaginary_prime(r, x, n_max, family="loop") for r in (r1, r2))
        # the exponential form's pairing, E' of V1 with F' of V2, and each
        # module's own pair, as schur_to_imaginary converts it
        for (ea, eprime), (fa, fprime) in (((r1, im1.eprime), (r2, im2.fprime)),
                                           ((r1, im1.eprime), (r1, im1.fprime)),
                                           ((r2, im2.eprime), (r2, im2.fprime))):
            got = raffine._imaginary_diagonals(eprime, fprime, c)
            ref = imaginary_diagonals_per_family(eprime, fprime, c)
            for g, r, rep in zip(got, ref, (ea, fa), strict=True):
                assert g.shape == r.shape == (n_max, rep.dim)
                assert np.isfinite(g).all() and np.array_equal(g, r)

    def test_exponential_of_no_terms_is_the_identity(self):
        r1, r2 = PAIRS["3x5"]()
        assert np.array_equal(rzero_exponential(0.2, r1, r2, n_max=0).mat, np.eye(15))

    def test_full_product_is_the_three_factors(self):
        r1, r2 = PAIRS["3x5"]()
        z = 0.2
        n_imag = max(raffine.EXPONENT_FLOOR, raffine._auto_terms(z, r1, r2))
        ref = (rplus_per_factor(z, r1, r2) @ rzero_exponential_kron(z, r1, r2, n_imag)
               @ rminus_per_factor(z, r1, r2))
        ref = ref * rfinite.cartan_weight_vector(r1, r2)[None, :]
        assert np.array_equal(decompos_product(z, r1, r2).mat, ref)


# ---------------------------------------------------------------------------
# chunks of the factor stacks


class TestChunks:
    def record_stacks(self, monkeypatch):
        sizes = []

        def recording(X, base, terms):
            sizes.append(len(X))
            return qexp_truncated(X, base, terms)

        monkeypatch.setattr(raffine, "qexp_truncated", recording)
        return sizes

    @pytest.mark.parametrize("chunk", [1, 4, 7, 8])
    def test_chunk_boundaries_in_both_orders(self, monkeypatch, chunk):
        r1, r2 = PAIRS["3x5"]()
        z = 0.15 - 0.1j
        n_factors = raffine._auto_terms(z, r1, r2) + 1
        D = r1.dim * r2.dim
        monkeypatch.setattr(raffine, "ORACLE_STACK_ENTRIES", chunk * D * D + D * D - 1)
        sizes = self.record_stacks(monkeypatch)
        if chunk > 1:
            assert n_factors % chunk, "the last chunk should be a partial one"
        # R^+ runs its chunks in ascending order of n, R^- in descending order
        for build, ref in ((rplus_product, rplus_per_factor),
                           (rminus_product, rminus_per_factor)):
            sizes.clear()
            assert np.array_equal(build(z, r1, r2).mat, ref(z, r1, r2))
            assert sizes == [chunk] * (n_factors // chunk) + [n_factors % chunk] * (
                n_factors % chunk > 0)

    def test_budget_below_one_factor_still_takes_one(self, monkeypatch):
        r1, r2 = PAIRS["4x4"]()
        monkeypatch.setattr(raffine, "ORACLE_STACK_ENTRIES", 1)
        sizes = self.record_stacks(monkeypatch)
        assert np.array_equal(rplus_product(0.2, r1, r2).mat, rplus_per_factor(0.2, r1, r2))
        assert set(sizes) == {1}

    def test_default_budget_takes_all_factors_of_a_small_pair(self, monkeypatch):
        r1, r2 = PAIRS["4x4"]()
        sizes = self.record_stacks(monkeypatch)
        rplus_product(0.2, r1, r2)
        assert sizes == [raffine._auto_terms(0.2, r1, r2) + 1]

    def test_peak_memory_at_depth_twelve(self):
        # 144 x 144 operators and 40-odd factors: all of them in one stack would
        # hold several stacks of 40 x 144^2 complex entries (about 14 MB each);
        # chunked, the stacks stay within the budget and the rest is a few D x D
        # matrices (the product so far, the exponential series' sum and powers)
        qp = QParam.generic(1.04 + 0.01j)
        r1, r2 = truncated_verma(L1, 12, qp), truncated_verma(L2, 12, qp)
        assert raffine._auto_terms(0.2, r1, r2) > 30
        D = r1.dim * r2.dim
        stack = 16 * max(raffine.ORACLE_STACK_ENTRIES, D * D)
        for build in (rplus_product, rminus_product):
            tracemalloc.start()
            try:
                build(0.2, r1, r2)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 4 * stack + 4 * 16 * D * D


# ---------------------------------------------------------------------------
# work done per call


class TestWork:
    def count(self, monkeypatch, *names):
        calls = dict.fromkeys(names, 0)
        for name in names:
            def counting(*args, _name=name, _fn=getattr(raffine, name), **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(raffine, name, counting)
        return calls

    @pytest.mark.parametrize("n_max", [None, 30])
    def test_exponential_form_takes_one_log_series_and_no_root_vector_set(self, monkeypatch,
                                                                          n_max):
        calls = self.count(monkeypatch, "_log_series_diagonal", "eval_root_vectors",
                           "eval_imaginary_prime")
        r1, r2 = PAIRS["3x5"]()
        rzero_exponential(0.2, r1, r2, n_max=n_max)
        assert calls == {"_log_series_diagonal": 1, "eval_root_vectors": 0,
                         "eval_imaginary_prime": 0}

    def test_exponential_form_builds_one_real_root_family_per_module(self, monkeypatch):
        built, root_family = [], raffine._root_family

        def recording(rep, x, n_max, key):
            built.append((rep.dim, n_max, key))
            return root_family(rep, x, n_max, key)

        monkeypatch.setattr(raffine, "_root_family", recording)
        r1, r2 = PAIRS["3x5"]()
        rzero_exponential(0.2, r1, r2, n_max=30)
        assert built == [(3, 29, "E0"), (5, 29, "F0")]  # E_{a0+nd} and F_{a0+nd}, n < 30

    def test_product_oracle_job_builds_the_exponential_form_once(self, monkeypatch, tmp_path):
        from uqsl2 import cli
        calls = self.count(monkeypatch, "_log_series_diagonal", "rzero_exponential")
        monkeypatch.setattr(cli, "rzero_exponential", raffine.rzero_exponential)  # the counter
        assert cli.main(["verify", "product-oracle", "--q", "1.1,0.02",
                         "-o", str(tmp_path / "report.json")]) == 0
        assert calls == {"_log_series_diagonal": 1, "rzero_exponential": 1}

    @pytest.mark.parametrize("family", ["closed", "loop"])
    def test_schur_conversion_takes_one_log_series(self, monkeypatch, family):
        im = eval_imaginary_prime(PAIRS["3x5"]()[1], 0.8 + 0.3j, 12, family=family)
        calls = self.count(monkeypatch, "_log_series_diagonal")
        out = schur_to_imaginary(im)
        assert calls == {"_log_series_diagonal": 1}
        assert len(out.e) == len(out.f) == 12

    @pytest.mark.parametrize("n_max", [None, 5])
    def test_exponential_form_refuses_where_two_q_vanishes(self, n_max):
        qp4 = QParam.root_of_unity(4)  # q = i: [2]_q = 0
        r1, r2 = truncated_verma(1.0 + 0.2j, 2, qp4), truncated_verma(0.3, 3, qp4)
        with pytest.raises(raffine.UnsupportedOrder):
            rzero_exponential(0.2, r1, r2, n_max=n_max)


# ---------------------------------------------------------------------------
# independence and input guards


class TestIndependence:
    def test_oracles_run_without_the_closed_forms(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("an oracle called the code it checks")

        # the closed factors read the raising table (reps._raising_table, cached as
        # Rep.raising_table); the finite forms read it through r_verma_direct
        for module, name in ((raffine, "_closed_factor"), (reps, "_raising_table"),
                             (rfinite, "r_verma_direct")):
            monkeypatch.setattr(module, name, refuse)
        monkeypatch.setattr(reps.Rep, "raising_table", property(refuse))
        r1, r2 = PAIRS["4x4"]()
        with pytest.raises(AssertionError):
            rplus_closed(0.2, r1, r2)
        for build in (rplus_product, rminus_product, rzero_exponential, decompos_product):
            assert np.isfinite(build(0.2, r1, r2).mat).all()


NON_FINITE = [math.nan, math.inf, complex(0.1, math.nan)]


class TestNonFiniteSpectralParameter:
    CALLS = {
        "rplus_product": lambda z, r1, r2: rplus_product(z, r1, r2),
        "rminus_product": lambda z, r1, r2: rminus_product(z, r1, r2),
        "rplus_closed": lambda z, r1, r2: rplus_closed(z, r1, r2),
        "rminus_closed": lambda z, r1, r2: rminus_closed(z, r1, r2),
        "rzero_bar": lambda z, r1, r2: rzero_bar(z, r1, r2),
        "rzero_bar_eigenvalue": lambda z, r1, r2: rzero_bar_eigenvalue(z, 1, 2, L1, L2, QP),
        "f_scalar": lambda z, r1, r2: f_scalar(z, L1, L2, QP),
        "f_scalar-exponential": lambda z, r1, r2: f_scalar(z, L1, L2, QP, form="exponential"),
        "rzero_exponential": lambda z, r1, r2: rzero_exponential(z, r1, r2),
        "rzero_exponential-n_max": lambda z, r1, r2: rzero_exponential(z, r1, r2, n_max=5),
        "decompos_product": lambda z, r1, r2: decompos_product(z, r1, r2),
        "r_spectral": lambda z, r1, r2: r_spectral(z, r1, r2),
    }

    @pytest.mark.parametrize("z", NON_FINITE, ids=["nan", "inf", "nan-imag"])
    @pytest.mark.parametrize("call", sorted(CALLS))
    def test_refused_where_it_enters(self, call, z):
        r1, r2 = PAIRS["4x4"]()
        with pytest.raises(ValueError, match="spectral parameter z must be finite") as exc:
            self.CALLS[call](z, r1, r2)
        assert type(exc.value) is InadmissibleParameters

    @pytest.mark.parametrize("z", NON_FINITE, ids=["nan", "inf", "nan-imag"])
    def test_truncation_rule_lets_no_nan_through(self, z):
        r1, r2 = PAIRS["4x4"]()
        with pytest.raises(raffine.OracleDiverges):
            raffine._auto_terms(z, r1, r2)


@pytest.mark.parametrize("r,floor,order", [(0.5, 0, 44), (0.2, 0, 22), (0.5, 10, 44),
                                           (0.2, 30, 30), (0.0, 0, 0), (0.0, 90, 90)])
def test_tail_terms(r, floor, order):
    # int(log(1e-12) / log(r)) is 39 and 17, plus five terms, unless the floor is
    # larger; r = 0 has no tail and takes the floor
    assert raffine._tail_terms(r, floor) == order


@pytest.mark.parametrize("r", [1.0, 1.5, math.nan, 0.99])
def test_tail_terms_refuses_a_tail_it_cannot_take(r):
    # no geometric tail at r >= 1 or NaN; at 0.99 the tail needs 2754 terms
    assert int(math.log(raffine.TAIL_TOL) / math.log(0.99)) + 5 == 2754 > raffine.MAX_PRODUCT_TERMS
    with pytest.raises(raffine.OracleDiverges, match="converge") as exc:
        raffine._tail_terms(r, 10)
    assert f"ratio {r:.3g}" in str(exc.value)
