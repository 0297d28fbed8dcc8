import cmath
import json
import warnings
from dataclasses import replace

import numpy as np
import pytest

from uqsl2 import (CurveSpec, PoleError, QParam, affine_coproduct_images,
                   affine_intertwine_residual, curve_residual, cyclic, export_boltzmann,
                   fn_commutation_residual, on_curve_partner,
                   r_semicyclic, r_spectral, semicyclic, solve_intertwiner,
                   truncated_verma)
from uqsl2.cpotts import NULLSPACE_RATIO, UnresolvedConstraints
from uqsl2.tensorop import (embed_two_site, grading_modulus, masked_max_abs, weight_sectors,
                            ybe_defect)

QP3 = QParam.root_of_unity(3)
QP5 = QParam.root_of_unity(5)
LAM1, LAM2 = 0.8 + 0.05j, 1.3 - 0.11j


def on_curve_pair(qp, a1=0.7, lam1=LAM1, lam2=LAM2):
    a2 = on_curve_partner(a1, lam1, lam2, qp)
    return semicyclic(a1, lam1, qp), semicyclic(a2, lam2, qp)


def on_curve_cyclic_pair(qp, a1=0.7, b1=0.3):
    """Cyclic pair on both the alpha and the beta curve."""
    L1 = qp.qpow(qp.N * LAM1)
    L2 = qp.qpow(qp.N * LAM2)
    a2 = a1 * (1 - L2) / (1 - L1)
    b2 = b1 * (1 - 1 / L2) / (1 - 1 / L1)
    return cyclic(b1, a1, LAM1, qp), cyclic(b2, a2, LAM2, qp)


class TestCurveResidual:
    def test_zero_alphas_unit_z(self):
        spec = CurveSpec(1.0, LAM1, LAM2, 0.0, 0.0, N=3)
        r1, r2 = curve_residual(spec, QP3)
        assert r1 == 0 and r2 == 0

    def test_equal_modules_any_root_of_unity_z(self):
        z = cmath.exp(2j * cmath.pi / 3)
        spec = CurveSpec(z, LAM1, LAM1, 0.5, 0.5, N=3)
        r1, r2 = curve_residual(spec, QP3)
        assert r1 < 1e-15 and r2 < 1e-12

    def test_off_curve_detected(self):
        spec = CurveSpec(1.0, LAM1, LAM2, 0.7, 0.7, N=3)
        r1, _ = curve_residual(spec, QP3)
        assert r1 > 1e-2

    def test_beta_line(self):
        b1 = 0.4
        L1 = QP3.qpow(3 * LAM1)
        L2 = QP3.qpow(3 * LAM2)
        b2 = b1 * (1 - 1 / L2) / (1 - 1 / L1)
        spec = CurveSpec(1.0, LAM1, LAM2, 0.7,
                         on_curve_partner(0.7, LAM1, LAM2, QP3), b1, b2, N=3)
        r1, r2, r3 = curve_residual(spec, QP3)
        assert r3 < 1e-15

    def test_degenerate_denominator(self):
        with pytest.raises(ValueError):
            curve_residual(CurveSpec(1.0, 0.0, LAM2, 0.4, 0.4, N=3), QP3)

    def test_raw_convention_exposed(self):
        spec = CurveSpec(1.0, LAM1, LAM2, 0.7, 0.7, N=3)
        r_central = curve_residual(spec, QP3)[0]
        r_raw = curve_residual(spec, QP3, convention="raw")[0]
        assert abs(r_central - r_raw) > 1e-3  # genuinely different conventions


class TestSemicyclicRestriction:
    def test_nilpotent_matches_spectral_on_quotient(self):
        sc1 = semicyclic(0.0, LAM1, QP3)
        sc2 = semicyclic(0.0, LAM2, QP3)
        z = cmath.exp(0.41j)
        R = r_semicyclic(z, sc1, sc2)
        v1 = truncated_verma(LAM1, 3, QP3)
        v2 = truncated_verma(LAM2, 3, QP3)
        S = r_spectral(z, v1, v2)
        assert np.max(np.abs(R.mat - S.mat)) < 1e-12

    @pytest.mark.parametrize("qp", [QP3, QP5])
    def test_on_curve_intertwines(self, qp):
        sc1, sc2 = on_curve_pair(qp)
        for z in (1.0, cmath.exp(2j * cmath.pi / qp.N)):
            R = r_semicyclic(z, sc1, sc2)
            assert affine_intertwine_residual(z, sc1, sc2, R=R) < 1e-7

    def test_refuses_modules_at_different_q(self):
        sc1, _ = on_curve_pair(QP3)
        with pytest.raises(ValueError, match="share the deformation parameter"):
            r_semicyclic(1.0, sc1, semicyclic(0.5, LAM2, QP5))

    @pytest.mark.parametrize("qp", [QP3, QP5])
    def test_off_curve_detected(self, qp):
        sc1, sc2 = on_curve_pair(qp)
        bad = semicyclic(sc2.params["alpha"] * 1.7 + 0.2, LAM2, qp)
        R = r_semicyclic(1.0, sc1, bad)
        assert affine_intertwine_residual(1.0, sc1, bad, R=R) > 1e-3
        # off the unimodularity line as well
        z = cmath.exp(0.5j)
        R = r_semicyclic(z, sc1, sc2)
        assert affine_intertwine_residual(z, sc1, sc2, R=R) > 1e-3

    def test_coincident_parameters_hit_poles(self):
        # lam1 = lam2 with z^N = 1 puts denominator zeros on the window;
        # reported rather than silently wrong
        sc1 = semicyclic(0.7, LAM1, QP3)
        sc2 = semicyclic(0.7, LAM1, QP3)
        with pytest.raises(PoleError):
            r_semicyclic(1.0, sc1, sc2)

    def test_requires_semicyclic_kind(self):
        with pytest.raises(ValueError):
            r_semicyclic(1.0, truncated_verma(LAM1, 3, QP3), semicyclic(0.1, LAM2, QP3))

    def test_ybe_on_curve_triple(self):
        # pairwise on-curve semicyclic triple at z = 1 ratios
        qp = QP3
        lam3 = 0.55 + 0.21j
        a1 = 0.7
        sc1 = semicyclic(a1, LAM1, qp)
        sc2 = semicyclic(on_curve_partner(a1, LAM1, LAM2, qp), LAM2, qp)
        sc3 = semicyclic(on_curve_partner(a1, LAM1, lam3, qp), lam3, qp)

        def builder(za, ra, rb):
            return r_semicyclic(za, ra, rb).mat

        from uqsl2 import embed_two_site
        dims = (3, 3, 3)
        R12 = embed_two_site(builder(1.0, sc1, sc2), dims, (0, 1))
        R13 = embed_two_site(builder(1.0, sc1, sc3), dims, (0, 2))
        R23 = embed_two_site(builder(1.0, sc2, sc3), dims, (1, 2))
        diff = R12 @ R13 @ R23 - R23 @ R13 @ R12
        assert np.max(np.abs(diff)) < 1e-6


def quotient_maps(alpha, N, depth):
    """The quotient map P (v_i -> alpha^(i // N) v_(i mod N)) of a depth-2N truncation
    onto the semicyclic module, and the embedding S of v_0..v_(N-1) into it."""
    P = np.zeros((N, depth), dtype=complex)
    for i in range(depth):
        P[i % N, i] = alpha ** (i // N)
    return P, np.eye(depth, N, dtype=complex)


class TestFoldAgainstDense:
    """r_semicyclic's quadrant fold against the dense conjugation
    kron2(P1, P2) @ R @ kron2(S1, S2) of the whole parent R."""

    U = 2.0 ** -53
    # Both sides evaluate, per entry, the four-term sum  sum_k c_k Q_k  with
    # c = (1, a2, a1, a1 a2) and Q_k the parent entries of rows (b1, i1, b2, i2),
    # in their own order, fused or not (BLAS for the dense side).  The real and the
    # imaginary part of that sum are each a real sum of at most 8 products, within
    # gamma_8 ~ 8u of the sum of the products' moduli (Higham, Accuracy and
    # Stability of Numerical Algorithms, section 3.1), which is at most
    # T = sum_k |c_k||Q_k| (|cr qr| + |ci qi| <= |c||q|): so within 8 sqrt(2) u T
    # as a complex number.  The coefficient a1 a2 is itself a rounded complex
    # product, within sqrt(5) u of it (Brent, Percival and Zimmermann, 2007), one
    # more sqrt(5) u T.  Two sums, each within (8 sqrt(2) + sqrt(5)) u T of the
    # exact one, are within twice that of each other.
    RATIO = 2 * (8 * np.sqrt(2) + np.sqrt(5))

    @pytest.mark.parametrize("nprime", range(3, 10))
    def test_matches_the_dense_conjugation(self, nprime):
        from uqsl2.tensorop import kron2
        qp = QParam.root_of_unity(nprime)
        N = qp.N
        a1 = 0.7 + 0.2j
        on = on_curve_partner(a1, LAM1, LAM2, qp)
        alphas = [(a1, on), (a1, 1.9 * on + 0.3 - 0.4j), (-1.3 + 0.5j, 0.4 - 1.1j)]
        zs = [1.0, cmath.exp(2j * cmath.pi / N), cmath.exp(0.41j), 0.8 * cmath.exp(1.3j)]
        for z in zs:
            R = r_spectral(z, truncated_verma(LAM1, 2 * N, qp), truncated_verma(LAM2, 2 * N, qp))
            Q = np.abs(R.mat.reshape(2, N, 2, N, 2 * N, 2 * N)[..., :N, :N])
            for b1, b2 in alphas:
                P1, S1 = quotient_maps(b1, N, 2 * N)
                P2, S2 = quotient_maps(b2, N, 2 * N)
                dense = kron2(P1, P2) @ R.mat @ kron2(S1, S2)
                got = r_semicyclic(z, semicyclic(b1, LAM1, qp), semicyclic(b2, LAM2, qp)).mat
                terms = (Q[0, :, 0] + abs(b2) * Q[0, :, 1] + abs(b1) * Q[1, :, 0]
                         + abs(b1 * b2) * Q[1, :, 1]).reshape(N * N, N * N)
                assert (np.abs(got - dense) <= self.RATIO * self.U * terms).all(), (z, b1, b2)


class TestExchangeRelations:
    def test_nilpotent_trivial(self):
        sc1 = semicyclic(0.0, LAM1, QP3)
        sc2 = semicyclic(0.0, LAM2, QP3)
        R = r_semicyclic(1.0, sc1, sc2)
        out = fn_commutation_residual(1.0, sc1, sc2, R)
        # F^N = 0 on both factors: every term vanishes identically
        assert out["ideal_exchange"] < 1e-12
        assert out["spectral_exchange"] < 1e-12

    def test_on_curve_small(self):
        sc1, sc2 = on_curve_pair(QP3)
        R = r_semicyclic(1.0, sc1, sc2)
        out = fn_commutation_residual(1.0, sc1, sc2, R)
        assert out["ideal_exchange"] < 1e-7
        assert out["spectral_exchange"] < 1e-7
        assert out["solvable"]

    def test_off_curve_large(self):
        sc1, _ = on_curve_pair(QP3)
        bad = semicyclic(1.9, LAM2, QP3)
        R = r_semicyclic(1.0, sc1, bad)
        out = fn_commutation_residual(1.0, sc1, bad, R)
        assert out["ideal_exchange"] > 1e-3

    def test_solvability_flag(self):
        # z^N = L1 L2 makes the mixed products inseparable; that locus also
        # sits on diagonal-factor poles, so probe the flag with a bare operator
        from uqsl2 import TensorOperator
        lam1 = 0.4 + 0.1j
        lam2 = 4 - lam1  # L1 L2 = 1 = z^N at z = 1
        sc1 = semicyclic(0.3, lam1, QP3)
        sc2 = semicyclic(0.3, lam2, QP3)
        I = TensorOperator((3, 3), np.eye(9, dtype=complex))
        assert not fn_commutation_residual(1.0, sc1, sc2, I)["solvable"]
        sc2b = semicyclic(0.3, LAM2, QP3)
        assert fn_commutation_residual(1.0, sc1, sc2b, I)["solvable"]


class TestIntertwinerSolver:
    def test_nilpotent_pair_matches_restriction(self):
        sc1 = semicyclic(0.0, LAM1, QP3)
        sc2 = semicyclic(0.0, LAM2, QP3)
        z = 1.0
        R, dim = solve_intertwiner(sc1, sc2, z)
        assert dim == 1
        S = r_semicyclic(z, sc1, sc2).mat
        S = S / S.flat[np.argmax(np.abs(S))]
        assert np.max(np.abs(R.mat - S)) < 1e-6

    def test_on_curve_semicyclic_pair(self):
        sc1, sc2 = on_curve_pair(QP3)
        R, dim = solve_intertwiner(sc1, sc2, 1.0)
        assert dim == 1
        S = r_semicyclic(1.0, sc1, sc2).mat
        S = S / S.flat[np.argmax(np.abs(S))]
        assert np.max(np.abs(R.mat - S)) < 1e-5

    def test_off_curve_empty(self):
        sc1, _ = on_curve_pair(QP3)
        bad = semicyclic(1.9, LAM2, QP3)
        R, dim = solve_intertwiner(sc1, bad, 1.0)
        assert dim == 0 and R is None

    @pytest.mark.parametrize("nprime", [3, 5, 7])
    def test_cyclic_on_curve_probe(self, nprime):
        # empirical probe of the sufficiency question for cyclic modules
        # (Bazhanov-Stroganov, J. Stat. Phys. 59, 1990): the result is
        # recorded, not asserted
        cy1, cy2 = on_curve_cyclic_pair(QParam.root_of_unity(nprime))
        _, dim = solve_intertwiner(cy1, cy2, 1.0)
        print(f"[probe] N'={nprime} cyclic on-curve intertwiner: nullspace dim {dim}")
        assert dim >= 0  # probe only: the outcome is recorded, not asserted

    def test_refuses_modules_at_different_q(self):
        sc1, _ = on_curve_pair(QP3)
        with pytest.raises(ValueError, match="share the deformation parameter"):
            solve_intertwiner(sc1, semicyclic(0.5, LAM2, QP5), 1.0)

    def test_off_curve_cyclic_empty(self):
        qp = QP3
        cy1 = cyclic(0.3, 0.7, LAM1, qp)
        cy2 = cyclic(0.45, 1.3, LAM2, qp)
        _, dim = solve_intertwiner(cy1, cy2, 1.0)
        assert dim == 0


def dense_intertwiner(rep1, rep2, z, sv_ratio=1e-7):
    """Reference solver: one eigh over all D^2 unknowns of the Kronecker constraints.

    Independent of the charge grading solve_intertwiner uses; only the
    nullspace threshold and the normalization rule are shared.
    """
    from scipy.linalg import eigh
    D = rep1.dim * rep2.dim
    left, right = affine_coproduct_images(rep1, rep2, z)
    gram = np.zeros((D * D, D * D), dtype=complex)
    for name in ("E0", "F0", "E1", "F1", "K0"):
        A = np.kron(np.eye(D), left[name].T) - np.kron(right[name], np.eye(D))
        gram += A.conj().T @ A
    w, v = eigh(gram)
    wmax = float(w[-1]) if w[-1] > 0 else 1.0
    dim = int((w < (sv_ratio**2) * wmax).sum())
    if dim == 0:
        return None, 0
    R = v[:, 0].reshape(D, D)
    mag = np.abs(R)
    return R / R.flat[np.argmax(mag >= (1 - 1e-9) * mag.max())], dim


def module_grading(rep1, rep2):
    """grading_modulus fed with the generators of both modules, as solve_intertwiner does."""
    return grading_modulus([(M, (rep.dim,), s) for rep in (rep1, rep2)
                            for M, s in ((rep.E, -1), (rep.F, 1), (rep.K, 0))],
                           (rep1.dim, rep2.dim))


def solver_pairs(qp):
    sc1, sc2 = on_curve_pair(qp)
    return {
        "nilpotent": (semicyclic(0.0, LAM1, qp), semicyclic(0.0, LAM2, qp)),
        "on-curve": (sc1, sc2),
        "off-curve": (sc1, semicyclic(1.9, LAM2, qp)),
        "cyclic": on_curve_cyclic_pair(qp),
    }


class TestSolverAgainstDense:
    @pytest.mark.parametrize("kind", ["nilpotent", "on-curve", "off-curve", "cyclic"])
    @pytest.mark.parametrize("nprime", [3, 4, 5])
    @pytest.mark.parametrize("z_root", [False, True], ids=["z-generic", "z-root"])
    def test_matches_dense_reference(self, nprime, kind, z_root):
        qp = QParam.root_of_unity(nprime)
        z = cmath.exp(2j * cmath.pi / qp.N) if z_root else 1.1 + 0.1j
        rep1, rep2 = solver_pairs(qp)[kind]
        R_ref, dim_ref = dense_intertwiner(rep1, rep2, z)
        R, dim = solve_intertwiner(rep1, rep2, z)
        assert dim == dim_ref
        if dim == 1:
            assert np.max(np.abs(R.mat - R_ref)) < 1e-8

    def test_ungraded_basis_uses_one_block(self):
        qp = QP5
        sc1, sc2 = on_curve_pair(qp)
        swapped = swapped_basis(sc1)
        assert module_grading(sc1, sc2) == 5
        assert module_grading(swapped, sc2) == 1
        # alpha = 0 drops the wrap entry F^N = alpha: the exact degree holds
        assert module_grading(*solver_pairs(qp)["nilpotent"]) == 0
        z = cmath.exp(2j * cmath.pi / qp.N)
        R_ref, dim_ref = dense_intertwiner(swapped, sc2, z)
        R, dim = solve_intertwiner(swapped, sc2, z)
        assert dim == dim_ref == solve_intertwiner(sc1, sc2, z)[1] == 1
        assert np.max(np.abs(R.mat - R_ref)) < 1e-8


def swapped_basis(rep):
    """The module with v_0 and v_1 swapped: for N >= 3 that is not affine mod N, so
    its E and F no longer shift the index by a fixed amount (grading modulus 1)."""
    p = [1, 0, *range(2, rep.dim)]
    return replace(rep, E=rep.E[np.ix_(p, p)], F=rep.F[np.ix_(p, p)],
                   K=rep.K[np.ix_(p, p)], hvec=rep.hvec[p])


def doubled(rep):
    """V (+) V: the module's E, F, K and weights repeated in a second diagonal block."""
    from scipy.linalg import block_diag
    return replace(rep, E=block_diag(rep.E, rep.E), F=block_diag(rep.F, rep.F),
                   K=block_diag(rep.K, rep.K), hvec=np.concatenate([rep.hvec, rep.hvec]))


class TestSolverNullspaceCount:
    @pytest.mark.parametrize("qp", [QP3, QP5], ids=["N'=3", "N'=5"])
    @pytest.mark.parametrize("doubled_first", [True, False], ids=["VV-W", "W-VV"])
    def test_doubled_module_has_four_intertwiners(self, qp, doubled_first):
        # the intertwiners of (V (+) V) (x) W are 2 x 2 copies of those of V (x) W
        sc1, sc2 = on_curve_pair(qp)
        rep1, rep2 = (doubled(sc1), sc2) if doubled_first else (sc2, doubled(sc1))
        assert module_grading(rep1, rep2) == qp.N
        R, dim = solve_intertwiner(rep1, rep2, 1.0)
        if qp.N == 3:
            dim_ref = dense_intertwiner(rep1, rep2, 1.0)[1]
        else:  # the dense D^2 = 2500 system costs ~20 s; use the 2 x 2 copies instead
            dim_ref = 4 * dense_intertwiner(*((sc1, sc2) if doubled_first else (sc2, sc1)),
                                            1.0)[1]
        assert dim == dim_ref == 4
        assert affine_intertwine_residual(1.0, rep1, rep2, R=R) < 1e-12

    def test_peak_memory_is_a_few_blocks(self, monkeypatch):
        # The block path (the sector transfer switched off: it holds no charge block at
        # all) holds a fixed number of block-sized buffers at a time.
        # While X is summed: X and one generator's tables of block positions
        # (nnz(R_a) x nnz(L_a) integers, far below a block).  Then X and the Gram
        # block, X conjugated in place.  Then the Gram block, never written, and one
        # shifted Fortran-order copy of it, which hetrf overwrites with the LDL^H
        # factor; it is dropped before the second shifted copy is made, which zpotrf
        # overwrites with the Cholesky factor.  Two complex blocks and small tables
        # make each stage (2.6 blocks measured at N' = 7); the bound stays at six, and the whole
        # D^2 x D^2 Gram is g^2 = 49 blocks.
        import tracemalloc

        import uqsl2.cpotts
        monkeypatch.setattr(uqsl2.cpotts, "_sector_transfer", lambda *args: None)
        qp = QParam.root_of_unity(7)
        sc1, sc2 = on_curve_pair(qp)
        n = (sc1.dim * sc2.dim) ** 2 // qp.N  # unknowns per charge block
        tracemalloc.start()
        try:
            _, dim = solve_intertwiner(sc1, sc2, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert dim == 1
        assert peak < 6 * n * n * np.dtype(complex).itemsize


def block_grams(rep1, rep2, z):
    """Each charge block's Gram matrix A^H A, the columns of A built from the
    definition L_a(E_ij) = E_ij L_a - R_a E_ij (stacked over a), and the block's
    K0 bound min |kl[j] - kr[i]|^2.  Also U = sum_a (|L_a|_F + |R_a|_F)^2."""
    from scipy.sparse import csc_matrix
    D = rep1.dim * rep2.dim
    left, right = affine_coproduct_images(rep1, rep2, z)
    names = ("E0", "F0", "E1", "F1", "K0")
    g = module_grading(rep1, rep2)
    deg = np.add.outer(np.arange(rep1.dim), np.arange(rep2.dim)).ravel()
    diff = np.subtract.outer(deg, deg)
    charge = diff % g if g else diff
    k0 = np.abs(np.subtract.outer(np.diag(right["K0"]), np.diag(left["K0"]))) ** 2
    s = np.arange(D)
    out = {}
    for c in np.unique(charge):
        rows, cols = np.nonzero(charge == c)
        n = len(rows)
        entries = []  # (row of A, column of A, value)
        for a, name in enumerate(names):
            base = a * D * D
            # E_ij L: row i of the D x D result holds L[j, :]; R E_ij: column j holds R[:, i]
            entries.append((base + np.add.outer(rows * D, s), left[name][cols, :]))
            entries.append((base + np.add.outer(cols, s * D), -right[name][:, rows].T))
        r = np.concatenate([e[0].ravel() for e in entries])
        v = np.concatenate([e[1].ravel() for e in entries])
        k = np.tile(np.repeat(np.arange(n), D), len(entries))
        A = csc_matrix((v, (r, k)), shape=(len(names) * D * D, n))  # duplicates are summed
        out[c] = ((A.conj().T @ A).toarray(), k0[rows, cols].min())
    U = sum((np.linalg.norm(left[a]) + np.linalg.norm(right[a])) ** 2 for a in names)
    return out, U


def record_block_eigensolves(monkeypatch):
    """Wrap the solver's per-block eigensolve cpotts._block_zeros to record, per
    call, a copy of the block, the threshold, the eigenpairs it returned and a copy
    of the metric: None for a charge block, M0 for the sector transfer's pencil."""
    import uqsl2.cpotts
    calls = []
    block_zeros = uqsl2.cpotts._block_zeros

    def recording(gram, threshold, metric=None, **count):
        block, kept = gram.copy(), None if metric is None else metric.copy()
        w, v = block_zeros(gram, threshold, metric, **count)
        calls.append((block, threshold, w, v, kept))
        return w, v

    monkeypatch.setattr(uqsl2.cpotts, "_block_zeros", recording)
    return calls


def eigh_block_zeros(gram, threshold):
    """The reference for cpotts._block_zeros, and the solver's eigensolve before
    it: one scipy.linalg.eigh call for the eigenpairs at or below the threshold."""
    from scipy.linalg import eigh
    return eigh(gram, subset_by_value=(-np.inf, threshold))


def gathered_blocks(rep1, rep2, z):
    """The Gram block of each charge that the K0 bound leaves uncertified, gathered
    as the solver once did: X through one pair of flat-index arrays over the whole
    block, the Kronecker-delta terms on the np.equal.outer pairs of coinciding
    indices.  The reference for the solver's assembly from the nonzeros."""
    D = rep1.dim * rep2.dim
    left, right = affine_coproduct_images(rep1, rep2, z)
    names = ("E0", "F0", "E1", "F1", "K0")
    conj_left = {a: left[a].conj() for a in names}
    P = sum(conj_left[a] @ left[a].T for a in names)
    Q = sum(right[a].conj().T @ right[a] for a in names)
    U = sum((np.linalg.norm(left[a]) + np.linalg.norm(right[a])) ** 2 for a in names)
    g = module_grading(rep1, rep2)
    deg = np.add.outer(np.arange(rep1.dim), np.arange(rep2.dim)).ravel()
    diff = np.subtract.outer(deg, deg)
    charge = diff % g if g else diff
    k0 = np.abs(np.subtract.outer(np.diag(right["K0"]), np.diag(left["K0"]))) ** 2
    out = {}
    for c in np.unique(charge):
        rows, cols = np.nonzero(charge == c)
        if k0[rows, cols].min() > NULLSPACE_RATIO**2 * U:
            continue
        ii = np.add.outer(rows * D, rows)  # flat indices of [rows[k], rows[l]]
        jj = np.add.outer(cols * D, cols)
        X = np.zeros(ii.shape, dtype=complex)
        for a in names:
            t = right[a].take(ii)
            t *= conj_left[a].take(jj)
            X += t
        gram = np.zeros(X.shape, dtype=complex)
        k, l = np.nonzero(np.equal.outer(rows, rows))
        gram[k, l] = P[cols[k], cols[l]]
        k, l = np.nonzero(np.equal.outer(cols, cols))
        gram[k, l] += Q[rows[k], rows[l]]
        gram -= X
        gram -= X.conj().T
        out[c] = gram
    return out


def transfer_map(rep1, rep2, z):
    """J of the sector transfer, from its definition: row k gives the k-th charge-0
    unknown of block_grams (row-major) as a linear function of x, the row-major entries
    of R's block X on sector S_0.  S_s lists the flat indices (p, s - p mod N) by p;
    A_s, B_s are the blocks of left and right F0 from S_s to S_s+1, and
    R_s = T_s X W_s with T_0 = W_0 = 1, T_s+1 = B_s T_s, W_s+1 = W_s A_s^-1.
    Also returns max_s of A_s's 1-norm condition number."""
    N = rep1.dim
    left, right = affine_coproduct_images(rep1, rep2, z)
    sector = [[p * N + (s - p) % N for p in range(N)] for s in range(N)]
    A, B = ([M[np.ix_(sector[(s + 1) % N], sector[s])] for s in range(N)]
            for M in (left["F0"], right["F0"]))
    T, W = [np.eye(N)], [np.eye(N)]
    for s in range(N - 1):
        T.append(B[s] @ T[s])
        W.append(W[s] @ np.linalg.inv(A[s]))
    deg = np.add.outer(np.arange(N), np.arange(N)).ravel()
    rows, cols = np.nonzero(np.subtract.outer(deg, deg) % N == 0)
    J = np.zeros((len(rows), N * N), dtype=complex)
    for k, (i, j) in enumerate(zip(rows, cols)):
        s = deg[i] % N
        p, q = sector[s].index(i), sector[s].index(j)
        J[k] = np.outer(T[s][p], W[s][:, q]).ravel()  # R_s[p, q] = T_s[p, :] X W_s[:, q]
    return J, max(np.linalg.cond(a, 1) for a in A)


def assert_pencil_is_the_charge_zero_block(rep1, rep2, z, gram, metric, w, G, U):
    """The transfer's pencil (gram, metric) is (J^H G J, J^H J), G the charge-0 block of
    block_grams and J transfer_map's, to a rounding bound; its zeros number the block's.

    Bound: an entry of either side sums products of entries whose moduli add to at most
    3 |J|_F^2 U (|G| <= |A|^H |A|, |A| <= sum_a (|L_a|_F + |R_a|_F), so | |G| |_2 <= U; G0's
    Kronecker terms by |T_t||W_t||T_s||W_s| <= (|T_t|^2 |W_t|^2 + |T_s|^2 |W_s|^2) / 2).
    Each complex inner sum of m terms rounds by at most 2 gamma_m of that: m = N^3 twice
    here and 10 N^2 in G's sparse product; m = 3 N for a factor and 12 N for the Kronecker
    sum in G0.  J's inverses add cond(A_s) N u relative per sector, N sectors deep."""
    N = rep1.dim
    J, kappa = transfer_map(rep1, rep2, z)
    u = np.finfo(float).eps / 2
    m = 2 * N**3 + 10 * N**2 + 15 * N + 2 * N * N * kappa
    norm2 = np.linalg.norm(J) ** 2
    gamma = m * u / (1 - m * u)
    assert np.max(np.abs(gram - J.conj().T @ G @ J)) <= 2 * gamma * 3 * norm2 * U
    assert np.max(np.abs(metric - J.conj().T @ J)) <= 2 * gamma * norm2
    assert len(w) == int((np.linalg.eigvalsh(G) < NULLSPACE_RATIO**2 * U).sum())


class TestChargeCertificate:
    @pytest.mark.parametrize("kind", ["nilpotent", "on-curve", "off-curve", "cyclic"])
    @pytest.mark.parametrize("nprime", [3, 4, 5, 7])
    @pytest.mark.parametrize("z_root", [False, True], ids=["z-generic", "z-root"])
    def test_certified_blocks_hold_no_nullspace(self, nprime, kind, z_root, monkeypatch):
        """A certified block's smallest eigenvalue is at least its K0 bound and clears
        the threshold of all blocks; the solver diagonalizes exactly the other blocks,
        and its count of zeros against the bound U is also the count against the
        largest eigenvalue of those blocks."""
        qp = QParam.root_of_unity(nprime)
        z = cmath.exp(2j * cmath.pi / qp.N) if z_root else 1.1 + 0.1j
        rep1, rep2 = solver_pairs(qp)[kind]
        blocks, U = block_grams(rep1, rep2, z)
        spectra = {c: np.linalg.eigvalsh(gram) for c, (gram, _) in blocks.items()}
        wmax = max(w[-1] for w in spectra.values())
        assert U >= wmax
        floor = NULLSPACE_RATIO**2
        certified = [c for c, (_, bound) in blocks.items() if bound > floor * U]
        searched = [c for c in blocks if c not in certified]
        for c in certified:
            bound = blocks[c][1]
            assert spectra[c][0] >= bound - 1e-12 * wmax, (c, spectra[c][0], bound)
            assert spectra[c][0] > floor * wmax
        if module_grading(rep1, rep2):  # graded mod N: every charge but 0 is certified
            assert searched == [0]
        calls = record_block_eigensolves(monkeypatch)
        _, dim = solve_intertwiner(rep1, rep2, z)
        assert len(calls) == len(searched)
        for (gram, _, w, _, metric), c in zip(calls, searched):
            assert metric is None or kind != "nilpotent"  # alpha = 0: the exact grading's blocks
            if metric is None:  # the solver's assembly against the definition
                assert np.allclose(np.linalg.eigvalsh(gram), spectra[c], rtol=0, atol=1e-12 * wmax)
            else:
                assert c == 0
                assert_pencil_is_the_charge_zero_block(rep1, rep2, z, gram, metric, w,
                                                       blocks[0][0], U)
        wmax_searched = max(spectra[c][-1] for c in searched)
        assert dim == sum(int((spectra[c] < floor * U).sum()) for c in searched) \
            == sum(int((spectra[c] < floor * wmax_searched).sum()) for c in searched)

    @pytest.mark.parametrize("qp", [QP3, QP5], ids=["N'=3", "N'=5"])
    @pytest.mark.parametrize("z_root", [False, True], ids=["z-generic", "z-root"])
    def test_exact_grading_with_uncertifiable_charges(self, qp, z_root, monkeypatch):
        # alpha = 0 keeps the exact degree; a charge c = +-N has q^2c = 1, so its
        # K0 minimum is zero and the block takes the eigensolve
        z = cmath.exp(2j * cmath.pi / qp.N) if z_root else 1.1 + 0.1j
        rep1, rep2 = solver_pairs(qp)["nilpotent"]
        assert module_grading(rep1, rep2) == 0
        blocks, U = block_grams(rep1, rep2, z)
        searched = sorted(c for c, (_, bound) in blocks.items()
                          if bound <= NULLSPACE_RATIO**2 * U)
        assert [c for c in searched if c] == [-qp.N, qp.N]
        calls = record_block_eigensolves(monkeypatch)
        R, dim = solve_intertwiner(rep1, rep2, z)
        assert len(calls) == len(searched)
        R_ref, dim_ref = dense_intertwiner(rep1, rep2, z)
        assert dim == dim_ref == 1
        assert np.max(np.abs(R.mat - R_ref)) < 1e-8

    @pytest.mark.parametrize("z", [1e-9, 1e-8, 1e7, 1e10])
    def test_refused_exactly_when_a_zero_is_spurious(self, z):
        """Far from |z| = 1 the Gram matrix spans max(|z|, 1/|z|)^2. The solve is refused
        when an eigenvalue under the threshold lies in a block whose K0 bound is positive
        (so it is no zero): at tiny |z| through the nilpotent part of F1 = E / z. At large
        |z| the cyclic F in E1 = z F lifts every such eigenvalue, and the count stands."""
        rep1, rep2 = on_curve_pair(QP5)
        blocks, U = block_grams(rep1, rep2, z)
        kl, kr = (np.diag(im["K0"]) for im in affine_coproduct_images(rep1, rep2, z))
        floor = NULLSPACE_RATIO**2
        k0max = (np.abs(np.subtract.outer(kr, kl)) ** 2).max()
        searched = {c: np.linalg.eigvalsh(gram) for c, (gram, bound) in blocks.items()
                    if bound <= floor * U}
        wmax = max(w[-1] for w in searched.values())
        # zeros count against U; the largest searched eigenvalue gives the same verdict
        spurious = {t: [c for c, w in searched.items()
                        if blocks[c][1] > floor * k0max and w[0] < floor * t] for t in (U, wmax)}
        assert bool(spurious[U]) == bool(spurious[wmax]) == (abs(z) < 1)
        if spurious[U]:
            with pytest.raises(UnresolvedConstraints) as exc:
                solve_intertwiner(rep1, rep2, z)
            assert exc.value.z == z
        else:
            _, dim = solve_intertwiner(rep1, rep2, z)
            assert dim == 0
            for t in (U, wmax):
                assert sum(int((w < floor * t).sum()) for w in searched.values()) == 0

    @pytest.mark.parametrize("nprime", [3, 5, 7, 9])
    @pytest.mark.parametrize("z_root", [False, True], ids=["z-one", "z-root"])
    def test_kept_vector_meets_every_constraint_on_its_scale(self, nprime, z_root):
        qp = QParam.root_of_unity(nprime)
        z = cmath.exp(2j * cmath.pi / qp.N) if z_root else 1.0
        rep1, rep2 = on_curve_pair(qp)
        R, dim = solve_intertwiner(rep1, rep2, z)
        assert dim == 1
        R = R.mat / np.linalg.norm(R.mat)
        left, right = affine_coproduct_images(rep1, rep2, z)
        for a in ("E0", "F0", "E1", "F1", "K0"):
            scale = np.linalg.norm(left[a]) + np.linalg.norm(right[a])
            assert np.linalg.norm(R @ left[a] - right[a] @ R) <= 1e-12 * scale, a

    def test_kept_vector_off_its_scale_is_refused(self):
        # the pair of `uqsl2 sweep --Nprime 5 --z 3.2e-7 --lambda1-range 0.5:0.5:1
        # --alpha1-range 0.3:0.3:1`: its spurious zeros sit in the charge-0 block,
        # which K0 cannot bound, so only the kept-vector check refuses them
        rep1, rep2 = on_curve_pair(QP5, a1=0.3, lam1=0.5 + 0.1j, lam2=1.3 - 0.11j)
        with pytest.raises(UnresolvedConstraints, match="kept vector") as exc:
            solve_intertwiner(rep1, rep2, 3.2e-7)
        assert exc.value.z == 3.2e-7

    def test_certificate_needs_no_closed_form(self, monkeypatch):
        import uqsl2.cpotts
        import uqsl2.raffine

        def refuse(*args, **kwargs):
            raise AssertionError("the solver must not use the closed forms or the curve")

        for module, name in ((uqsl2.cpotts, "r_semicyclic"), (uqsl2.cpotts, "curve_residual"),
                             (uqsl2.cpotts, "r_spectral"), (uqsl2.raffine, "r_spectral"),
                             (uqsl2.raffine, "rplus_closed"), (uqsl2.raffine, "rminus_closed"),
                             (uqsl2.raffine, "rzero_bar")):
            monkeypatch.setattr(module, name, refuse)
        sc1, sc2 = on_curve_pair(QP5)
        R, dim = solve_intertwiner(sc1, sc2, 1.0)
        assert dim == 1
        assert affine_intertwine_residual(1.0, sc1, sc2, R=R) < 1e-9
        assert solve_intertwiner(sc1, semicyclic(1.9, LAM2, QP5), 1.0) == (None, 0)


def assert_zero_eigenpairs(gram, w, v, threshold, scale, metric=None):
    """w, v are exactly the eigenpairs of the Hermitian gram, or of the pencil (gram,
    metric), under threshold, in ascending order, with vectors orthonormal (in the
    metric) (rounding measured against scale)."""
    from scipy.linalg import eigh
    full = eigh(gram, metric, eigvals_only=True)
    Mv = v if metric is None else metric @ v
    zeros = int((full <= threshold).sum())
    assert len(w) == v.shape[1] == zeros
    assert np.all(np.diff(w) >= 0)
    assert np.allclose(w / scale, full[:zeros] / scale, rtol=0, atol=1e-12)
    assert np.linalg.norm((gram / scale) @ v - Mv * (w / scale)) <= 1e-12  # no overflow at 1e200
    assert np.allclose(v.conj().T @ Mv, np.eye(zeros), rtol=0, atol=1e-12)


class TestBlockEigensolve:
    """Each searched charge block is one call of cpotts._block_zeros for its
    eigenpairs under the threshold NULLSPACE_RATIO^2 U; the zeros it returns are
    the block's."""

    @pytest.mark.parametrize("n", [1, 2, 3, 17, 125])
    @pytest.mark.parametrize("scale", [1e-200, 1e-80, 1.0, 1e80, 1e200])
    def test_the_solver_call_returns_exactly_the_zeros(self, n, scale):
        # the solver's call on a PSD block of known rank: the zero count does not
        # depend on the block's scale, and the trace stands in for the Gram bound U;
        # eigh (1e-200 and 1e80, 1e200 take zheevr's two scaling branches) agrees
        from uqsl2.cpotts import _block_zeros
        rng = np.random.default_rng(n)
        rank = n - n // 3
        B = rng.standard_normal((n, rank)) + 1j * rng.standard_normal((n, rank))
        gram = (B @ B.conj().T) * scale
        before = gram.tobytes()
        U = np.trace(gram).real
        threshold = NULLSPACE_RATIO**2 * U
        w, v = _block_zeros(gram, threshold)
        assert gram.tobytes() == before  # the shifts go onto copies, never onto gram
        assert len(w) == len(eigh_block_zeros(gram, threshold)[0]) == n - rank
        assert_zero_eigenpairs(gram, w, v, threshold, U)

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_a_read_only_block_gives_the_same_bits(self, order):
        # the kernel never writes its argument: each factorization shifts its own copy
        from uqsl2.cpotts import _block_zeros
        rng = np.random.default_rng(17)
        B = rng.standard_normal((17, 12)) + 1j * rng.standard_normal((17, 12))
        gram = B @ B.conj().T
        threshold = NULLSPACE_RATIO**2 * np.trace(gram).real
        frozen = np.array(gram, order=order)
        frozen.setflags(write=False)
        w, v = _block_zeros(frozen, threshold)
        w_ref, v_ref = _block_zeros(gram.copy(), threshold)
        assert len(w) == 5
        assert w.tobytes() == w_ref.tobytes() and v.tobytes() == v_ref.tobytes()

    @pytest.mark.parametrize("kind", ["nilpotent", "on-curve", "off-curve", "cyclic"])
    @pytest.mark.parametrize("nprime", [3, 4, 5, 7])
    def test_solver_blocks(self, nprime, kind, monkeypatch):
        # every call gets the threshold of the Gram bound and returns the block's
        # zeros; the nullspace dimension is their number
        calls = record_block_eigensolves(monkeypatch)
        rep1, rep2 = solver_pairs(QParam.root_of_unity(nprime))[kind]
        _, dim = solve_intertwiner(rep1, rep2, 1.0)
        _, U = block_grams(rep1, rep2, 1.0)
        assert calls
        for gram, threshold, w, v, metric in calls:
            assert threshold == pytest.approx(NULLSPACE_RATIO**2 * U, rel=1e-12)
            assert_zero_eigenpairs(gram, w, v, threshold, U, metric)
        assert dim == sum(len(w) for _, _, w, _, _ in calls)

    @pytest.mark.parametrize("qp", [QP3, QP5], ids=["demo-04", "N'=5"])
    def test_intertwiner_against_the_full_spectrum(self, qp, monkeypatch):
        # the reference path: every eigenpair of the block, then those under the threshold
        import uqsl2.cpotts
        from scipy.linalg import eigh
        pair = on_curve_pair(qp)
        R, dim = solve_intertwiner(*pair, 1.0)

        def reference(gram, threshold, metric=None, count=None):
            w, v = eigh(gram, metric)
            zeros = int((w <= threshold).sum())
            return w[:zeros], v[:, :zeros]

        monkeypatch.setattr(uqsl2.cpotts, "_block_zeros", reference)
        R_ref, dim_ref = solve_intertwiner(*pair, 1.0)
        assert dim == dim_ref == 1
        assert np.allclose(R.mat, R_ref.mat, rtol=0, atol=1e-10)

    def test_a_failed_factorization_is_refused(self, monkeypatch):
        # the Cholesky factor of the block plus the threshold reports a non-positive
        # pivot: the solve is refused naming z, with no other eigensolve to fall back on
        from scipy.linalg import lapack
        potrf = lapack.zpotrf
        monkeypatch.setattr(lapack, "zpotrf", lambda a, **kwargs: (potrf(a, **kwargs)[0], 1))
        with pytest.raises(UnresolvedConstraints, match="not positive definite") as exc:
            solve_intertwiner(*on_curve_pair(QP5), 1.0)
        assert exc.value.z == 1.0

    @pytest.mark.parametrize("z", [float("nan"), float("inf")], ids=["nan", "inf"])
    def test_non_finite_z_is_refused_before_any_eigensolve(self, z, monkeypatch):
        from uqsl2 import SpectralOverflow
        calls = record_block_eigensolves(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with pytest.raises(SpectralOverflow):
                solve_intertwiner(*on_curve_pair(QP5), z)
        assert calls == []


def inertia_count(gram, threshold):
    """The solver's count of eigenvalues at or below the threshold, from the
    LDL^H factorization of gram - threshold I, and whether it took a 2x2 pivot."""
    from scipy.linalg import lapack

    from uqsl2.cpotts import _nonpositive_pivots
    ldu, ipiv, info = lapack.zhetrf(gram - threshold * np.eye(len(gram)), lower=1)
    assert info >= 0
    return _nonpositive_pivots(ldu, ipiv), bool((ipiv < 0).any())


class TestInertiaCount:
    @pytest.mark.parametrize("m", [1, 2, 5, 40])
    def test_zero_diagonal_takes_two_by_two_pivots(self, m):
        # [[0, B], [B^H, 0]] has eigenvalues +-sigma(B): no 1x1 pivot can start it
        rng = np.random.default_rng(m)
        B = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        gram = np.block([[np.zeros((m, m)), B], [B.conj().T, np.zeros((m, m))]])
        sigma = np.linalg.svd(B, compute_uv=False)
        for threshold in (-2 * sigma[0], -sigma[-1] / 2, sigma[-1] / 2, 2 * sigma[0]):
            count = inertia_count(gram, threshold)[0]
            assert count == int((np.linalg.eigvalsh(gram) <= threshold).sum())
        assert inertia_count(gram, 0.0) == (m, True)  # a zero diagonal takes 2x2 pivots

    def test_an_eigenvalue_exactly_at_the_threshold_counts(self):
        # [[1, 1], [1, 1]] has eigenvalues 0 and 2; shifted by t = 2^-40 and back
        # (exact in binary), its LDL^H factorization ends on an exact zero pivot
        from uqsl2.cpotts import _block_zeros
        t = 2.0**-40
        gram = t * np.eye(2) + np.ones((2, 2))
        assert inertia_count(gram, t) == (1, False)
        w, v = _block_zeros(gram.astype(complex), t)
        assert len(w) == 1 and abs(w[0] - t) < 1e-15
        assert np.allclose(abs(v[:, 0]), np.sqrt(0.5), rtol=0, atol=1e-15)

    def test_exact_zeros_inside_two_by_two_pivots(self):
        # a singular B puts two exact zero eigenvalues in a zero-diagonal matrix
        B = np.ones((2, 2))
        gram = np.block([[np.zeros((2, 2)), B], [B.T, np.zeros((2, 2))]])  # -2, 0, 0, 2
        assert inertia_count(gram, 0.0) == (3, True)
        assert inertia_count(gram, -1.0)[0] == 1
        assert inertia_count(gram, 2.0)[0] == 4

    @pytest.mark.parametrize("n", [27, 216])
    @pytest.mark.parametrize("lwork", [None, 64], ids=["default-lwork", "lwork-64n"])
    def test_every_two_by_two_pivot_is_indefinite(self, n, lwork):
        # Bunch-Kaufman takes a 2x2 pivot only with a negative determinant, so it
        # counts once; lwork = 64 n at n = 216 runs the blocked factorization.
        # No shift lies on an eigenvalue: on one, a rounding-level
        # eigenvalue of either sign would decide the count.
        from scipy.linalg import lapack

        from uqsl2.cpotts import _nonpositive_pivots
        rng = np.random.default_rng(n)
        kwargs = {} if lwork is None else {"lwork": lwork * n}
        pivots = 0
        for zero_diagonal in (False, True):
            A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            gram = A + A.conj().T
            if zero_diagonal:
                gram[np.diag_indices(n)] = 0
            w = np.linalg.eigvalsh(gram)
            mid = (w[:-1] + w[1:]) / 2
            for shift in (w[0] - 1, *mid[::max(1, n // 27)], w[-1] + 1):
                ldu, ipiv, info = lapack.zhetrf(gram - shift * np.eye(n), lower=1, **kwargs)
                assert info >= 0
                first = np.flatnonzero(ipiv < 0)[::2]
                idx = first[:, None] + np.arange(2)
                e = np.linalg.eigvalsh(ldu[idx[:, :, None], idx[:, None, :]], UPLO="L")
                assert np.all(e[:, 0] < 0) and np.all(e[:, 1] > 0)
                assert _nonpositive_pivots(ldu, ipiv) == int((w <= shift).sum())
                pivots += len(first)
        assert pivots > 0


def assert_blocks_match_the_gather(rep1, rep2, z, monkeypatch):
    """The solver's blocks are gathered_blocks' byte for byte: the same products summed
    in the same order give the same bytes; blocks equal as numbers but not in bytes
    would differ in a zero's sign, counted here.  The transfer's pencil, which takes
    the place of the charge-0 block, is checked against that block's definition."""
    calls = record_block_eigensolves(monkeypatch)
    solve_intertwiner(rep1, rep2, z)
    reference = gathered_blocks(rep1, rep2, z)
    assert len(calls) == len(reference)
    signed_zeros = 0
    for (gram, _, w, _, metric), ref in zip(calls, reference.values()):
        if metric is not None:
            blocks, U = block_grams(rep1, rep2, z)
            assert_pencil_is_the_charge_zero_block(rep1, rep2, z, gram, metric, w,
                                                   blocks[0][0], U)
            continue
        assert gram.shape == ref.shape and np.array_equal(gram, ref)
        signed_zeros += int((gram.view(np.uint64) != ref.view(np.uint64)).sum())
    assert signed_zeros == 0, f"{signed_zeros} words differ in the sign of a zero"


class TestBlockAssembly:
    @pytest.mark.parametrize("kind", ["nilpotent", "on-curve", "off-curve", "cyclic"])
    @pytest.mark.parametrize("nprime", [3, 4, 5, 7])
    @pytest.mark.parametrize("z", [1.0, 0.9 * cmath.exp(0.7j)], ids=["z-one", "z-generic"])
    def test_blocks_match_the_flat_index_gather(self, nprime, kind, z, monkeypatch):
        rep1, rep2 = solver_pairs(QParam.root_of_unity(nprime))[kind]
        assert_blocks_match_the_gather(rep1, rep2, z, monkeypatch)

    @pytest.mark.parametrize("kind", ["ungraded", "doubled"])
    @pytest.mark.parametrize("nprime", [3, 5])  # the gather's index arrays grow as n^2
    @pytest.mark.parametrize("z", [1.0, 0.9 * cmath.exp(0.7j)], ids=["z-one", "z-generic"])
    def test_other_gradings_match_the_flat_index_gather(self, nprime, kind, z, monkeypatch):
        # ungraded: one block of all D^2 unknowns; doubled: a 2N x N pair graded mod N
        qp = QParam.root_of_unity(nprime)
        sc1, sc2 = on_curve_pair(qp)
        rep1, g = {"ungraded": (swapped_basis(sc1), 1), "doubled": (doubled(sc1), qp.N)}[kind]
        assert module_grading(rep1, sc2) == g
        assert_blocks_match_the_gather(rep1, sc2, z, monkeypatch)

    def test_repeated_solves_are_identical_and_leave_the_global_rng(self):
        state = np.random.get_state()
        pair = on_curve_pair(QP5)
        R1, dim1 = solve_intertwiner(*pair, 1.0)
        R2, dim2 = solve_intertwiner(*pair, 1.0)
        assert dim1 == dim2 == 1
        assert R1.mat.tobytes() == R2.mat.tobytes()
        after = np.random.get_state()
        assert state[0] == after[0] and np.array_equal(state[1], after[1])
        assert state[2:] == after[2:]


def random_on_curve(nprime, k):
    """Draw k of the transfer's case list at N': (alpha1, lambda1, lambda2), seed (N', k)."""
    rng = np.random.default_rng([nprime, k])
    lam1, lam2 = (complex(*rng.uniform([0.3, -0.2], [1.7, 0.2])) for _ in range(2))
    return rng.uniform(0.3, 1.2), lam1, lam2


def transfer_pair(nprime, kind):
    qp = QParam.root_of_unity(nprime)
    if kind.startswith("draw"):
        a1, lam1, lam2 = random_on_curve(nprime, int(kind[-1]))
        return on_curve_pair(qp, a1=a1, lam1=lam1, lam2=lam2)
    if kind == "cyclic-off":
        return cyclic(0.3, 0.7, LAM1, qp), cyclic(0.45, 1.3, LAM2, qp)
    return solver_pairs(qp)[{"semicyclic-on": "on-curve", "semicyclic-off": "off-curve",
                             "cyclic-on": "cyclic"}[kind]]


TRANSFER_Z = {"z-one": lambda N: 1.0, "z-root": lambda N: cmath.exp(2j * cmath.pi / N),
              "z-generic": lambda N: 0.37 + 0.2j}
# written down before either path runs: every pair at N' = 3 .. 9 and every z
TRANSFER_CASES = [(nprime, kind, z) for nprime in range(3, 10)
                  for kind in ("semicyclic-on", "semicyclic-off", "cyclic-on", "cyclic-off",
                               "draw-1", "draw-2")
                  for z in TRANSFER_Z]

# near alpha = 0, where the A_s approach singular ones; also written down before any run
SMALL_ALPHA_NPRIMES = (3, 5)
SMALL_ALPHAS = (0.005, 0.01, 0.02, 0.05)
SMALL_ALPHA_LAMBDAS = (0.5 + 0.1j, 1.0 + 0.1j)
STACK_CASES = TRANSFER_CASES + [(nprime, f"small-{a1}-{lam1}", "z-one")
                                for nprime in SMALL_ALPHA_NPRIMES for a1 in SMALL_ALPHAS
                                for lam1 in SMALL_ALPHA_LAMBDAS]


def stack_pair(nprime, kind):
    """transfer_pair's pair, or the small-alpha pair named small-<alpha1>-<lambda1>."""
    if not kind.startswith("small"):
        return transfer_pair(nprime, kind)
    _, a1, lam1 = kind.split("-", 2)
    return on_curve_pair(QParam.root_of_unity(nprime), a1=float(a1), lam1=complex(lam1))


def gamma(m):
    u = np.finfo(float).eps / 2
    return m * u / (1 - m * u)


def block_path(monkeypatch):
    """Switch the sector transfer off: every pair takes the charge blocks."""
    import uqsl2.cpotts
    monkeypatch.setattr(uqsl2.cpotts, "_sector_transfer", lambda *args: None)


class TestSectorTransfer:
    @pytest.mark.parametrize("nprime, kind, z_name", TRANSFER_CASES)
    def test_dimension_matches_the_block_path(self, nprime, kind, z_name, monkeypatch):
        rep1, rep2 = transfer_pair(nprime, kind)
        z = TRANSFER_Z[z_name](rep1.dim)
        calls = record_block_eigensolves(monkeypatch)
        R, dim = solve_intertwiner(rep1, rep2, z)
        # the transfer answers in one pencil, or leaves the pair to the block (a zero of the
        # pencil within TRANSFER_BAND of the threshold, which rounding decides, at some N')
        assert [metric is not None for *_, metric in calls] in ([True], [False], [True, False])
        block_path(monkeypatch)
        R_block, dim_block = solve_intertwiner(rep1, rep2, z)
        assert dim == dim_block
        if dim:
            assert np.max(np.abs(R.mat - R_block.mat)) < 1e-8

    def test_the_transfer_answers_most_listed_cases(self, monkeypatch):
        # which pairs the band hands to the block is decided by rounding; most must not be
        import uqsl2.cpotts
        answered = []
        transfer = uqsl2.cpotts._sector_transfer
        monkeypatch.setattr(uqsl2.cpotts, "_sector_transfer",
                            lambda *args: answered.append(transfer(*args)) or answered[-1])
        for nprime, kind, z_name in TRANSFER_CASES:
            rep1, rep2 = transfer_pair(nprime, kind)
            solve_intertwiner(rep1, rep2, TRANSFER_Z[z_name](rep1.dim))
        assert sum(t is not None for t in answered) >= 0.9 * len(TRANSFER_CASES)

    def test_a_zero_near_the_threshold_is_left_to_the_block(self, monkeypatch):
        # alpha1 = 0.05 at N' = 3: every A_s is invertible with a condition number of 219,
        # below TRANSFER_COND, but the pencil's rounding lifts the intertwiner's eigenvalue
        # above the threshold; it lies in the band, so the block counts the zero
        import uqsl2.cpotts
        from uqsl2.cpotts import TRANSFER_COND, _sector_transfer
        rep1, rep2 = on_curve_pair(QP3, a1=0.05, lam1=0.5 + 0.1j)
        assert transfer_map(rep1, rep2, 1.0)[1] < TRANSFER_COND
        args = *affine_coproduct_images(rep1, rep2, 1.0), QP3.N
        assert _sector_transfer(*args) is None
        monkeypatch.setattr(uqsl2.cpotts, "TRANSFER_BAND", (1.0, 1.0))
        assert _sector_transfer(*args) == (None, 0)  # the pencil alone misses it
        monkeypatch.undo()
        calls = record_block_eigensolves(monkeypatch)
        _, dim = solve_intertwiner(rep1, rep2, 1.0)
        assert dim == 1 and [metric for *_, metric in calls] == [None]

    def test_a_kept_vector_that_misses_is_left_to_the_block(self, monkeypatch):
        # a scrambled vector of the pencil: the pencil counts the zero, the lifted R
        # misses a constraint on its scale, and the block answers, byte for byte
        import uqsl2.cpotts
        rep1, rep2 = on_curve_pair(QP5)
        calls = record_block_eigensolves(monkeypatch)
        recorded = uqsl2.cpotts._block_zeros

        def scrambled(gram, threshold, metric=None, **count):
            w, v = recorded(gram, threshold, metric, **count)
            return w, v if metric is None else np.roll(v, 1, axis=0)

        monkeypatch.setattr(uqsl2.cpotts, "_block_zeros", scrambled)
        R, dim = solve_intertwiner(rep1, rep2, 1.0)
        assert [metric is not None for *_, metric in calls] == [True, False]
        assert len(calls[0][2]) == dim == 1
        block_path(monkeypatch)
        assert np.array_equal(R.mat, solve_intertwiner(rep1, rep2, 1.0)[0].mat)

    @pytest.mark.parametrize("nprime", SMALL_ALPHA_NPRIMES)
    @pytest.mark.parametrize("a1", SMALL_ALPHAS)
    @pytest.mark.parametrize("lam1", SMALL_ALPHA_LAMBDAS)
    def test_small_alpha_matches_the_block_path(self, nprime, a1, lam1, monkeypatch):
        # near alpha = 0 the A_s approach singular ones: the transfer answers only what the
        # block would, and a pair it declines (by the condition number, the band, the
        # pencil's factorization or the kept vector) gets the block's bytes
        rep1, rep2 = on_curve_pair(QParam.root_of_unity(nprime), a1=a1, lam1=lam1)
        calls = record_block_eigensolves(monkeypatch)
        R, dim = solve_intertwiner(rep1, rep2, 1.0)
        transfer_answered = calls[-1][-1] is not None
        block_path(monkeypatch)
        R_block, dim_block = solve_intertwiner(rep1, rep2, 1.0)
        assert dim == dim_block == 1
        if transfer_answered:
            assert np.max(np.abs(R.mat - R_block.mat)) < 1e-8
        else:
            assert np.array_equal(R.mat, R_block.mat)

    @pytest.mark.parametrize("rep", ["alpha-30", "alpha-zero-cyclic"])
    def test_ill_conditioned_or_singular_f0_blocks_take_the_block(self, rep, monkeypatch):
        # alpha1 = 30 at N' = 5: the largest A_s condition number is 2.4e4; alpha = 0 on a
        # cyclic pair (graded mod N by E's wrap entry) makes F0 nilpotent, every A_s singular
        qp = QP5
        if rep == "alpha-30":
            rep1, rep2 = on_curve_pair(qp, a1=30.0)
        else:
            rep1, rep2 = cyclic(0.3, 0.0, LAM1, qp), cyclic(0.45, 0.0, LAM2, qp)
        assert module_grading(rep1, rep2) == qp.N
        calls = record_block_eigensolves(monkeypatch)
        _, dim = solve_intertwiner(rep1, rep2, 1.0)
        assert calls and all(metric is None for *_, metric in calls)
        assert dim == dense_intertwiner(rep1, rep2, 1.0)[1]


def dense_parts(left, right, N):
    """solve_intertwiner's D x D quantities on a pair graded mod N, from their definitions:
    P, Q, scale, U and the K0 minimum of each charge c = 0 .. N - 1, the block path's kmin."""
    names = ("E0", "F0", "E1", "F1", "K0")
    P = sum(left[a].conj() @ left[a].T for a in names)
    Q = sum(right[a].conj().T @ right[a] for a in names)
    scale = np.array([np.linalg.norm(left[a]) + np.linalg.norm(right[a]) for a in names])
    deg = np.add.outer(np.arange(N), np.arange(N)).ravel()
    charge = np.subtract.outer(deg, deg) % N
    k0 = np.abs(np.subtract.outer(np.diag(right["K0"]), np.diag(left["K0"]))) ** 2
    return P, Q, scale, sum(scale**2), np.array([k0[charge == c].min() for c in range(N)])


class TestSectorStacks:
    """The transfer reads N x N sector blocks alone: each quantity it takes from them equals
    its D x D counterpart of the block path to a rounding bound from N and the operators'
    norms, and each pair it declines gets the block path's bytes."""

    @pytest.mark.parametrize("nprime, kind, z_name", STACK_CASES)
    def test_stacks_are_the_dense_quantities(self, nprime, kind, z_name):
        from uqsl2.cpotts import _sector_stacks
        rep1, rep2 = stack_pair(nprime, kind)
        N = rep1.dim
        z = TRANSFER_Z[z_name](N)
        left, right = affine_coproduct_images(rep1, rep2, z)
        L, R, P, Q, scale, U, kmin = _sector_stacks(left, right, N)
        P_d, Q_d, scale_d, U_d, kmin_d = dense_parts(left, right, N)
        sector = np.array([[p * N + (s - p) % N for p in range(N)] for s in range(N)])
        blocks = sector[:, :, None], sector[:, None, :]  # M[blocks][s]: M[S_s, S_s]
        names = ("E0", "F0", "E1", "F1", "K0")
        # an entry of P sums, over the generators, products of entries whose moduli add to at
        # most sum_a |L_a|_F^2 (Cauchy-Schwarz on two rows); each side rounds it by at most
        # gamma of its inner length, 5 N + 2 here and D + 2 plus the 5-term sum there
        D = N * N
        m = D + 5 * N + 9
        assert np.max(np.abs(P - P_d[blocks])) <= 2 * gamma(m) * sum(
            np.linalg.norm(left[a]) ** 2 for a in names)
        assert np.max(np.abs(Q - Q_d[blocks])) <= 2 * gamma(m) * sum(
            np.linalg.norm(right[a]) ** 2 for a in names)
        # a norm of at most D^2 terms rounds by gamma(D^2 + 3) relative, U's squares twice that
        assert np.all(np.abs(scale - scale_d) <= 2 * gamma(D * D + 3) * scale_d)
        assert abs(U - U_d) <= 6 * gamma(D * D + 8) * U_d
        assert np.array_equal(kmin, kmin_d)  # the same differences of the same K0 entries
        for a, (name, shift) in enumerate(zip(names, (-1, 1, 1, -1, 0))):
            t = (np.arange(N) + shift) % N  # L[a, s] = L_a[S_t, S_s], holding every nonzero
            assert np.array_equal(L[a], left[name][sector[t][:, :, None], sector[:, None, :]])
            assert np.array_equal(R[a], right[name][sector[t][:, :, None], sector[:, None, :]])
            assert np.count_nonzero(L[a]) == np.count_nonzero(left[name])
            assert np.count_nonzero(R[a]) == np.count_nonzero(right[name])

    @pytest.mark.parametrize("nprime, kind, z_name", STACK_CASES)
    def test_sector_misses_are_the_dense_misses(self, nprime, kind, z_name, monkeypatch):
        # the kept vector's misses, per sector, against |R L_a - R_a R|_F in D x D; and the
        # count at the threshold that the pencil's eigensolve takes from the band is its own
        from uqsl2.cpotts import _sector_misses, _sector_plan, _sector_stacks, _sector_transfer
        from uqsl2.cpotts import _zeros_count
        rep1, rep2 = stack_pair(nprime, kind)
        N = rep1.dim
        z = TRANSFER_Z[z_name](N)
        left, right = affine_coproduct_images(rep1, rep2, z)
        calls = record_block_eigensolves(monkeypatch)
        answer = _sector_transfer(left, right, N)
        for gram, threshold, w, _, metric in calls:
            assert _zeros_count(gram, threshold, metric) == len(w)
        if answer is None or answer[1] == 0:
            return
        R_t = answer[0]
        L, R, *_, scale, _, _ = _sector_stacks(left, right, N)
        X = R_t.ravel()[_sector_plan(N)[4]].reshape(N, N, N)
        assert np.count_nonzero(R_t) == np.count_nonzero(X)  # no entry outside the sectors
        names = ("E0", "F0", "E1", "F1", "K0")
        dense = np.array([np.linalg.norm(R_t @ left[a] - right[a] @ R_t) for a in names])
        # each residual entry is an inner product of at most D + 2 terms a side, rounded by
        # gamma of that times |R| |L_a| + |R_a| |R|, whose Frobenius norm is at most
        # scale[a] |R|_F; then a norm of D^2 terms
        D = N * N
        bound = 4 * gamma(D * D + 3) * scale * np.linalg.norm(R_t)
        assert np.all(np.abs(_sector_misses(X, L, R, N) - dense) <= bound)
        assert np.all(dense <= NULLSPACE_RATIO * scale + bound)

    def test_the_pencil_is_factored_twice(self, monkeypatch):
        # the band's two counts give the count at the threshold: one LDL^H factorization at
        # each end of the band and one Cholesky factorization for the vector, no third count
        from scipy.linalg import lapack
        counted = {"zhetrf": 0, "zpotrf": 0}
        for name in counted:
            def call(*args, _f=getattr(lapack, name), _name=name, **kwargs):
                counted[_name] += 1
                return _f(*args, **kwargs)
            monkeypatch.setattr(lapack, name, call)
        calls = record_block_eigensolves(monkeypatch)
        _, dim = solve_intertwiner(*on_curve_pair(QP5), 1.0)
        assert dim == 1 and [metric is not None for *_, metric in calls] == [True]
        assert counted == {"zhetrf": 2, "zpotrf": 1}

    @pytest.mark.parametrize("decline", ["non-finite-stacks", "uncertified-charge", "f0-scale",
                                         "singular-f0", "ill-conditioned-f0", "non-finite-pencil",
                                         "failed-factorization"])
    def test_each_decline_gives_the_block_paths_bytes(self, decline, monkeypatch):
        # one pair per guard of the transfer; the band and the kept vector have tests above.
        # The reason is checked on the stacks, then the solve against the block path alone
        import uqsl2.cpotts
        from scipy.linalg import lapack

        from uqsl2.cpotts import TRANSFER_COND, _sector_stacks, _sector_transfer
        z = {"non-finite-stacks": 1e-300, "f0-scale": 1e-5}.get(decline, 1.0)
        if decline == "uncertified-charge":  # |K| ~ 0.023 on both: K0's entries nearly meet
            rep1, rep2 = on_curve_pair(QP5, lam1=0.5 + 3j, lam2=1.3 + 3j)
        elif decline == "singular-f0":  # alpha = 0 on a cyclic pair: F0 nilpotent
            rep1, rep2 = cyclic(0.3, 0.0, LAM1, QP5), cyclic(0.45, 0.0, LAM2, QP5)
        elif decline == "ill-conditioned-f0":
            rep1, rep2 = on_curve_pair(QP5, a1=30.0)
        elif decline == "non-finite-pencil":  # |K| ~ 1e44 on module 1: B_s^4 leaves float64
            rep1, rep2 = semicyclic(0.3, 0.5 - 80j, QP5), semicyclic(0.7, LAM2, QP5)
        else:
            rep1, rep2 = on_curve_pair(QP5, a1=0.3, lam1=0.5 + 0.1j)
        left, right = affine_coproduct_images(rep1, rep2, z)
        with np.errstate(all="ignore"):
            stacks = _sector_stacks(left, right, QP5.N)
            answer = _sector_transfer(left, right, QP5.N)
        assert (answer is None) == (decline != "failed-factorization")
        if decline == "non-finite-stacks":
            assert stacks is None
        else:
            L, R, P, Q, scale, U, kmin = stacks
            threshold = NULLSPACE_RATIO**2 * U
            certified = bool((kmin[1:] > threshold).all())
            assert certified == (decline != "uncertified-charge")
            if certified:  # the guard that follows
                assert (NULLSPACE_RATIO * U > scale[1] ** 2) == (decline == "f0-scale")
        if decline == "singular-f0":
            with pytest.raises(np.linalg.LinAlgError):
                np.linalg.inv(L[1])
        elif decline == "ill-conditioned-f0":
            assert transfer_map(rep1, rep2, z)[1] >= TRANSFER_COND

        def solve():
            try:
                R, dim = solve_intertwiner(rep1, rep2, z)
            except Exception as exc:  # a refusal: its type and message
                return type(exc), str(exc)
            return dim, None if R is None else R.mat.tobytes()

        if decline == "failed-factorization":  # the pencil's Cholesky alone fails
            potrf = lapack.zpotrf
            factored = []

            def first_fails(a, **kwargs):
                c, info = potrf(a, **kwargs)
                factored.append(info)
                return c, 1 if len(factored) == 1 else info

            monkeypatch.setattr(lapack, "zpotrf", first_fails)
            calls = record_block_eigensolves(monkeypatch)
            got = solve()
            # the pencil's call raised inside the recorder; the block's call was recorded
            assert len(factored) == 2 and [metric is not None for *_, metric in calls] == [False]
            monkeypatch.undo()
        else:
            got = solve()
        block_path(monkeypatch)
        assert got == solve()
        if decline == "non-finite-stacks":
            assert got[0] is uqsl2.cpotts.SpectralOverflow


def power_bound(X, N, u):
    """The entrywise rounding bound of X^N, formed as N - 1 products in turn, against a
    scalar: each complex product of inner dimension m rounds by at most 2 gamma_(m+2) times
    the product of the moduli, the entries themselves (q-powers of the weights) are off
    by at most 16 u relative each, and |X|^N bounds every product of moduli."""
    m = len(X) + 2
    gamma = m * u / (1 - m * u)
    return (2 * (N - 1) * gamma + 16 * N * u) * np.linalg.matrix_power(abs(X), N)


def chain(Ms):
    """Ms[-1] @ ... @ Ms[0], one product after the other."""
    out = Ms[0]
    for M in Ms[1:]:
        out = M @ out
    return out


class TestZ0Characters:
    """On (semi)cyclic modules F^N = alpha, K^N = L (and on cyclic ones E^N = beta) act as
    scalars, so the N-th powers of the coproduct images are scalars too (the q-binomial
    theorem at a root of unity): the identity the sector transfer's wrap rests on."""

    @pytest.mark.parametrize("nprime", [3, 5, 7])
    @pytest.mark.parametrize("kind", ["semicyclic-on", "semicyclic-off", "cyclic-on",
                                      "cyclic-off"])
    @pytest.mark.parametrize("z", [1.0, 0.37 + 0.2j], ids=["z-one", "z-generic"])
    def test_nth_powers_are_their_closed_forms(self, nprime, kind, z):
        qp = QParam.root_of_unity(nprime)
        N = qp.N
        rep1, rep2 = transfer_pair(nprime, kind)
        a1, a2 = rep1.params["alpha"], rep2.params["alpha"]
        L1, L2 = qp.qpow(N * rep1.lam), qp.qpow(N * rep2.lam)
        zN = z**N
        cL, cR = a1 * L2 + a2, a1 + L1 * a2
        closed = {("left", "F0"): cL, ("right", "F0"): cR,
                  ("left", "E1"): zN * a1 + L1 * a2, ("right", "E1"): a2 + zN * a1 * L2}
        if kind.startswith("cyclic"):
            b1, b2 = rep1.params["beta"], rep2.params["beta"]
            closed.update({("left", "E0"): b1 + b2 / L1, ("right", "E0"): b2 + b1 / L2})
        images = dict(zip(("left", "right"), affine_coproduct_images(rep1, rep2, z)))
        u = np.finfo(float).eps / 2
        for (side, gen), c in closed.items():
            X = images[side][gen]
            power = chain([X] * N)
            # the closed form rounds by a few u of its terms' moduli
            scalar_error = 16 * u * (abs(a1) * (1 + abs(L2)) + abs(a2) * (1 + abs(L1))
                                     + abs(zN) * abs(a1) * (1 + abs(L2)) + abs(c))
            bound = power_bound(X, N, u) + scalar_error
            assert np.all(abs(power - c * np.eye(len(X))) <= bound), (side, gen)
        # curve_residual's r1 is |cL - cR| over |(1 - L1)(1 - L2)|
        r1 = curve_residual(CurveSpec(z, rep1.lam, rep2.lam, a1, a2, N=N), qp)[0]
        assert abs(r1 * abs((1 - L1) * (1 - L2)) - abs(cL - cR)) <= \
            32 * u * (abs(a1) * (1 + abs(L2)) + abs(a2) * (1 + abs(L1)))
        # the transfer's cycle products on sector S_0: the wrap reads (cR / cL - 1) X = 0
        sector = [[p * N + (s - p) % N for p in range(N)] for s in range(N)]
        for side, c in (("left", cL), ("right", cR)):
            F0 = images[side]["F0"]
            blocks = [F0[np.ix_(sector[(s + 1) % N], sector[s])] for s in range(N)]
            m = N + 2
            gamma = m * u / (1 - m * u)
            bound = (2 * (N - 1) * gamma + 16 * N * u) * chain([abs(b) for b in blocks])
            assert np.all(abs(chain(blocks) - c * np.eye(N)) <= bound + 16 * u * abs(c)), side


def on_curve_triple(qp):
    """Three semicyclic modules pairwise on the curve, and their R12, R13, R23 at
    x = (w^2, w, 1), w = exp(2 pi i / N), so every ratio z obeys z^N = 1."""
    lams = (LAM1, LAM2, 0.6 + 0.2j)
    reps = [semicyclic(on_curve_partner(0.7, LAM1, lam, qp), lam, qp) for lam in lams]
    w = cmath.exp(2j * cmath.pi / qp.N)
    xs = (w * w, w, 1.0)
    return [r_semicyclic(xs[a] / xs[b], reps[a], reps[b]).mat
            for a, b in ((0, 1), (0, 2), (1, 2))]


def dense_ybe(ops, dims):
    """R12 R13 R23 - R23 R13 R12 from dense embedded operators, and the products' scale."""
    E12, E13, E23 = (embed_two_site(M, dims, pos)
                     for M, pos in zip(ops, ((0, 1), (0, 2), (1, 2))))
    lhs, rhs = E12 @ E13 @ E23, E23 @ E13 @ E12
    return masked_max_abs(lhs - rhs), max(np.max(np.abs(lhs)), np.max(np.abs(rhs)))


class TestSemicyclicSectors:
    """The wrap entries F^N = alpha keep the total degree only mod N, so a
    semicyclic triple splits into N sectors of N^2 indices, not one."""

    @pytest.mark.parametrize("qp", [QP3, QP5], ids=["N'=3", "N'=5"])
    def test_ybe_runs_in_n_sectors_and_matches_dense(self, qp):
        N = qp.N
        dims = (N, N, N)
        ops = on_curve_triple(qp)
        sites = ((0, 1), (0, 2), (1, 2))
        sizes = [len(cols) for _, cols in weight_sectors(zip(ops, sites), dims, None)]
        assert sizes == [N * N] * N
        ref, scale = dense_ybe(ops, dims)
        assert ref <= 1e-12 * scale  # on the curve the triple solves Yang-Baxter
        assert abs(ybe_defect(*ops, dims) - ref) <= 1e-13 * scale

    def test_swapped_basis_takes_the_one_sector_path(self):
        qp = QP5
        N = qp.N
        dims = (N, N, N)
        p = np.array([1, 0, 2, 3, 4])  # v_0 <-> v_1 on the first factor: not graded mod N
        perm = (p[:, None] * N + np.arange(N)).reshape(-1)
        R12, R13, R23 = on_curve_triple(qp)
        ops = [R12[np.ix_(perm, perm)], R13[np.ix_(perm, perm)], R23]
        sectors = list(weight_sectors(zip(ops, ((0, 1), (0, 2), (1, 2))), dims, None))
        assert len(sectors) == 1 and len(sectors[0][1]) == N ** 3
        ref, scale = dense_ybe(ops, dims)
        assert abs(ybe_defect(*ops, dims) - ref) <= 1e-13 * scale


class TestBoltzmannExport:
    def setup_method(self):
        self.sc1, self.sc2 = on_curve_pair(QP3)
        self.spec = CurveSpec(1.0, LAM1, LAM2, self.sc1.params["alpha"],
                              self.sc2.params["alpha"], N=3)
        self.R = r_semicyclic(1.0, self.sc1, self.sc2)

    def test_round_trip_bit_exact(self):
        # each [i, j, i', j', [re, im]] row is scattered back to R[(i', j'), (i, j)]
        doc = json.loads(json.dumps(export_boltzmann(self.R, self.spec, QP3)))
        d1, d2 = doc["dims"]
        *index, pairs = zip(*doc["weights"])
        i, j, ip, jp = map(np.array, index)
        back = np.full((d1 * d2, d1 * d2), np.nan, dtype=complex)
        back[ip * d2 + jp, i * d2 + j] = np.array(pairs, float).view(complex)[:, 0]
        assert len(pairs) == back.size and back.tobytes() == self.R.mat.tobytes()

    def test_schema_validates(self):
        import importlib.resources as res
        import jsonschema
        schema = json.loads(
            res.files("uqsl2.schemas").joinpath("boltzmann.schema.json").read_text())
        jsonschema.validate(json.loads(json.dumps(export_boltzmann(self.R, self.spec, QP3))),
                            schema)

    def test_beta_residual_with_both_betas(self):
        # demo 04's cyclic pair, on the beta curve line as well
        import importlib.resources as res
        import jsonschema
        cy1, cy2 = on_curve_cyclic_pair(QP3)
        spec = replace(self.spec, beta1=cy1.params["beta"], beta2=cy2.params["beta"])
        doc = json.loads(json.dumps(export_boltzmann(self.R, spec, QP3)))
        jsonschema.validate(doc, json.loads(
            res.files("uqsl2.schemas").joinpath("boltzmann.schema.json").read_text()))
        assert doc["residuals"]["curve_beta"] < 1e-12
        assert doc["parameters"]["beta1"] == [0.3, 0.0]

    def test_normalization_field(self):
        doc = export_boltzmann(self.R, self.spec, QP3)
        assert complex(*doc["normalization"]) == self.R.mat[0, 0]
        assert doc["residuals"]["curve_alpha"] < 1e-12


class TestBiconditional:
    @pytest.mark.parametrize("qp", [QP3, QP5])
    def test_seeded_draws(self, qp):
        rng = np.random.default_rng(11)
        N = qp.N
        for _ in range(8):
            lam1 = complex(rng.uniform(0.1, 2.0), rng.uniform(-0.5, 0.5))
            lam2 = complex(rng.uniform(0.1, 2.0), rng.uniform(-0.5, 0.5))
            a1 = complex(rng.uniform(0.2, 1.0), rng.uniform(-0.3, 0.3))
            z = cmath.exp(2j * cmath.pi * int(rng.integers(0, N)) / N)
            a2 = on_curve_partner(a1, lam1, lam2, qp)
            sc1, sc2 = semicyclic(a1, lam1, qp), semicyclic(a2, lam2, qp)
            spec = CurveSpec(z, lam1, lam2, a1, a2, N=N)
            r1, r2 = curve_residual(spec, qp)
            resid = affine_intertwine_residual(z, sc1, sc2, R=r_semicyclic(z, sc1, sc2))
            assert max(r1, r2) < 1e-8 and resid < 1e-6
            # push off the curve and verify detection
            bad = semicyclic(a2 * 1.8 + 0.25, lam2, qp)
            spec_bad = CurveSpec(z, lam1, lam2, a1, a2 * 1.8 + 0.25, N=N)
            rb, _ = curve_residual(spec_bad, qp)
            resid_bad = affine_intertwine_residual(z, sc1, bad, R=r_semicyclic(z, sc1, bad))
            assert rb > 1e-2
            assert resid_bad > 1e-3


def test_unknown_curve_convention_is_refused():
    spec = CurveSpec(1.0, LAM1, LAM2, 0.7, on_curve_partner(0.7, LAM1, LAM2, QP3), N=QP3.N)
    with pytest.raises(ValueError, match="unknown curve convention 'x'"):
        curve_residual(spec, QP3, convention="x")
