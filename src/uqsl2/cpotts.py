"""Restriction of the spectral R-matrix to (semi)cyclic modules.

The N-dimensional semicyclic module is the quotient of the highest-weight
module by (F^N - alpha).  The spectral R-matrix descends to a pair of such
quotients exactly when the parameters lie on the integrability curve

    alpha_1 / (1 - L_1) = alpha_2 / (1 - L_2),     z^N = 1,

where L_i is the central value of K^N on module i, i.e. q^{N lam_i}
(curve_residual keeps the raw-power convention L_i = lam_i^N for
comparison).  The restricted operator is realized by evaluating the
spectral R-matrix on a depth-2N truncation, keeping its columns
v_j1 (x) v_j2 with j1, j2 < N, and folding their rows through the quotient
identification v_{i+N} = alpha v_i; folding the module matrices first does
not work, because the diagonal factor is graded by the unquotiented degree.

A nullspace solver recovers intertwiners of arbitrary module pairs
directly from the coproduct constraints; on cyclic modules it probes
the curve empirically.  The constraints preserve the charge
deg(i) - deg(j) of an unknown R[i, j], deg(m1, m2) = m1 + m2, exactly or,
on (semi)cyclic modules with their wrap entries, mod gcd(d1, d2)
(tensorop.grading_modulus), so the solver assembles and diagonalizes one
charge block at a time instead of the whole D^2 x D^2 system.  The K0
constraint certifies most blocks free of any nullspace without an
eigensolve: every K is diagonal, so its term of the Gram matrix is a
diagonal whose minimum over a block bounds the block's smallest eigenvalue
from below (Weyl).  One threshold, NULLSPACE_RATIO^2 times a bound on every
eigenvalue, certifies each block whose K0 minimum, read as the solve reaches
the block, clears it.  Every other block (charge 0, and any charge c with
q^2c = 1) is assembled from the generators' nonzero entries, and its zeros,
the eigenvalues at or below the threshold, are counted by the inertia of one
LDL^H factorization, a 2x2 pivot counting once; only a block that holds zeros
has their vectors found, by inverse iteration.  The smallest zero's vector is
the intertwiner; it must meet each constraint on that constraint's scale.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .qnum import QParam, RefusedInput
from .reps import Rep, truncated_verma
from .raffine import SpectralOverflow, _guard_overflow, affine_coproduct_images, r_spectral
from .tensorop import TensorOperator, cnum, grading_modulus, kron2, total_degree

SOLVABILITY_TOL = 1e-9  # fn_commutation_residual: solvable when |z^N - L1 L2| exceeds it
NULLSPACE_RATIO = 1e-7  # solve_intertwiner: eigenvalues below its square times U are zero


@dataclass(frozen=True)
class CurveSpec:
    """Parameter tuple of a (semi)cyclic module pair with its curve residuals."""

    z: complex
    lambda1: complex
    lambda2: complex
    alpha1: complex
    alpha2: complex
    beta1: complex | None = None
    beta2: complex | None = None
    N: int = 0

    def to_json(self) -> dict:
        def c(v):
            return None if v is None else cnum(v)

        return {
            "z": c(self.z), "lambda1": c(self.lambda1), "lambda2": c(self.lambda2),
            "alpha1": c(self.alpha1), "alpha2": c(self.alpha2),
            "beta1": c(self.beta1), "beta2": c(self.beta2), "N": self.N,
        }


class DegenerateCurve(RefusedInput, ValueError):
    """K^N takes the value 1 on a module, so a curve denominator 1 - L vanishes.

    ``module`` is 1 or 2, the first module of the pair where it happens."""

    def __init__(self, message, *, module=None):
        super().__init__(message)
        self.module = module


def _central_powers(lam1: complex, lam2: complex, qp: QParam, convention: str = "central"):
    """The central values L1, L2 of K^N on the two modules."""
    if convention == "central":
        L1, L2 = qp.qpow(qp.N * lam1), qp.qpow(qp.N * lam2)
    elif convention == "raw":
        L1, L2 = lam1 ** qp.N, lam2 ** qp.N
    else:
        raise ValueError(f"unknown curve convention {convention!r}")
    for module, (lam, L) in enumerate(((lam1, L1), (lam2, L2)), start=1):
        if abs(1 - L) < 1e-12:
            raise DegenerateCurve(f"degenerate curve denominator: K^N takes the value 1 on "
                                  f"module {module} (weight {lam})", module=module)
    return L1, L2


def curve_residual(spec: CurveSpec, qp: QParam, convention: str = "central") -> tuple:
    """Residuals (r1, r2[, r3]) of the integrability curve.

    r1 = |a1/(1-L1) - a2/(1-L2)|, r2 = |z^N - 1| and, when both beta's are
    given, r3 = |b1/(1-1/L1) - b2/(1-1/L2)|.
    """
    L1, L2 = _central_powers(spec.lambda1, spec.lambda2, qp, convention)
    r1 = abs(spec.alpha1 / (1 - L1) - spec.alpha2 / (1 - L2))
    r2 = _guard_overflow(spec.z, "|z^N - 1|", lambda: abs(spec.z ** qp.N - 1))
    if spec.beta1 is None or spec.beta2 is None:
        return (r1, r2)
    r3 = abs(spec.beta1 / (1 - 1 / L1) - spec.beta2 / (1 - 1 / L2))
    return (r1, r2, r3)


def on_curve_partner(alpha1: complex, lam1: complex, lam2: complex, qp: QParam) -> complex:
    """The alpha2 that puts (alpha1, lam1; alpha2, lam2) on the curve."""
    L1, L2 = _central_powers(lam1, lam2, qp)
    return alpha1 * (1 - L2) / (1 - L1)


def r_semicyclic(z: complex, sc1: Rep, sc2: Rep) -> TensorOperator:
    """Spectral R-matrix carried to the semicyclic quotient pair.

    Evaluates the normalized R(z) on depth-2N truncations of the parent
    highest-weight modules, keeps its columns v_j1 (x) v_j2 with j1, j2 < N
    (_parent_spectral) and folds their rows by v_{i+N} = alpha v_i (_fold).
    On the curve this is the intertwiner of the semicyclic pair; off the
    curve it is representative-dependent and fails the intertwining check,
    which is the detection contract.  A fold that leaves float64 (alpha1 alpha2
    near 1e308) raises SpectralOverflow naming both alphas.
    """
    if sc1.kind != "semicyclic" or sc2.kind != "semicyclic":
        raise ValueError("both modules must be semicyclic quotients")
    if sc1.qp != sc2.qp:
        raise ValueError("modules must share the deformation parameter")
    return _fold(z, _parent_spectral(z, sc1.lam, sc2.lam, sc1.qp), sc1, sc2)


def _parent_spectral(z: complex, lam1: complex, lam2: complex, qp: QParam) -> np.ndarray:
    """The columns v_j1 (x) v_j2, j1, j2 < N, of the normalized R(z) of the parent
    highest-weight pair truncated at depth 2N, shape (2, N, 2, N, N^2): row
    (b1, i1, b2, i2) is v_{b1 N + i1} (x) v_{b2 N + i2}.

    They depend on the weights and z alone, so every semicyclic pair with
    these weights folds the same columns, whatever its alphas."""
    N = qp.N
    R = r_spectral(z, truncated_verma(lam1, 2 * N, qp), truncated_verma(lam2, 2 * N, qp))
    return R.mat.reshape(2, N, 2, N, 2, N, 2, N)[..., 0, :, 0, :].reshape(2, N, 2, N, N * N)


def _fold(z: complex, Q: np.ndarray, sc1: Rep, sc2: Rep) -> TensorOperator:
    """Q of _parent_spectral folded to the pair: row (b1, i1, b2, i2) onto (i1, i2)
    times alpha1^b1 alpha2^b2; SpectralOverflow when that leaves float64."""
    N = sc1.qp.N
    a1, a2 = sc1.params["alpha"], sc2.params["alpha"]
    with np.errstate(all="ignore"):
        mat = Q[0, :, 0] + a2 * Q[0, :, 1] + a1 * Q[1, :, 0] + a1 * a2 * Q[1, :, 1]
    if not np.isfinite(mat).all():
        raise SpectralOverflow(f"non-finite restricted R-matrix at alpha1={a1}, alpha2={a2}, "
                               f"z={z}", z=z)
    return TensorOperator((N, N), mat.reshape(N * N, N * N))


def fn_commutation_residual(z: complex, sc1: Rep, sc2: Rep, R: TensorOperator) -> dict:
    """Residuals of the two exchange relations between R and the N-th power of F.

    rel1: R (L2 F^N (x) 1 + 1 (x) F^N) = (L1 1 (x) F^N + F^N (x) 1) R
    rel2: R (z^N F^N (x) 1 + L1 1 (x) F^N) = (1 (x) F^N + z^N L2 F^N (x) 1) R,
    the relation in x^N and y^N at x = z, y = 1: it depends on x/y = z alone.

    Also reports whether z^N differs from L1 L2, the solvability condition
    for expressing the mixed products one way around the other.
    """
    qp = sc1.qp
    N = qp.N
    L1, L2 = _central_powers(sc1.lam, sc2.lam, qp)
    I1 = np.eye(sc1.dim, dtype=complex)
    I2 = np.eye(sc2.dim, dtype=complex)
    F1N = np.linalg.matrix_power(sc1.F, N)
    F2N = np.linalg.matrix_power(sc2.F, N)
    A = kron2(F1N, I2)
    B = kron2(I1, F2N)
    zN = z**N
    rel1 = R.mat @ (L2 * A + B) - (L1 * B + A) @ R.mat
    rel2 = R.mat @ (zN * A + L1 * B) - (B + zN * L2 * A) @ R.mat
    return {
        "ideal_exchange": float(np.max(np.abs(rel1))),
        "spectral_exchange": float(np.max(np.abs(rel2))),
        "solvable": bool(abs(zN - L1 * L2) > SOLVABILITY_TOL),
    }


class UnresolvedConstraints(RefusedInput, ValueError):
    """The nullspace threshold cannot resolve the constraints at this z.

    The affine images E1 = z F and F1 = E / z make the Gram matrix span about
    max(|z|, 1/|z|)^2, while E0, F0 and K0 stay at unit scale.  A zero below
    the threshold is refused when it lies in a charge block whose K0 minimum
    is positive (Weyl), or when the kept vector misses a constraint on that
    constraint's own scale."""


def _nonzeros(M: np.ndarray) -> tuple:
    """Row indices, column indices and values of the nonzero entries of M."""
    i, j = np.nonzero(M)
    return i, j, M[i, j]


def _nonpositive_pivots(ldu: np.ndarray, ipiv: np.ndarray) -> int:
    """The number of eigenvalues <= 0 of the block-diagonal D of a lower LAPACK
    hetrf factorization: a 1x1 pivot counts by its sign, a 2x2 pivot once.

    Bunch-Kaufman pivoting takes the 2x2 pivot [[a, b], [conj(b), c]] (ipiv < 0
    on both its rows) only when |a| r < alpha m^2 and |c| < alpha r, where
    alpha = (1 + sqrt(17)) / 8, m = cabs1(b) = |Re b| + |Im b| is the column
    maximum and r >= m the row maximum.  So |a c| < alpha^2 m^2 < m^2 / 2 <=
    |b|^2: the determinant is negative, one eigenvalue below 0 and one above.
    """
    d = ldu.diagonal().real
    return int((d[ipiv > 0] <= 0).sum()) + int((ipiv < 0).sum()) // 2


def _block_zeros(gram: np.ndarray, threshold: float) -> tuple:
    """The eigenpairs (w, v) of the Hermitian block at or below threshold, as
    scipy.linalg.eigh(gram, subset_by_value=(-inf, threshold)) gives them.

    Their number k is the inertia of gram - threshold I (Sylvester's law), read
    off the pivots of its LDL^H factorization (LAPACK hetrf, lower triangle).
    For k > 0, k fixed start vectors take two steps of inverse iteration with
    the Cholesky factor of gram + threshold I, a shift below the spectrum (one
    at the threshold would converge to the eigenvalue nearest it, maybe just
    above); Gram-Schmidt and Rayleigh-Ritz on gram then give the pairs.  Each
    step shrinks an eigenvalue lambda's share by 2 threshold / (lambda +
    threshold).  gram is never written: each factorization overwrites its own
    shifted copy, dropped before the next is made; a failed one raises LinAlgError.
    """
    from scipy.linalg import lapack  # the package's one scipy import: only a solve loads scipy
    n = len(gram)

    def shifted(op):  # a Fortran-order copy of gram, its diagonal x made op(x, threshold)
        a = np.array(gram, order="F")
        a[np.diag_indices(n)] = op(gram.diagonal(), threshold)
        return a

    ldu, ipiv, info = lapack.zhetrf(shifted(np.subtract), lower=1, lwork=64 * n, overwrite_a=1)
    if info < 0:
        raise np.linalg.LinAlgError(f"hetrf argument {-info} is invalid")
    k = _nonpositive_pivots(ldu, ipiv)
    del ldu
    if k == 0:
        return np.zeros(0), np.zeros((n, 0), dtype=complex)
    chol, info = lapack.zpotrf(shifted(np.add), lower=1, clean=0, overwrite_a=1)
    if info:
        raise np.linalg.LinAlgError("the shifted block is not positive definite")
    v = np.random.default_rng(0).standard_normal((n, k)).astype(complex)
    for _ in range(2):
        v = lapack.zpotrs(chol, v, lower=1)[0]
        v /= abs(v).max(axis=0)  # largest entry 1: no norm below over- or underflows
    del chol
    # Gram-Schmidt, twice: at k = 1 the loop only normalizes; for k > 1 (the doubled module has
    # 4 zeros) the second classical pass restores the orthogonality the first loses to cancellation
    for c in range(k):
        for _ in range(2):
            v[:, c] -= v[:, :c] @ (v[:, :c].conj().T @ v[:, c])
        v[:, c] /= np.linalg.norm(v[:, c])
    w, s = np.linalg.eigh(v.conj().T @ (gram @ v))
    return w, v @ s


def solve_intertwiner(rep1: Rep, rep2: Rep, z: complex) -> tuple:
    """Nullspace solve of R D(a) = D'(a) R over the affine images on V1(z) (x) V2(1).

    The constraints for a in {E0, F0, E1, F1, K0} are collected in the Gram
    matrix G = sum_a A_a^H A_a of L(R) = R L_a - R_a R.  Unknown R[i, j] has
    charge deg(i) - deg(j), taken mod g when tensorop.grading_modulus finds
    the modules' E (shift -1), F (+1) and K (0) graded only mod
    g = gcd(d1, d2), and 0 for every unknown when they are not graded.
    Every image is homogeneous, so G is exactly block-diagonal with one block
    per charge (g blocks of N^3 unknowns for a pair of N-dimensional
    (semi)cyclic modules).  Each block is assembled from D x D matrices, X
    from the nonzero entries of the images and the Kronecker-delta terms through
    the table of each unknown's block position,

        G[(i,j),(i',j')] = d_ii' P[j,j'] + Q[i,i'] d_jj' - X - X^H,
        X = sum_a R_a[i,i'] conj(L_a)[j,j'],
        P = sum_a conj(L_a) L_a^T,   Q = sum_a R_a^H R_a.

    Certificate.  Every Rep's K is diagonal, so the K0 term of G is the
    diagonal |kl[j] - kr[i]|^2 (kl, kr the K0 images), one PSD summand, so by
    Weyl's inequality its minimum over a block bounds the block's smallest
    eigenvalue from below; U = sum_a (|L_a|_F + |R_a|_F)^2 bounds the largest
    eigenvalue of G from above.  The loop over charges reads each block's K0
    minimum as it reaches the block; a block whose minimum exceeds
    NULLSPACE_RATIO^2 U holds no nullspace and is neither assembled nor
    diagonalized (every charge c with q^2c != 1 on a (semi)cyclic pair).

    Zeros.  Every other block is one call of _block_zeros for its eigenpairs
    at or below the same threshold NULLSPACE_RATIO^2 U, each a zero: their
    number is the inertia of the block minus the threshold (LAPACK hetrf, a
    2x2 pivot counting once), and their vectors, when there are any, come from
    inverse iteration with the Cholesky factor of the block plus the
    threshold.  A factorization that fails raises UnresolvedConstraints.
    A zero in a block whose K0 minimum is positive on K0's own scale (above
    NULLSPACE_RATIO^2 times the largest K0 entry) is spurious by the bound:
    the threshold cannot resolve the constraints at this z (in practice |z|
    far below 1) and UnresolvedConstraints is raised.  The kept unit vector
    R, the smallest zero's eigenvector in the first block holding it, must
    meet each constraint on its own scale,
    |R L_a - R_a R|_F <= NULLSPACE_RATIO (|L_a|_F + |R_a|_F), else
    UnresolvedConstraints is raised: that catches spurious zeros in charge 0,
    where K0 gives no bound.
    Returns (R, nullspace_dim), R the eigenvector normalized so its largest
    entry is 1, or (None, 0) when no intertwiner exists.
    """
    if rep1.qp != rep2.qp:
        raise ValueError("modules must share the deformation parameter")
    D = rep1.dim * rep2.dim
    left, right = affine_coproduct_images(rep1, rep2, z)
    names = ("E0", "F0", "E1", "F1", "K0")
    conj_left = {a: left[a].conj() for a in names}
    P, Q = _guard_overflow(z, "the intertwiner constraints", lambda: (
        sum(conj_left[a] @ left[a].T for a in names),
        sum(right[a].conj().T @ right[a] for a in names)))
    scale = _guard_overflow(z, "the Gram bound", lambda: np.array(
        [np.linalg.norm(left[a]) + np.linalg.norm(right[a]) for a in names]))
    U = _guard_overflow(z, "the Gram bound", lambda: sum(s**2 for s in scale))
    g = grading_modulus([(M, np.arange(rep.dim), s) for rep in (rep1, rep2)
                         for M, s in ((rep.E, -1), (rep.F, 1), (rep.K, 0))], (rep1.dim, rep2.dim))
    deg = total_degree((rep1.dim, rep2.dim))
    diff = np.subtract.outer(deg, deg)
    charge = diff % g if g else diff

    floor = NULLSPACE_RATIO**2
    threshold = floor * U  # an eigenvalue below it counts as zero
    kl, kr = np.diagonal(left["K0"]), np.diagonal(right["K0"])
    k0 = np.abs(np.subtract.outer(kr, kl)) ** 2  # [i, j]: the K0 term of unknown R[i, j]
    k0_floor = floor * k0.max()  # a K0 minimum above it is nonzero on K0's own scale

    nonzeros = [(_nonzeros(right[a]), _nonzeros(conj_left[a])) for a in names]

    def block(rows, cols):
        """The Gram block of the unknowns R[rows, cols], one charge's.

        X adds each product of nonzeros R_a[i,i'] conj(L_a)[j,j'] whose unknowns
        (i, j) and (i', j') both lie in the block once, at the block positions
        in place; the delta terms are read through the same positions, P onto the
        unknowns in unknown k's row, then Q onto those in its column.
        """
        n = len(rows)
        place = np.full((D, D), -1)  # the block position of unknown R[i, j], or -1
        place[rows, cols] = np.arange(n)
        X = np.zeros((n, n), dtype=complex)
        for (i, i2, r), (j, j2, s) in nonzeros:  # from zero, in generator order
            k, l = place[i[:, None], j], place[i2[:, None], j2]
            u, v = np.nonzero((k >= 0) & (l >= 0))
            X[k[u, v], l[u, v]] += r[u] * s[v]
        gram = np.zeros((n, n), dtype=complex)
        k, j = np.nonzero(place[rows] >= 0)  # unknown (rows[k], j) is in the block
        gram[k, place[rows[k], j]] = P[cols[k], j]
        i, k = np.nonzero(place[:, cols] >= 0)  # unknown (i, cols[k]) is in the block
        gram[k, place[i, cols[k]]] += Q[rows[k], i]
        gram -= X
        gram -= np.conjugate(X, out=X).T
        return gram

    # the module parameters a refusal names next to z
    modules = "".join(f", {k}{i}={rep.params[k]}" for i, rep in ((1, rep1), (2, rep2))
                      for k in ("alpha", "beta") if k in rep.params)

    dim, best = 0, None
    for c in np.unique(charge):
        rows, cols = np.nonzero(charge == c)
        kmin = k0[rows, cols].min()
        if kmin > threshold:  # certified; charge 0 never is (kmin 0 at i = j)
            continue
        gram = block(rows, cols)
        try:
            w, v = _block_zeros(gram, threshold)
        except np.linalg.LinAlgError as exc:
            raise UnresolvedConstraints(f"the nullspace threshold cannot resolve the constraints "
                                        f"at z={z}{modules}: {exc}", z=z) from None
        del gram
        if len(w) and kmin > k0_floor:
            raise UnresolvedConstraints(
                f"the nullspace threshold cannot resolve the K0 constraint at z={z}{modules}: "
                f"an eigenvalue below {threshold:.3g} lies in a charge block whose K0 minimum "
                f"is positive", z=z)
        dim += len(w)
        if len(w) and (best is None or w[0] < best[0]):  # the first block holding the smallest
            best = w[0], rows, cols, v[:, 0]
    if dim == 0:
        return None, 0
    _, rows, cols, vector = best
    R = np.zeros((D, D), dtype=complex)
    R[rows, cols] = vector
    for a, s in zip(names, scale):  # R is a unit vector here
        miss = np.linalg.norm(R @ left[a] - right[a] @ R)
        if not miss <= NULLSPACE_RATIO * s:
            raise UnresolvedConstraints(
                f"the nullspace threshold cannot resolve the constraints at z={z}{modules}: "
                f"the kept vector misses the {a} constraint by {miss / s:.3g} of its scale", z=z)
    # normalize by the first entry within 1e-9 of the largest modulus, so
    # rounding cannot choose between entries of equal modulus
    mag = np.abs(R)
    k = int(np.argmax(mag >= (1 - 1e-9) * mag.max()))
    R = R / R.flat[k]
    return TensorOperator((rep1.dim, rep2.dim), R), dim


def export_boltzmann(R: TensorOperator, meta: CurveSpec, qp: QParam) -> dict:
    """Weight table of the restricted R-matrix with curve metadata.

    Entries are listed as [i, j, i', j', [re, im]] in row-major order; the
    normalization field records the eigenvalue on v_0 (x) v_0.
    """
    d1, d2 = R.dims
    res = curve_residual(meta, qp)
    residuals = {"curve_alpha": res[0], "unimodularity": res[1]}
    if len(res) > 2:
        residuals["curve_beta"] = res[2]
    # row ip*d2 + jp, column i*d2 + j: R.mat in row-major order is (ip, jp, i, j) order
    ip, jp, i, j = np.indices((d1, d2, d1, d2)).reshape(4, -1).tolist()
    weights = [[*k, cnum(v)] for *k, v in zip(i, j, ip, jp, R.mat.reshape(-1).tolist())]
    return {
        "schema_version": "1",
        "nprime": qp.nprime,
        "N": qp.N,
        "dims": [d1, d2],
        "parameters": meta.to_json(),
        "residuals": residuals,
        "normalization": cnum(R.mat[0, 0]),
        "weights": weights,
    }
