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
eigenvalue, certifies each block whose K0 minimum clears it.

On a pair of N-dimensional modules graded mod N each image maps one weight
sector into one other, so the solver first reads only stacks of the images'
N x N sector blocks: the Gram sums, block-diagonal over the sectors, the
norms and the K0 minima come from them with no D x D product.  When the K0
constraint leaves only charge 0, and F0's sector blocks are invertible and
well conditioned, the charge-0 block's N^3 unknowns are cut to N^2 by a
transfer over the N weight sectors: R commutes with K (x) K, so it is
block-diagonal over them, and F0's constraint carries R's block on one
sector to the next.  The remaining constraints then form a pencil (G0, M0),
the Gram and the norm of R on the transfer's N^2 unknowns, whose eigenvalues
interlace the block's from above, so it counts no zero the block would
reject.  Where the transfer declines or does not apply, the D x D quantities
are formed and each block the K0 constraint leaves (charge 0 of the other
pairs and of declined ones, and any charge c with q^2c = 1) is assembled
from the generators' nonzero entries.  The zeros, the eigenvalues at or below
the threshold, are counted by the inertia of one LDL^H factorization, a 2x2
pivot counting once; only a block or pencil that holds zeros has their vectors
found, by inverse iteration.  The smallest zero's vector is the intertwiner;
it must meet each constraint on that constraint's scale.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .qnum import QParam, RefusedInput
from .reps import Rep, truncated_verma
from .raffine import SpectralOverflow, _guard_overflow, affine_coproduct_images, r_spectral
from .tensorop import TensorOperator, cnum, grading_modulus, kron2, total_degree

SOLVABILITY_TOL = 1e-9  # fn_commutation_residual: solvable when |z^N - L1 L2| exceeds it
NULLSPACE_RATIO = 1e-7  # solve_intertwiner: eigenvalues below its square times U are zero
# solve_intertwiner's sector transfer: it takes F0 sector blocks of a 1-norm condition number
# below TRANSFER_COND, and a pencil whose zero count is the same at these multiples of the threshold
TRANSFER_COND = 300.0
TRANSFER_BAND = (0.1, 100.0)


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


def _start_vectors(n: int, k: int) -> np.ndarray:
    """k fixed start vectors of length n, built by a formula and no generator: column c
    holds frac(m^2 phi) - 1/2 for m = c n + 1 .. c n + n, phi the golden ratio.  The
    quadratic Weyl sequence is equidistributed in [-1/2, 1/2) and, unlike the linear
    one, whose columns differ by steps, leaves no k of them near a common subspace."""
    m = np.arange(1, n * k + 1, dtype=float)
    return (np.modf(m * m * 0.6180339887498949)[0] - 0.5).reshape(k, n).T.astype(complex)


def _shifted(gram: np.ndarray, threshold: float, metric, op) -> np.ndarray:
    """A Fortran-order copy of gram made op(gram, threshold M), M the metric or the identity.
    With the identity only the diagonal is written, so no off-diagonal zero changes its sign."""
    a = np.array(gram, order="F")
    if metric is None:
        a[np.diag_indices(len(a))] = op(gram.diagonal(), threshold)
    else:
        op(a, threshold * metric, out=a)
    return a


def _zeros_count(gram: np.ndarray, threshold: float, metric: np.ndarray | None = None) -> int:
    """The number of eigenvalues of the Hermitian block, or of the pencil (gram, metric)
    for a positive definite metric M, at or below threshold: the inertia of
    gram - threshold M (Sylvester's law: with M = L L^H it is congruent to
    L^-1 gram L^-H - threshold I), read off the pivots of its LDL^H factorization
    (LAPACK hetrf, lower triangle), which overwrites its own shifted copy."""
    from scipy.linalg import lapack  # here and in _block_zeros alone: only a solve loads scipy
    ldu, ipiv, info = lapack.zhetrf(_shifted(gram, threshold, metric, np.subtract), lower=1,
                                    lwork=64 * len(gram), overwrite_a=1)
    if info < 0:
        raise np.linalg.LinAlgError(f"hetrf argument {-info} is invalid")
    return _nonpositive_pivots(ldu, ipiv)


def _block_zeros(gram: np.ndarray, threshold: float, metric: np.ndarray | None = None, *,
                 count: int | None = None) -> tuple:
    """The eigenpairs (w, v) of the Hermitian block at or below threshold, as
    scipy.linalg.eigh(gram, metric, subset_by_value=(-inf, threshold)) gives them:
    given the positive definite metric M, those of the pencil gram v = w M v, with
    v M-orthonormal; without it M is the identity.

    Their number k is _zeros_count's, or count when the caller has it already.
    For k > 0, k fixed start vectors (_start_vectors) take two steps of inverse iteration
    v <- (gram + threshold M)^-1 M v with the Cholesky factor of
    gram + threshold M, a shift below the spectrum (one at the threshold would
    converge to the eigenvalue nearest it, maybe just above); Gram-Schmidt in
    the M inner product and Rayleigh-Ritz on gram then give the pairs.  Each
    step shrinks an eigenvalue lambda's share by 2 threshold / (lambda +
    threshold).  gram is never written: each factorization overwrites its own
    shifted copy, dropped before the next is made; a failed one raises LinAlgError.
    """
    from scipy.linalg import lapack
    n = len(gram)

    def times_metric(x):
        return x if metric is None else metric @ x

    k = _zeros_count(gram, threshold, metric) if count is None else count
    if k == 0:
        return np.zeros(0), np.zeros((n, 0), dtype=complex)
    chol, info = lapack.zpotrf(_shifted(gram, threshold, metric, np.add), lower=1, clean=0,
                               overwrite_a=1)
    if info:
        raise np.linalg.LinAlgError("the shifted block is not positive definite")
    v = _start_vectors(n, k)
    for _ in range(2):
        v = lapack.zpotrs(chol, times_metric(v), lower=1)[0]
        v /= abs(v).max(axis=0)  # largest entry 1: no norm below over- or underflows
    del chol
    # Gram-Schmidt, twice: at k = 1 the loop only normalizes; for k > 1 (the doubled module has
    # 4 zeros) the second classical pass restores the orthogonality the first loses to cancellation
    for c in range(k):
        for _ in range(2):
            v[:, c] -= v[:, :c] @ (v[:, :c].conj().T @ times_metric(v[:, c]))
        v[:, c] /= np.sqrt(np.vdot(v[:, c], times_metric(v[:, c])).real)
    w, s = np.linalg.eigh(v.conj().T @ (gram @ v))
    return w, v @ s


_GENERATORS = ("E0", "F0", "E1", "F1", "K0")
_SHIFTS = np.array([-1, 1, 1, -1, 0])  # the degree shifts of E0, F0, E1, F1 and K0


def _kron_sum(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """sum_k A[k] (x) B[k] for stacks of n x n matrices, as one (n^2, K) @ (K, n^2) product:
    entry ((i, j), (i', j')) is sum_k A[k][i, i'] B[k][j, j']."""
    K, n, _ = A.shape
    out = A.reshape(K, n * n).T @ B.reshape(K, n * n)  # [(i, i'), (j, j')]
    return out.reshape(n, n, n, n).transpose(0, 2, 1, 3).reshape(n * n, n * n)


@functools.cache
def _sector_plan(N: int) -> tuple:
    """The index side of the sector transfer, which depends on N alone: (gather, shift, t,
    src, unknowns).  Sector S_s of an N x N pair holds the flat indices (p, s - p mod N), by
    p.  gather[a, s, p, p'] is the flat index of entry [S_t[p], S_s[p']] of image a, where
    t = t[a, s] = s + shift_a mod N is the sector image a maps S_s into; src[a, s] =
    s - shift_a mod N is the sector it maps into S_s; shift[c, s] = s + c mod N; unknowns
    holds the flat positions of the charge-0 unknowns R[S_s[p], S_s[p']] in (s, p, p') order."""
    s = np.arange(N)
    idx = (s[:, None] - s) % N + s * N  # idx[t, p]: the flat index (p, t - p) of S_t's p-th vector
    shift = (s[:, None] + s) % N
    t, src = shift[_SHIFTS % N], shift[-_SHIFTS % N]
    plan = (idx[t][..., None] * (N * N) + idx[:, None, :], shift, t, src,
            (idx[:, :, None] * (N * N) + idx[:, None, :]).ravel())
    for a in plan:  # every caller shares the cached arrays
        a.setflags(write=False)
    return plan


def _sector_stacks(left: dict, right: dict, N: int):
    """What the transfer reads of the images of two N-dimensional modules graded mod N,
    from their N x N sector blocks alone: (L, R, P, Q, scale, U, kmin), or None when a value
    is not finite.  L[a, s] is left image a [S_t, S_s] (_sector_plan), R[a, s] the right one.

    Each image maps S_s into S_t and holds no entry elsewhere, so the D x D quantities of
    solve_intertwiner come from these blocks: P and Q are block-diagonal over the sectors,
    P_s = sum_a conj(L_a[S_s, S_u]) L_a[S_s, S_u]^T with u = s - shift_a, and
    Q_s = sum_a R[a, s]^H R[a, s]; scale[a] = |L_a|_F + |R_a|_F and U = sum_a scale[a]^2
    read every nonzero entry; kmin[c], the K0 minimum of charge c, is the least
    |kr[i] - kl[j]|^2 over i in S_{s+c} and j in S_s, from the diagonals of the K0 blocks."""
    gather, shift, _, src, _ = _sector_plan(N)
    L, R = (np.stack([images[a].take(g) for a, g in zip(_GENERATORS, gather)])
            for images in (left, right))
    Lu = L[np.arange(5)[:, None], src].transpose(1, 2, 0, 3).reshape(N, N, 5 * N)
    Rt = R.transpose(1, 0, 2, 3).reshape(N, 5 * N, N)  # [s]: the blocks R_a[S_t, S_s] stacked
    P = Lu.conj() @ Lu.swapaxes(1, 2)  # [s]: Lu[s] holds the blocks L_a[S_s, S_u] side by side
    Q = Rt.conj().swapaxes(1, 2) @ Rt
    scale = np.linalg.norm(L.reshape(5, -1), axis=1) + np.linalg.norm(R.reshape(5, -1), axis=1)
    U = sum(scale**2)
    kl, kr = (np.diagonal(M[4], axis1=1, axis2=2) for M in (L, R))  # [s, p]: K0 on S_s
    kmin = (abs(kr[shift][..., None] - kl[:, None, :]) ** 2).min(axis=(1, 2, 3))
    if not all(np.isfinite(x).all() for x in (L, R, P, Q, U)):
        return None
    return L, R, P, Q, scale, U, kmin


def _sector_misses(X: np.ndarray, L: np.ndarray, R: np.ndarray, N: int) -> np.ndarray:
    """|R L_a - R_a R|_F of each generator a, for the charge-0 R whose sector blocks are X[s],
    from the stacks of _sector_stacks: the root of the sum over s of
    |X[t] L[a, s] - R[a, s] X[s]|_F^2, t = s + shift_a, since no other block is nonzero."""
    t = _sector_plan(N)[2]
    return np.linalg.norm((X[t] @ L - R @ X).reshape(5, -1), axis=1)


def _sector_transfer(left: dict, right: dict, N: int):
    """The charge-0 intertwiner of two N-dimensional modules graded mod N, in N^2 unknowns:
    (R, dim), R the unit vector before solve_intertwiner normalizes it (None at dim 0), or
    None to leave the pair to the charge blocks.  It reads _sector_stacks alone.

    A charge-0 R is block-diagonal over the sectors, R_s = R[S_s, S_s], and F0's
    constraint there reads R_{s+1} A_s = B_s R_s, A_s = L[F0, s] and B_s = R[F0, s].  With
    every A_s invertible, R_s = T_s X W_s, T_0 = W_0 = 1, T_{s+1} = B_s T_s,
    W_{s+1} = W_s A_s^-1, and each constraint block (R L_a - R_a R)[S_t, S_s] is
    T_t X W_t L - R T_s X W_s (L, R the blocks L[a, s], R[a, s]).  So for row-major
    x = vec X, with J the map from x to R, the Gram J^H G J of solve_intertwiner's
    charge-0 block is a sum of Kronecker products,

        G0 = sum_s (T_s^H T_s) (x) (conj(W_s) P_s W_s^T) + (T_s^H Q_s T_s) (x) (conj(W_s) W_s^T)
             - Y - Y^H,   Y = sum_(a,s) (T_t^H R T_s) (x) (conj(W_t L) W_s^T),

    and J^H J = M0 = sum_s (T_s^H T_s) (x) (conj(W_s) W_s^T).  The pencil's zeros, at or
    below the threshold NULLSPACE_RATIO^2 U, are counted at the multiples TRANSFER_BAND of
    it: with M0 positive definite the count grows with the shift, so two equal counts are
    also the count at the threshold, which _block_zeros takes as given.  The smallest zero's
    x gives every R_s, and the kept vector's misses come from them (_sector_misses).

    Returns None when a value is not finite; when a charge other than 0 is not certified by
    its K0 minimum, or NULLSPACE_RATIO U exceeds F0's squared scale (the transfer meets F0
    exactly, while the block's count lets a vector miss it by NULLSPACE_RATIO sqrt(U), which
    outgrows F0's scale as |z| leaves 1: the block's kept vector misses F0 from U ~ 6e10
    F0's squared scale at N' = 9, 4e12 at N' = 3, so the block must decide there); when an
    A_s is singular or has a 1-norm condition number of TRANSFER_COND or more; when the two
    counts differ; when the pencil's factorization fails; and when the lifted R misses a
    constraint on its scale, NULLSPACE_RATIO scale[a].  The condition number and the band
    guard against the transfer's rounding: G0 is a sum of terms as large as
    |T_s|^2 |W_s|^2 U, and where the intertwiner does not grow with them (an A_s near
    singular, at small alpha) their rounding moves its eigenvalue from 0 by up to a few times
    the threshold (measured on semicyclic pairs at N' = 3 .. 9: up to 2.4 times for
    condition numbers below 300, 48 times below 1e3, 215 times below 3e3).
    """
    stacks = _sector_stacks(left, right, N)
    if stacks is None:
        return None
    L, R, P, Q, scale, U, kmin = stacks
    threshold = NULLSPACE_RATIO**2 * U
    if not (kmin[0] <= threshold and (kmin[1:] > threshold).all()
            and NULLSPACE_RATIO * U <= scale[1]**2):
        return None
    A, B = L[1], R[1]
    try:
        Ainv = np.linalg.inv(A)
    except np.linalg.LinAlgError:  # an exactly singular A_s
        return None
    cond = abs(A).sum(axis=1).max(axis=1) * abs(Ainv).sum(axis=1).max(axis=1)
    if not (cond < TRANSFER_COND).all():
        return None
    T, W = np.empty((2, N, N, N), dtype=complex)
    T[0] = W[0] = np.eye(N)
    for k in range(1, N):
        T[k] = B[k - 1] @ T[k - 1]
        W[k] = W[k - 1] @ Ainv[k - 1]
    _, _, t, _, unknowns = _sector_plan(N)
    TH, Wc, WT = T.conj().swapaxes(1, 2), W.conj(), W.swapaxes(1, 2)
    TT, WW = TH @ T, Wc @ WT
    Y = (TH[t] @ R @ T).reshape(-1, N, N), (Wc[t] @ L.conj() @ WT).reshape(-1, N, N)
    YH = [y.conj().swapaxes(1, 2) for y in Y]
    gram = _kron_sum(np.concatenate([TT, TH @ Q @ T, -Y[0], -YH[0]]),
                     np.concatenate([Wc @ P @ WT, WW, Y[1], YH[1]]))
    metric = _kron_sum(TT, WW)
    if not (np.isfinite(gram).all() and np.isfinite(metric).all()):
        return None
    low, high = (_zeros_count(gram, f * threshold, metric) for f in TRANSFER_BAND)
    if low != high:
        return None
    try:
        w, v = _block_zeros(gram, threshold, metric, count=low)
    except np.linalg.LinAlgError:
        return None
    if not len(w):
        return None, 0
    X = T @ v[:, 0].reshape(N, N) @ W  # [s]: R_s
    if not (_sector_misses(X, L, R, N) <= NULLSPACE_RATIO * scale).all():
        return None
    out = np.zeros(N**4, dtype=complex)
    out[unknowns] = X.ravel()
    return out.reshape(N * N, N * N), len(w)


def solve_intertwiner(rep1: Rep, rep2: Rep, z: complex) -> tuple:
    """Nullspace solve of R D(a) = D'(a) R over the affine images on V1(z) (x) V2(1).

    The constraints for a in {E0, F0, E1, F1, K0} are collected in the Gram
    matrix G = sum_a A_a^H A_a of L(R) = R L_a - R_a R.  Unknown R[i, j] has
    charge deg(i) - deg(j), taken mod g when tensorop.grading_modulus finds
    the modules' E (shift -1), F (+1) and K (0) graded only mod
    g = gcd(d1, d2), and 0 for every unknown when they are not graded.
    Every image is homogeneous, so G is exactly block-diagonal with one block
    per charge (g blocks of N^3 unknowns for a pair of N-dimensional
    (semi)cyclic modules).  A block is assembled from D x D matrices, X
    from the nonzero entries of the images and the Kronecker-delta terms through
    the table of each unknown's block position,

        G[(i,j),(i',j')] = d_ii' P[j,j'] + Q[i,i'] d_jj' - X - X^H,
        X = sum_a R_a[i,i'] conj(L_a)[j,j'],
        P = sum_a conj(L_a) L_a^T,   Q = sum_a R_a^H R_a.

    Certificate.  Every Rep's K is diagonal, so the K0 term of G is the
    diagonal |kl[j] - kr[i]|^2 (kl, kr the K0 images), one PSD summand, so by
    Weyl's inequality its minimum over a block bounds the block's smallest
    eigenvalue from below; U = sum_a (|L_a|_F + |R_a|_F)^2 bounds the largest
    eigenvalue of G from above.  A block whose K0 minimum exceeds
    NULLSPACE_RATIO^2 U holds no nullspace and is neither assembled nor
    diagonalized (every charge c with q^2c != 1 on a (semi)cyclic pair).

    Paths.  When both modules are N-dimensional and graded mod N, the sector
    transfer (_sector_transfer) is tried first, and it reads no D x D
    product.  Sector S_s holds the flat indices of degree s mod N; each image
    maps S_s into S_(s + its shift) and has no other nonzero entry.  So P and
    Q are block-diagonal over the sectors, and each block P_s, Q_s, as well as
    scale, U and each charge's K0 minimum, is summed from the same nonzero
    entries in (5, N, N, N) stacks of the images' sector blocks
    (_sector_stacks), as is the kept vector's miss of each constraint
    (_sector_misses); only the order of the sums differs.  The transfer
    answers when the certificate clears every charge but 0, U is at most F0's
    squared scale over NULLSPACE_RATIO (|z| within a few decades of 1), and
    every F0 sector block A_s is invertible with a 1-norm condition number
    below TRANSFER_COND: the (semi)cyclic pairs the sweep solves.  It writes
    every charge-0 R as J x, x the N^2 entries of R's block on sector 0, and
    solves the pencil G0 x = mu M0 x, G0 = J^H G J and M0 = J^H J assembled
    from Kronecker products of N x N matrices.  Its eigenvalues are the
    Rayleigh quotients of G on the range of J, which holds every intertwiner,
    so by interlacing (Courant-Fischer) mu_k >= lambda_k, the k-th eigenvalue
    of the charge-0 block: in exact arithmetic the transfer counts every
    exact zero and never one that the block would reject.  Its rounding is
    larger than the block's, so the block decides whenever the pencil holds
    an eigenvalue within TRANSFER_BAND of the threshold, its factorization
    fails, or the lifted vector misses a constraint on its scale.  The
    transfer never refuses: a non-finite value declines it too.  Every
    declined pair, and every other pair (an exact grading, at alpha = 0; no
    grading; modules of other dimensions; |z| far from 1; an A_s singular or
    ill-conditioned, as at small alpha and at alpha = 1e200), takes the D x D
    path: P, Q, scale and U from the full images, then each block the
    certificate leaves, assembled as above, with the refusals below.

    Zeros.  Each uncertified block, or the charge-0 pencil, is one call of
    _block_zeros for its eigenpairs at or below the same threshold
    NULLSPACE_RATIO^2 U, each a zero: their number is the inertia of the block
    minus the threshold times the metric (M0, or the identity; LAPACK hetrf, a
    2x2 pivot counting once), and their vectors, when there are any, come from
    inverse iteration with the Cholesky factor of the block plus the
    threshold times the metric.  A block factorization that fails raises
    UnresolvedConstraints.
    A zero in a block whose K0 minimum is positive on K0's own scale (above
    NULLSPACE_RATIO^2 times the largest K0 entry) is spurious by the bound:
    the threshold cannot resolve the constraints at this z (in practice |z|
    far below 1) and UnresolvedConstraints is raised.  The kept unit vector
    R, the smallest zero's eigenvector in the first block holding it (lifted
    by J on the transfer, and checked there sector by sector), must meet each
    constraint on its own scale,
    |R L_a - R_a R|_F <= NULLSPACE_RATIO (|L_a|_F + |R_a|_F), else
    UnresolvedConstraints is raised: that catches spurious zeros in charge 0,
    where K0 gives no bound.
    Returns (R, nullspace_dim), R the eigenvector normalized so its largest
    entry is 1, or (None, 0) when no intertwiner exists.
    """
    if rep1.qp != rep2.qp:
        raise ValueError("modules must share the deformation parameter")
    dims = (rep1.dim, rep2.dim)
    D = rep1.dim * rep2.dim
    left, right = affine_coproduct_images(rep1, rep2, z)
    g = grading_modulus([(M, (rep.dim,), s) for rep in (rep1, rep2)
                         for M, s in ((rep.E, -1), (rep.F, 1), (rep.K, 0))], dims)
    if g == rep1.dim == rep2.dim:
        with np.errstate(all="ignore"):  # a value that leaves float64 only declines the transfer
            answer = _sector_transfer(left, right, g)
        if answer is not None:
            return _normalized(*answer, dims)
    conj_left = {a: left[a].conj() for a in _GENERATORS}
    P, Q = _guard_overflow(z, "the intertwiner constraints", lambda: (
        sum(conj_left[a] @ left[a].T for a in _GENERATORS),
        sum(right[a].conj().T @ right[a] for a in _GENERATORS)))
    scale = _guard_overflow(z, "the Gram bound", lambda: np.array(
        [np.linalg.norm(left[a]) + np.linalg.norm(right[a]) for a in _GENERATORS]))
    U = _guard_overflow(z, "the Gram bound", lambda: sum(s**2 for s in scale))
    deg = total_degree(dims)
    diff = np.subtract.outer(deg, deg)
    charge = diff % g if g else diff

    floor = NULLSPACE_RATIO**2
    threshold = floor * U  # an eigenvalue below it counts as zero
    kl, kr = np.diagonal(left["K0"]), np.diagonal(right["K0"])
    k0 = np.abs(np.subtract.outer(kr, kl)) ** 2  # [i, j]: the K0 term of unknown R[i, j]
    k0_floor = floor * k0.max()  # a K0 minimum above it is nonzero on K0's own scale

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

    def kept(rows, cols, vector):
        """R with the unit vector at the unknowns R[rows, cols], and the first constraint it
        misses on that constraint's own scale, as (generator, miss / scale), or None."""
        R = np.zeros((D, D), dtype=complex)
        R[rows, cols] = vector
        for a, s in zip(_GENERATORS, scale):
            miss = np.linalg.norm(R @ left[a] - right[a] @ R)
            if not miss <= NULLSPACE_RATIO * s:
                return R, (a, miss / s)
        return R, None

    searched = []  # (rows, cols, K0 minimum) of each charge block the certificate leaves
    for c in np.unique(charge):
        rows, cols = np.nonzero(charge == c)
        kmin = k0[rows, cols].min()
        if kmin <= threshold:  # else certified; charge 0 never is (kmin 0 at i = j)
            searched.append((rows, cols, kmin))
    nonzeros = [(_nonzeros(right[a]), _nonzeros(conj_left[a])) for a in _GENERATORS]
    dim, best = 0, None
    for rows, cols, kmin in searched:
        gram = block(rows, cols)
        try:
            w, v = _block_zeros(gram, threshold)
        except np.linalg.LinAlgError as exc:
            raise UnresolvedConstraints(f"the nullspace threshold cannot resolve the "
                                        f"constraints at z={z}{modules}: {exc}", z=z) from None
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
    R, missed = kept(*best[1:])
    if missed:
        raise UnresolvedConstraints(
            f"the nullspace threshold cannot resolve the constraints at z={z}{modules}: "
            f"the kept vector misses the {missed[0]} constraint by {missed[1]:.3g} of its "
            f"scale", z=z)
    return _normalized(R, dim, dims)


def _normalized(R: np.ndarray | None, dim: int, dims: tuple) -> tuple:
    """(R, dim) as solve_intertwiner returns them: R over its first entry within 1e-9 of
    the largest modulus, so rounding cannot choose between entries of equal modulus, or
    (None, 0) when dim is 0."""
    if dim == 0:
        return None, 0
    mag = np.abs(R)
    k = int(np.argmax(mag >= (1 - 1e-9) * mag.max()))
    return TensorOperator(dims, R / R.flat[k]), dim


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
