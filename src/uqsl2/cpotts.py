"""Restriction of the spectral R-matrix to (semi)cyclic modules.

The N-dimensional semicyclic module is the quotient of the highest-weight
module by (F^N - alpha).  The spectral R-matrix descends to a pair of such
quotients exactly when the parameters lie on the integrability curve

    alpha_1 / (1 - L_1) = alpha_2 / (1 - L_2),     z^N = 1,

where L_i is the central value of K^N on module i, i.e. q^{N lam_i}
(a raw-power convention L_i = lam_i^N is kept behind a flag for
comparison).  The restricted operator is realized by evaluating the
spectral R-matrix on a depth-2N truncation and projecting through the
quotient identification v_{i+N} = alpha v_i; folding the module matrices
first does not work, because the diagonal factor is graded by the
unquotiented degree.

A nullspace solver recovers intertwiners of arbitrary module pairs
directly from the coproduct constraints; on cyclic modules it probes
the curve empirically.  The constraints preserve the charge
deg(i) - deg(j) mod gcd(d1, d2) of an unknown R[i, j], with
deg(m1, m2) = m1 + m2, so the solver assembles and diagonalizes one
charge block at a time instead of the whole D^2 x D^2 system.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .qnum import QParam
from .reps import Rep, truncated_verma
from .raffine import affine_coproduct_images, r_spectral
from .tensorop import TensorOperator, kron2

CURVE_CONVENTIONS = ("central", "raw")


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
            return None if v is None else [complex(v).real, complex(v).imag]

        return {
            "z": c(self.z), "lambda1": c(self.lambda1), "lambda2": c(self.lambda2),
            "alpha1": c(self.alpha1), "alpha2": c(self.alpha2),
            "beta1": c(self.beta1), "beta2": c(self.beta2), "N": self.N,
        }


class DegenerateCurve(ValueError):
    """K^N takes the value 1 on a module, so a curve denominator 1 - L vanishes."""


def _central_powers(spec: CurveSpec, qp: QParam, convention: str):
    if convention == "central":
        L1, L2 = qp.qpow(qp.N * spec.lambda1), qp.qpow(qp.N * spec.lambda2)
    elif convention == "raw":
        L1, L2 = spec.lambda1 ** qp.N, spec.lambda2 ** qp.N
    else:
        raise ValueError(f"unknown curve convention {convention!r}")
    if abs(1 - L1) < 1e-12 or abs(1 - L2) < 1e-12:
        raise DegenerateCurve("degenerate curve denominator: K^N takes the value 1")
    return L1, L2


def curve_residual(spec: CurveSpec, qp: QParam, convention: str = "central") -> tuple:
    """Residuals (r1, r2[, r3]) of the integrability curve.

    r1 = |a1/(1-L1) - a2/(1-L2)|, r2 = |z^N - 1| and, when both beta's are
    given, r3 = |b1/(1-1/L1) - b2/(1-1/L2)|.
    """
    L1, L2 = _central_powers(spec, qp, convention)
    r1 = abs(spec.alpha1 / (1 - L1) - spec.alpha2 / (1 - L2))
    r2 = abs(spec.z ** qp.N - 1)
    if spec.beta1 is None or spec.beta2 is None:
        return (r1, r2)
    r3 = abs(spec.beta1 / (1 - 1 / L1) - spec.beta2 / (1 - 1 / L2))
    return (r1, r2, r3)


def on_curve_partner(alpha1: complex, lam1: complex, lam2: complex, qp: QParam,
                     convention: str = "central") -> complex:
    """The alpha2 that puts (alpha1, lam1; alpha2, lam2) on the curve."""
    spec = CurveSpec(1.0, lam1, lam2, alpha1, 0.0, N=qp.N)
    L1, L2 = _central_powers(spec, qp, convention)
    return alpha1 * (1 - L2) / (1 - L1)


def _quotient_maps(alpha: complex, N: int, depth: int):
    P = np.zeros((N, depth), dtype=complex)
    for i in range(depth):
        P[i % N, i] = alpha ** (i // N)
    S = np.zeros((depth, N), dtype=complex)
    for i in range(N):
        S[i, i] = 1.0
    return P, S


def r_semicyclic(z: complex, sc1: Rep, sc2: Rep, cartan: str = "normalized",
                 pole_tol: float = 1e-12) -> TensorOperator:
    """Spectral R-matrix carried to the semicyclic quotient pair.

    Evaluates R(z) on depth-2N truncations of the parent highest-weight
    modules and conjugates by the quotient identification v_{i+N} = alpha v_i.
    On the curve this is the intertwiner of the semicyclic pair; off the
    curve it is representative-dependent and fails the intertwining check,
    which is the detection contract.
    """
    if sc1.kind != "semicyclic" or sc2.kind != "semicyclic":
        raise ValueError("both modules must be semicyclic quotients")
    if sc1.qp != sc2.qp:
        raise ValueError("modules must share the deformation parameter")
    qp = sc1.qp
    N = qp.N
    depth = 2 * N
    v1 = truncated_verma(sc1.lam, depth, qp)
    v2 = truncated_verma(sc2.lam, depth, qp)
    Rv = r_spectral(z, v1, v2, cartan=cartan, pole_tol=pole_tol)
    P1, S1 = _quotient_maps(sc1.params["alpha"], N, depth)
    P2, S2 = _quotient_maps(sc2.params["alpha"], N, depth)
    mat = kron2(P1, P2) @ Rv.mat @ kron2(S1, S2)
    return TensorOperator((N, N), mat)


def fn_commutation_residual(z: complex, sc1: Rep, sc2: Rep, R: TensorOperator,
                            convention: str = "central", tol: float = 1e-9) -> dict:
    """Residuals of the two exchange relations between R and the N-th power of F.

    rel1: R (L2 F^N (x) 1 + 1 (x) F^N) = (L1 1 (x) F^N + F^N (x) 1) R
    rel2: R (x^N F^N (x) 1 + y^N L1 1 (x) F^N)
            = (y^N 1 (x) F^N + x^N L2 F^N (x) 1) R, with x/y = z.

    Also reports whether z^N differs from L1 L2, the solvability condition
    for expressing the mixed products one way around the other.
    """
    qp = sc1.qp
    N = qp.N
    spec = CurveSpec(z, sc1.lam, sc2.lam, sc1.params.get("alpha", 0),
                     sc2.params.get("alpha", 0), N=N)
    L1, L2 = _central_powers(spec, qp, convention)
    I1 = np.eye(sc1.dim, dtype=complex)
    I2 = np.eye(sc2.dim, dtype=complex)
    F1N = np.linalg.matrix_power(sc1.F, N)
    F2N = np.linalg.matrix_power(sc2.F, N)
    A = kron2(F1N, I2)
    B = kron2(I1, F2N)
    xN, yN = z**N, 1.0
    rel1 = R.mat @ (L2 * A + B) - (L1 * B + A) @ R.mat
    rel2 = R.mat @ (xN * A + yN * L1 * B) - (yN * B + xN * L2 * A) @ R.mat
    return {
        "ideal_exchange": float(np.max(np.abs(rel1))),
        "spectral_exchange": float(np.max(np.abs(rel2))),
        "solvable": bool(abs(xN / yN - L1 * L2) > tol),
    }


def _charge_modulus(rep1: Rep, rep2: Rep) -> int:
    """Modulus g of the charge grading deg(m1, m2) = m1 + m2 (mod g), or 1.

    With g = gcd(d1, d2), E lowers and F raises the basis index by one
    modulo g (the cyclic wrap entries included) and K keeps it, so every
    coproduct image shifts deg by a fixed amount.  The modules' nonzero
    patterns are checked; g = 1, a single block, is returned when they
    break the grading.
    """
    g = math.gcd(rep1.dim, rep2.dim)
    for rep in (rep1, rep2):
        m = np.arange(rep.dim)
        shift = np.subtract.outer(m, m) % g  # row index minus column index
        for M, s in ((rep.E, -1), (rep.F, 1), (rep.K, 0)):
            if np.any(M[shift != s % g]):
                return 1
    return g


def solve_intertwiner(rep1: Rep, rep2: Rep, x: complex, y: complex,
                      sv_ratio: float = 1e-7) -> tuple:
    """Nullspace solve of R D(a) = D'(a) R over the affine generator images.

    The constraints for a in {E0, F0, E1, F1, K0} are collected in the Gram
    matrix G = sum_a A_a^H A_a of L(R) = R L_a - R_a R.  Unknown R[i, j] has
    charge deg(i) - deg(j) mod g (see _charge_modulus); every image is
    homogeneous, so G is exactly block-diagonal with g charge blocks of
    D^2/g unknowns (N^3 for a pair of N-dimensional modules).  Each block
    is assembled by index arithmetic from D x D matrices,

        G[(i,j),(i',j')] = d_ii' P[j,j'] + Q[i,i'] d_jj' - X - X^H,
        X = sum_a R_a[i,i'] conj(L_a)[j,j'],
        P = sum_a conj(L_a) L_a^T,   Q = sum_a R_a^H R_a,

    and diagonalized on its own.  An eigenvalue below (sv_ratio)^2 times
    the largest eigenvalue of all blocks counts as zero.  Returns
    (R, nullspace_dim), R the eigenvector of the smallest eigenvalue
    normalized so its largest entry is 1, or (None, 0) when no
    intertwiner exists.
    """
    if rep1.qp != rep2.qp:
        raise ValueError("modules must share the deformation parameter")
    D = rep1.dim * rep2.dim
    left = affine_coproduct_images(rep1, rep2, x, y, opposite=False)
    right = affine_coproduct_images(rep1, rep2, x, y, opposite=True)
    names = ("E0", "F0", "E1", "F1", "K0")
    conj_left = {a: left[a].conj() for a in names}
    P = sum(conj_left[a] @ left[a].T for a in names)
    Q = sum(right[a].conj().T @ right[a] for a in names)
    g = _charge_modulus(rep1, rep2)
    deg = np.add.outer(np.arange(rep1.dim), np.arange(rep2.dim)).reshape(-1)
    charge = np.subtract.outer(deg, deg) % g
    from scipy.linalg import eigh
    eigvals = []
    best = None  # (smallest eigenvalue, its eigenvector, row indices, column indices)
    for c in range(g):
        rows, cols = np.nonzero(charge == c)
        ii, jj = np.ix_(rows, rows), np.ix_(cols, cols)
        X = sum(right[a][ii] * conj_left[a][jj] for a in names)
        gram = (np.equal.outer(rows, rows) * P[jj] + Q[ii] * np.equal.outer(cols, cols)
                - X - X.conj().T)
        w, v = eigh(gram)
        eigvals.append(w)
        if best is None or w[0] < best[0]:
            best = (w[0], v[:, 0], rows, cols)
    w = np.concatenate(eigvals)
    wmax = float(w.max()) if w.max() > 0 else 1.0
    dim = int((w < (sv_ratio**2) * wmax).sum())
    if dim == 0:
        return None, 0
    _, vec, rows, cols = best
    R = np.zeros((D, D), dtype=complex)
    R[rows, cols] = vec
    # normalize by the first entry within 1e-9 of the largest modulus, so
    # rounding cannot choose between entries of equal modulus
    mag = np.abs(R)
    k = int(np.argmax(mag >= (1 - 1e-9) * mag.max()))
    R = R / R.flat[k]
    return TensorOperator((rep1.dim, rep2.dim), R), dim


def export_boltzmann(R: TensorOperator, meta: CurveSpec, qp: QParam,
                     convention: str = "central") -> dict:
    """Weight table of the restricted R-matrix with curve metadata.

    Entries are listed as [i, j, i', j', [re, im]] in row-major order; the
    normalization field records the eigenvalue on v_0 (x) v_0.
    """
    d1, d2 = R.dims
    res = curve_residual(meta, qp, convention)
    residuals = {"curve_alpha": res[0], "unimodularity": res[1]}
    if len(res) > 2:
        residuals["curve_beta"] = res[2]
    weights = []
    for ip in range(d1):
        for jp in range(d2):
            for i in range(d1):
                for j in range(d2):
                    v = R.mat[ip * d2 + jp, i * d2 + j]
                    weights.append([i, j, ip, jp, [v.real, v.imag]])
    return {
        "schema_version": "1",
        "nprime": qp.nprime,
        "N": qp.N,
        "dims": [d1, d2],
        "parameters": meta.to_json(),
        "residuals": residuals,
        "normalization": [R.mat[0, 0].real, R.mat[0, 0].imag],
        "weights": weights,
    }


def import_boltzmann(doc: dict) -> TensorOperator:
    """Rebuild the weight table exported by export_boltzmann, bit-exactly."""
    d1, d2 = doc["dims"]
    mat = np.zeros((d1 * d2, d1 * d2), dtype=complex)
    for i, j, ip, jp, (re, im) in doc["weights"]:
        mat[ip * d2 + jp, i * d2 + j] = complex(re, im)
    return TensorOperator((d1, d2), mat)
