"""The R-matrix of quantized sl2 on pairs of truncated highest-weight modules.

Three routes to the same operator:

* ``r_verma_direct``    -- the weightwise sum with q-binomial coefficients,
                           finite at generic q and at roots of unity;
* ``r_generic_universal`` -- exp_{q^-2}((q-q^-1) E(x)F) times the Cartan
                           weight factor, generic q only;
* ``r_reshetikhin_product`` -- at a root of unity, a finite product of
                           fractional powers of (1 - const * E(x)F) times a
                           terminating exponential in the renormalized
                           N-th power of E.

The series and the fractional powers are all functions of the one nilpotent
X = E (x) F.  Their factors are multiplied as truncated scalar series in X,
and the result is summed as sum_k c_k E^k (x) F^k, since X^k = E^k (x) F^k;
no dense power of X is ever formed.

Verifiers for the intertwining property, the Yang-Baxter equation and
quasitriangularity, all restricted to safe source windows of the
truncations, round out the module.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial

import numpy as np

from .qnum import (DenominatorVanishes, QParam, gen_binom, qbinom_table, qnumber_array,
                   unsym_qnum)
from .reps import Rep, coproduct, opposite_coproduct, tensor_rep
from .tensorop import (TensorOperator, apply_two_site, kron2, masked_max_abs, safe_mask,
                       ybe_defect)


@dataclass(frozen=True)
class RFiniteOptions:
    include_cartan_factor: bool = True


def cartan_weight_vector(rep1: Rep, rep2: Rep) -> np.ndarray:
    """Diagonal of q^{H(x)H/2}: q^{h_i h_j / 2} over weight pairs."""
    return rep1.qp.qpow_array(0.5 * np.outer(rep1.hvec, rep2.hvec)).reshape(-1)


def _raising_table(rep: Rep) -> np.ndarray:
    """T[s, n] = q^{n(n-1)/2} qbinom(s, n) prod_{r=1}^n [lam - s + r], zero for n > s.

    Column n holds the entries (s-n, s) of E^n / (n)_{q^-2}!; the q-binomial
    is the root-of-unity limit value where applicable, so no vanishing
    factorial is ever divided.  The ladder products accumulate over n.
    """
    qp = rep.qp
    d = rep.dim
    n = np.arange(d)
    ladder = np.ones((d, d), dtype=complex)
    brackets = qnumber_array(rep.lam - n[:, None] + n[None, 1:], qp)  # [lam - s + r]
    ladder[:, 1:] = np.cumprod(brackets, axis=1)
    return qp.qpow_array(0.5 * n * (n - 1)) * qbinom_table(d, qp) * ladder


def _ladder_table(rep: Rep) -> np.ndarray:
    """The raising table of a ladder (Verma or semicyclic) module."""
    if rep.kind not in ("verma", "semicyclic"):
        raise ValueError("renormalized raising powers need a ladder module")
    return _raising_table(rep)


def _table_power(table: np.ndarray, n: int) -> np.ndarray:
    """E^n / (n)_{q^-2}! from column n of a raising table (zero once n >= dim)."""
    d = table.shape[0]
    if n >= d:
        return np.zeros((d, d), dtype=complex)
    return np.diag(table[n:, n], n)


def renormalized_raising_power(rep: Rep, n: int) -> np.ndarray:
    """Matrix of E^n / (n)_{q^-2}! on a ladder module, valid at roots of unity.

    Entry at (s-n, s) is q^{n(n-1)/2} qbinom(s, n) prod_{r=1}^n [lam - s + r];
    the q-binomial is the root-of-unity limit value where applicable, so the
    expression is never assembled from vanishing factorials.
    """
    return _table_power(_ladder_table(rep), n)


def e_derivation_matrix(rep: Rep) -> np.ndarray:
    """The renormalized limit of E^N / (N)_{q^-2}! at a root of unity."""
    if not rep.qp.is_root:
        raise ValueError("the renormalized N-th power lives at roots of unity")
    return renormalized_raising_power(rep, rep.qp.N)


def r_verma_direct(rep1: Rep, rep2: Rep, opts: RFiniteOptions | None = None) -> TensorOperator:
    """Weightwise R-matrix on V1 (x) V2.

    R(v_s (x) v_s') = sum_n q^{(l1-2s)(l2-2s')/2} q^{n(n-1)/2} (q-q^-1)^n
                      qbinom(s,n) prod_{r=1}^n [l1-s+r]  v_{s-n} (x) v_{s'+n},
    terms leaving the second truncation dropped.  The coefficients come from
    the raising table of V1 and are scattered to every s' at once.
    """
    opts = opts or RFiniteOptions()
    if rep1.qp != rep2.qp:
        raise ValueError("both modules must share the deformation parameter")
    q = rep1.qp.q
    d1, d2 = rep1.dim, rep2.dim
    s, sp, n = np.meshgrid(np.arange(d1), np.arange(d2), np.arange(d1), indexing="ij")
    coeff = (_raising_table(rep1) * (q - 1 / q) ** np.arange(d1))[s, n]
    if opts.include_cartan_factor:
        coeff = coeff * cartan_weight_vector(rep1, rep2).reshape(d1, d2)[:, :, None]
    keep = (n <= s) & (sp + n < d2)
    mat = np.zeros((d1 * d2, d1 * d2), dtype=complex)
    mat[((s - n) * d2 + sp + n)[keep], (s * d2 + sp)[keep]] = coeff[keep]
    return TensorOperator((d1, d2), mat)


def _kron_powers(A: np.ndarray, B: np.ndarray, limit: int) -> list:
    """The pairs (A^k, B^k), k = 1, 2, ..., at most `limit`, while A^k (x) B^k != 0.

    By the mixed-product rule (A (x) B)^k = A^k (x) B^k, so the powers of the
    tensor operator never have to be formed.
    """
    out = []
    Ak, Bk = A, B
    while len(out) < limit and Ak.any() and Bk.any():
        out.append((Ak, Bk))
        Ak, Bk = Ak @ A, Bk @ B
    return out


def _kron_power_sum(coeffs, powers: list, d: int) -> np.ndarray:
    """1 + sum_{k>=1} coeffs[k] A^k (x) B^k over `powers`, added one term at a time."""
    mat = np.eye(d, dtype=complex)
    for c, (Ak, Bk) in zip(coeffs[1:], powers):
        mat += c * kron2(Ak, Bk)
    return mat


def _kron_expm(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """exp(A (x) B) for nilpotent A (x) B, summed as sum_k A^k (x) B^k / k!."""
    d = A.shape[0] * B.shape[0]
    powers = _kron_powers(A, B, 4 * d + 1)
    if len(powers) > 4 * d:
        raise ValueError("the wrap exponential requires a nilpotent argument")
    return _kron_power_sum([1 / factorial(k) for k in range(len(powers) + 1)], powers, d)


def r_generic_universal(rep1: Rep, rep2: Rep, terms: int | None = None,
                        opts: RFiniteOptions | None = None) -> TensorOperator:
    """exp_{q^-2}((q - q^-1) E (x) F) times the Cartan weight factor; generic q only.

    The q-exponential is summed as sum_n (q - q^-1)^n / (n)_{q^-2}! E^n (x) F^n
    up to `terms`; DenominatorVanishes is raised when a q-factorial vanishes
    while E^n (x) F^n is still nonzero.
    """
    opts = opts or RFiniteOptions()
    qp = rep1.qp
    if qp.is_root:
        raise ValueError("the q-exponential form is singular at roots of unity")
    if terms is None:
        terms = min(rep1.dim, rep2.dim)
    q = qp.q
    powers = _kron_powers(rep1.E, rep2.F, terms)
    base = qp.qpow(-2)
    coeffs = [1.0 + 0j]
    for n in range(1, len(powers) + 1):
        bracket = unsym_qnum(n, base)
        if abs(bracket) < 1e-9:
            raise DenominatorVanishes(
                f"q-factorial vanished at order {n} before the series terminated"
            )
        coeffs.append(coeffs[-1] * (q - 1 / q) / bracket)
    mat = _kron_power_sum(coeffs, powers, rep1.dim * rep2.dim)
    if opts.include_cartan_factor:
        mat = mat * cartan_weight_vector(rep1, rep2)[None, :]
    return TensorOperator((rep1.dim, rep2.dim), mat)


#: wrap-constant choices for the product form at a root of unity.  "auto" is the
#: value (eps - 1/eps)^N calibrated against r_verma_direct; "plus"/"minus" are
#: +-(1 - eps^-2)^-N, retained for inspection of the alternative convention.
WRAP_CONSTANTS = ("auto", "plus", "minus")


def _wrap_constant(qp: QParam, choice: str) -> complex:
    eps = qp.q
    if choice == "auto":
        return (eps - 1 / eps) ** qp.N
    base = (1 - eps**-2) ** (-qp.N)
    if choice == "plus":
        return base
    if choice == "minus":
        return -base
    raise ValueError(f"unknown wrap constant choice {choice!r}")


def r_reshetikhin_product(rep1: Rep, rep2: Rep, opts: RFiniteOptions | None = None,
                          wrap_constant: str = "auto",
                          literal_factors: bool = False) -> TensorOperator:
    """Finite product form of the R-matrix at a root of unity.

    Calibrated form (default): with X = E (x) F and zeta = eps^-2,

        prod_{r=0}^{N-1} (1 - zeta^r eps^-1 (eps-1/eps)^2 X)^{r/N}
        * exp(wrap_const * (E^N/(N)_{q^-2}!) (x) F^N)
        * q^{H(x)H/2}.

    The fractional powers are multiplied as truncated series in X, with
    coefficients gen_binom(p, k) (-a)^k, and the product is summed as
    sum_k c_k E^k (x) F^k; the wrap exponential is summed the same way, as
    sum_k C^k/k! e^k (x) (F^N)^k.  ``literal_factors=True`` switches to the factors
    (1 - eps^m X)^{-m/N} of the alternative normalization, which does not
    reproduce the direct form; it is kept as a negative control.
    """
    opts = opts or RFiniteOptions()
    qp = rep1.qp
    if not qp.is_root:
        raise ValueError("the product form is a root-of-unity construction")
    N = qp.N
    eps = qp.q
    d = rep1.dim * rep2.dim
    powers = _kron_powers(rep1.E, rep2.F, 4 * d + 1)
    if len(powers) > 4 * d:
        raise ValueError("the product form requires a nilpotent E (x) F")
    if literal_factors:
        factors = [(qp.qpow(r), -r / N) for r in range(1, N)]
    else:
        factors = [(qp.qpow(-2 * r - 1) * (eps - 1 / eps) ** 2, r / N) for r in range(N)]
    coeffs = np.ones(1, dtype=complex)
    for a, p in factors:
        series = [gen_binom(p, k) * (-a) ** k for k in range(len(powers) + 1)]
        coeffs = np.convolve(coeffs, series)[:len(powers) + 1]
    mat = _kron_power_sum(coeffs, powers, d)
    FN = np.linalg.matrix_power(rep2.F, N)
    if FN.any():
        e1 = e_derivation_matrix(rep1)
        if e1.any():
            C = _wrap_constant(qp, wrap_constant)
            mat = mat @ _kron_expm(C * e1, FN)
    if opts.include_cartan_factor:
        mat = mat * cartan_weight_vector(rep1, rep2)[None, :]
    return TensorOperator((rep1.dim, rep2.dim), mat)


def intertwine_residual(R: TensorOperator, rep1: Rep, rep2: Rep,
                        margin: int = 1) -> float:
    """max_a || R D(a) - D'(a) R || over a in {E, F, K}, on safe source columns."""
    mask = safe_mask((rep1.dim, rep2.dim), margin)
    out = 0.0
    for gen in ("E", "F", "K"):
        lhs = R.mat @ coproduct(rep1, rep2, gen).mat
        rhs = opposite_coproduct(rep1, rep2, gen).mat @ R.mat
        out = max(out, masked_max_abs(lhs - rhs, mask))
    return out


def ybe_residual(rep1: Rep, rep2: Rep, rep3: Rep, builder=None,
                 margin: int = 1) -> float:
    """|| R12 R13 R23 - R23 R13 R12 || on the threefold product, safe window."""
    if builder is None:
        builder = r_verma_direct
    dims = (rep1.dim, rep2.dim, rep3.dim)
    return ybe_defect(builder(rep1, rep2).mat, builder(rep1, rep3).mat,
                      builder(rep2, rep3).mat, dims, safe_mask(dims, margin))


def quasitriangularity_residual(rep1: Rep, rep2: Rep, rep3: Rep,
                                margin: int = 1) -> float:
    """Residuals of (D(x)1)R = R13 R23 and (1(x)D)R = R13 R12 at generic q."""
    if rep1.qp.is_root:
        raise ValueError("quasitriangularity checks run at generic q only")
    dims = (rep1.dim, rep2.dim, rep3.dim)
    mask = safe_mask(dims, margin)
    cols = np.eye(rep1.dim * rep2.dim * rep3.dim, dtype=complex)[:, mask]
    R13 = r_generic_universal(rep1, rep3).mat
    R23_cols = apply_two_site(r_generic_universal(rep2, rep3).mat, cols, dims, (1, 2))
    R12_cols = apply_two_site(r_generic_universal(rep1, rep2).mat, cols, dims, (0, 1))
    lhs1 = r_generic_universal(tensor_rep(rep1, rep2), rep3).mat[:, mask]
    res1 = masked_max_abs(lhs1 - apply_two_site(R13, R23_cols, dims, (0, 2)))
    lhs2 = r_generic_universal(rep1, tensor_rep(rep2, rep3)).mat[:, mask]
    res2 = masked_max_abs(lhs2 - apply_two_site(R13, R12_cols, dims, (0, 2)))
    return max(res1, res2)
