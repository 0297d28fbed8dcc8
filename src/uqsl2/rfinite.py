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
no dense power of X is ever formed.  Each series stops at its first zero power and
is refused past 4*d nonzero ones (_kron_powers), so a non-nilpotent X is never cut short.

Verifiers for the intertwining property, the Yang-Baxter equation and
quasitriangularity round out the module.  Each compares the source columns
whose images under one generator or R-matrix application stay inside every
truncation (reps.safe_window at margin 1); the window is fixed by the check,
not by the caller.
"""

from __future__ import annotations

from math import factorial

import numpy as np

from .qnum import QFACTORIAL_TOL, DenominatorVanishes, PowerOverflow, QParam, gen_binom, unsym_qnum
from .reps import BOTH_SIDES, Rep, _rep_delta, safe_window, tensor_rep
from .tensorop import (TensorOperator, identity_plus_kron_sum, intertwine_defect,
                       masked_max_abs, weight_sectors, ybe_defect)


def cartan_weight_vector(rep1: Rep, rep2: Rep) -> np.ndarray:
    """Diagonal of q^{H(x)H/2}: q^{h_i h_j / 2} over weight pairs."""
    return rep1.qp.qpow_array(0.5 * np.outer(rep1.hvec, rep2.hvec)).reshape(-1)


def renormalized_raising_power(rep: Rep, n: int) -> np.ndarray:
    """Matrix of E^n / (n)_{q^-2}! on a ladder module, valid at roots of unity.

    Entry at (s-n, s) is q^{n(n-1)/2} qbinom(s, n) prod_{r=1}^n [lam - s + r],
    column n of Rep.raising_table (zero once n >= dim); the q-binomial is the
    root-of-unity limit value where applicable, so the expression is never
    assembled from vanishing factorials.
    """
    d = rep.dim
    return np.diag(rep.raising_table[n:, n], n) if n < d else np.zeros((d, d), dtype=complex)


def e_derivation_matrix(rep: Rep) -> np.ndarray:
    """The renormalized limit of E^N / (N)_{q^-2}! at a root of unity."""
    if not rep.qp.is_root:
        raise ValueError("the renormalized N-th power lives at roots of unity")
    return renormalized_raising_power(rep, rep.qp.N)


def r_verma_direct(rep1: Rep, rep2: Rep) -> TensorOperator:
    """Weightwise R-matrix on V1 (x) V2.

    R(v_s (x) v_s') = sum_n q^{(l1-2s)(l2-2s')/2} q^{n(n-1)/2} (q-q^-1)^n
                      qbinom(s,n) prod_{r=1}^n [l1-s+r]  v_{s-n} (x) v_{s'+n},
    terms leaving the second truncation dropped.  The coefficients come from
    the raising table of V1 and are scattered to every s' at once.
    """
    if rep1.qp != rep2.qp:
        raise ValueError("both modules must share the deformation parameter")
    q = rep1.qp.q
    d1, d2 = rep1.dim, rep2.dim
    s, sp, n = np.meshgrid(np.arange(d1), np.arange(d2), np.arange(d1), indexing="ij")
    table, weights = rep1.raising_table, cartan_weight_vector(rep1, rep2)
    with np.errstate(all="ignore"):  # a non-finite coefficient is refused below
        coeff = ((table * (q - 1 / q) ** np.arange(d1))[s, n]
                 * weights.reshape(d1, d2)[:, :, None])
    keep = (n <= s) & (sp + n < d2)
    if not np.isfinite(coeff[keep]).all():
        raise PowerOverflow(f"the R-matrix coefficients of a depth-{d1} module overflow a float "
                            f"at q={q}")
    mat = np.zeros((d1 * d2, d1 * d2), dtype=complex)
    mat[((s - n) * d2 + sp + n)[keep], (s * d2 + sp)[keep]] = coeff[keep]
    return TensorOperator((d1, d2), mat)


def _kron_powers(A: np.ndarray, B: np.ndarray, refusal: str) -> list:
    """The pairs (A^k, B^k), k = 1, 2, ..., while A^k (x) B^k != 0; ValueError(refusal)
    once more than 4*d pairs are nonzero, d the size of A (x) B (it is then not nilpotent),
    PowerOverflow once a power leaves float64 (its structural zeros would turn NaN).

    By the mixed-product rule (A (x) B)^k = A^k (x) B^k, so the powers of the
    tensor operator never have to be formed.
    """
    out = []
    Ak, Bk = A, B
    while Ak.any() and Bk.any():
        if not (np.isfinite(Ak).all() and np.isfinite(Bk).all()):
            raise PowerOverflow(f"a Kronecker factor's power of order {len(out) + 1} "
                                f"overflows a float")
        if len(out) == 4 * len(A) * len(B):
            raise ValueError(refusal)
        out.append((Ak, Bk))
        with np.errstate(all="ignore"):  # a non-finite power is refused above
            Ak, Bk = Ak @ A, Bk @ B
    return out


def _kron_power_sum(coeffs, powers: list, d1: int, d2: int) -> np.ndarray:
    """1 + sum_{k>=1} coeffs[k] A^k (x) B^k over `powers`, as one contraction."""
    return identity_plus_kron_sum([c * Ak for c, (Ak, _) in zip(coeffs[1:], powers)],
                                  [Bk for _, Bk in powers], d1, d2)


def _exp_terms(A: np.ndarray, B: np.ndarray) -> tuple:
    """(coeffs, powers) of exp(A (x) B) = sum_k A^k (x) B^k / k!, for nilpotent A (x) B."""
    powers = _kron_powers(A, B, "the wrap exponential requires a nilpotent argument")
    return [1 / factorial(k) for k in range(len(powers) + 1)], powers


def r_generic_universal(rep1: Rep, rep2: Rep) -> TensorOperator:
    """exp_{q^-2}((q - q^-1) E (x) F) times the Cartan weight factor; generic q only.

    The q-exponential is summed as sum_n (q - q^-1)^n / (n)_{q^-2}! E^n (x) F^n
    while E^n (x) F^n is nonzero, and refused if E (x) F is not nilpotent;
    DenominatorVanishes is raised when a q-factorial vanishes first.
    """
    qp = rep1.qp
    if qp.is_root:
        raise ValueError("the q-exponential form is singular at roots of unity")
    q = qp.q
    powers = _kron_powers(rep1.E, rep2.F, "the q-exponential form requires a nilpotent E (x) F")
    base = qp.qpow(-2)
    coeffs = [1.0 + 0j]
    for n in range(1, len(powers) + 1):
        try:
            bracket = unsym_qnum(n, base)
        except OverflowError:  # base**n
            raise PowerOverflow(f"q**e overflows a float at q={q}, e={-2 * n}") from None
        if abs(bracket) < QFACTORIAL_TOL:
            raise DenominatorVanishes(
                f"q-factorial vanished at order {n} before the series terminated"
            )
        coeffs.append(coeffs[-1] * (q - 1 / q) / bracket)
    mat = _kron_power_sum(coeffs, powers, rep1.dim, rep2.dim)
    mat *= cartan_weight_vector(rep1, rep2)[None, :]
    return TensorOperator((rep1.dim, rep2.dim), mat)


def _wrap_constant(qp: QParam, choice: str) -> complex:
    """Wrap constant of the product form at a root of unity.  "auto" is the value
    (eps - 1/eps)^N calibrated against r_verma_direct; "plus"/"minus" are
    +-(1 - eps^-2)^-N, retained for inspection of the alternative convention."""
    eps = qp.q
    if choice == "auto":
        return (eps - 1 / eps) ** qp.N
    base = (1 - eps**-2) ** (-qp.N)
    if choice == "plus":
        return base
    if choice == "minus":
        return -base
    raise ValueError(f"unknown wrap constant choice {choice!r}")


def r_reshetikhin_product(rep1: Rep, rep2: Rep, wrap_constant: str = "auto",
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
    qp = rep1.qp
    if not qp.is_root:
        raise ValueError("the product form is a root-of-unity construction")
    N = qp.N
    eps = qp.q
    powers = _kron_powers(rep1.E, rep2.F, "the product form requires a nilpotent E (x) F")
    if literal_factors:
        factors = [(qp.qpow(r), -r / N) for r in range(1, N)]
    else:
        factors = [(qp.qpow(-2 * r - 1) * (eps - 1 / eps) ** 2, r / N) for r in range(N)]
    coeffs = np.ones(1, dtype=complex)
    for a, p in factors:
        series = [gen_binom(p, k) * (-a) ** k for k in range(len(powers) + 1)]
        coeffs = np.convolve(coeffs, series)[:len(powers) + 1]
    FN = np.linalg.matrix_power(rep2.F, N)
    if FN.any():
        e1 = e_derivation_matrix(rep1)
        if e1.any():
            # times the wrap exponential 1 + sum_m w_m e^m (x) (F^N)^m: by the
            # mixed-product rule (A (x) B)(A' (x) B') = AA' (x) BB' the product
            # of the two sums is one more such sum
            wc, wp = _exp_terms(_wrap_constant(qp, wrap_constant) * e1, FN)
            cross = [(c * w, (A @ Aw, B @ Bw)) for c, (A, B) in zip(coeffs[1:], powers)
                     for w, (Aw, Bw) in zip(wc[1:], wp)]
            coeffs = [*coeffs, *wc[1:], *(c for c, _ in cross)]
            powers = [*powers, *wp, *(p for _, p in cross)]
    mat = _kron_power_sum(coeffs, powers, rep1.dim, rep2.dim)
    mat *= cartan_weight_vector(rep1, rep2)[None, :]
    return TensorOperator((rep1.dim, rep2.dim), mat)


def intertwine_residual(R: TensorOperator, rep1: Rep, rep2: Rep) -> float:
    """max_a || R D(a) - D'(a) R || over a in {E, F, K}, on the safe window."""
    mask = safe_window((rep1, rep2), 1)
    left, right = _rep_delta(rep1, rep2, BOTH_SIDES)
    return intertwine_defect(R.mat, left, right, mask)


def ybe_residual(rep1: Rep, rep2: Rep, rep3: Rep) -> float:
    """|| R12 R13 R23 - R23 R13 R12 || of r_verma_direct on the safe window."""
    reps = (rep1, rep2, rep3)
    return ybe_defect(r_verma_direct(rep1, rep2).mat, r_verma_direct(rep1, rep3).mat,
                      r_verma_direct(rep2, rep3).mat, tuple(r.dim for r in reps),
                      safe_window(reps, 1))


def quasitriangularity_residual(rep1: Rep, rep2: Rep, rep3: Rep) -> float:
    """Residuals of (D(x)1)R = R13 R23 and (1(x)D)R = R13 R12 at generic q.

    R_(12)3 and R_1(23) act on the whole product; each side is compared
    with its right-hand side sector by sector (tensorop.weight_sectors), on
    the safe-window columns, and one side is dropped before the other is built.
    """
    if rep1.qp.is_root:
        raise ValueError("quasitriangularity checks run at generic q only")
    dims = (rep1.dim, rep2.dim, rep3.dim)
    mask = safe_window((rep1, rep2, rep3), 1)
    R13 = r_generic_universal(rep1, rep3).mat

    def defects(lhs, R, sites):  # lhs - R13 R, one max per sector
        ops = ((lhs, (0, 1, 2)), (R13, (0, 2)), (R, sites))
        return [masked_max_abs(L[:, cols] - S13 @ S[:, cols])
                for (L, S13, S), cols in weight_sectors(ops, dims, mask)]

    res1 = defects(r_generic_universal(tensor_rep(rep1, rep2), rep3).mat,
                   r_generic_universal(rep2, rep3).mat, (1, 2))
    res2 = defects(r_generic_universal(rep1, tensor_rep(rep2, rep3)).mat,
                   r_generic_universal(rep1, rep2).mat, (0, 1))
    return float(np.max([0.0, *res1, *res2]))
