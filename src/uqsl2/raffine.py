"""Evaluation representations of the affine algebra and the spectral R-matrix.

The evaluation homomorphism sends the two Chevalley pairs to

    E_0 -> E,  F_0 -> F,  H_0 -> H,   E_1 -> x F,  F_1 -> x^-1 E,  H_1 -> -H,

so the central charge is zero and all imaginary root-vector images commute.
The spectral R-matrix factorizes as

    R(z) = R^+(z) * Rbar^0(z) * R^-(z) * q^{H(x)H/2},     z = x/y,

with R^+/R^- terminating series whose diagonal denominators are evaluated
spectrally, Rbar^0 diagonal in closed form, and the trailing Cartan weight
factor divided out at the highest weight pair so that v_0 (x) v_0 is fixed.
Every factor was calibrated against intertwiners solved from scratch on
honest finite-dimensional evaluation modules; ordered-product and
exponential-series forms of each factor are kept as independent oracles.

Two bases of imaginary root-vector images coexist:

* family "closed": the diagonal closed forms E'_{nd} ~ x^n q^{-(n-1)H} (EF - q^-2 FE),
* family "loop":   the bracket-built family E'_{nd} = [2]^-1 (E_{a0+(n-1)d} E_{a1}
                   - q^-2 E_{a1} E_{a0+(n-1)d}), which is the one satisfying the
                   loop-algebra (Drinfeld) relations through the standard
                   change-of-basis dictionary and feeding the exponential form
                   of the diagonal factor.

The two agree at n = 1 and differ from n = 2 on.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .qnum import QParam, qnumber, qexp_truncated
from .reps import Rep
from .rfinite import cartan_weight_vector, renormalized_raising_power
from .tensorop import TensorOperator, kron2, masked_max_abs, safe_mask, ybe_defect

CARTAN_MODES = ("normalized", "raw", "none")


class PoleError(ArithmeticError):
    """A denominator factor vanished on the requested weight window."""

    def __init__(self, message, *, z=None, weight_pair=None):
        super().__init__(message)
        self.z = z
        self.weight_pair = weight_pair


class UnsupportedOrder(ValueError):
    """The construction needs [2]_q != 0 (root order N' with q^4 != 1)."""


def _diag_left(dvec: np.ndarray, M: np.ndarray) -> np.ndarray:
    return dvec[:, None] * M


def _diag_right(M: np.ndarray, dvec: np.ndarray) -> np.ndarray:
    return M * dvec[None, :]


def eval_generators(rep: Rep, x: complex) -> dict:
    """Images of the affine Chevalley generators under evaluation at x."""
    if x == 0:
        raise ValueError("the evaluation parameter must be nonzero")
    return {
        "E0": rep.E, "F0": rep.F, "H0": np.diag(rep.hvec.astype(complex)),
        "E1": x * rep.F, "F1": rep.E / x, "H1": -np.diag(rep.hvec.astype(complex)),
        "K0": rep.K, "K1": rep.Kinv,
    }


def eval_root_vectors(rep: Rep, x: complex, n_max: int) -> dict:
    """Real root-vector images, n = 0..n_max.

    E_{a0+nd} = (-1)^n x^n  q^{-nH} E,      F_{a0+nd} = (-1)^n x^-n  F q^{nH},
    E_{a1+nd} = (-1)^n x^{n+1} F q^{-nH},   F_{a1+nd} = (-1)^n x^-{n+1} q^{nH} E.
    """
    out = {"E0": [], "F0": [], "E1": [], "F1": []}
    for n in range(n_max + 1):
        sgn = (-1) ** n
        dm = rep.qpow_h(-n)
        dp = rep.qpow_h(n)
        out["E0"].append(sgn * x**n * _diag_left(dm, rep.E))
        out["F0"].append(sgn * x ** (-n) * _diag_right(rep.F, dp))
        out["E1"].append(sgn * x ** (n + 1) * _diag_right(rep.F, dm))
        out["F1"].append(sgn * x ** (-n - 1) * _diag_left(dp, rep.E))
    return out


def _guard_order(qp: QParam):
    if abs(qnumber(2, qp)) < 1e-9 or abs(qp.qpow(2) - qp.qpow(-2)) < 1e-9:
        raise UnsupportedOrder("imaginary root vectors need q^4 != 1 ([2]_q nonzero)")


IMAGINARY_FAMILIES = ("closed", "loop")


def eval_imaginary_prime(rep: Rep, x: complex, n_max: int,
                         family: str = "closed") -> "ImaginaryRootImages":
    """First-kind imaginary root images E'_{nd}, F'_{nd} for n = 1..n_max.

    family="closed": E'_{nd} = (-1)^{n-1}/[2] x^n q^{-(n-1)H} (EF - q^-2 FE)
    and the mirrored F'_{nd}; diagonal on weight bases.

    family="loop": the bracket recursion
    E'_{nd} = [2]^-1 (E_{a0+(n-1)d} E_{a1} - q^-2 E_{a1} E_{a0+(n-1)d}) and its
    mirror F'_{nd} = [2]^-1 (F_{a1} F_{a0+(n-1)d} - q^2 F_{a0+(n-1)d} F_{a1}).
    This family obeys the loop-algebra relations; it coincides with "closed"
    at n = 1 only.
    """
    qp = rep.qp
    _guard_order(qp)
    two = qnumber(2, qp)
    eprime, fprime = [], []
    if family == "closed":
        q2 = qp.qpow(2)
        W = rep.E @ rep.F - rep.F @ rep.E / q2
        Wf = rep.F @ rep.E - rep.E @ rep.F / q2
        for n in range(1, n_max + 1):
            sgn = (-1) ** (n - 1)
            eprime.append(sgn / two * x**n * _diag_left(rep.qpow_h(-(n - 1)), W))
            fprime.append(sgn / two * x ** (-n) * _diag_left(rep.qpow_h(n - 1), Wf))
    elif family == "loop":
        rv = eval_root_vectors(rep, x, n_max)
        E1 = x * rep.F
        F1 = rep.E / x
        for n in range(1, n_max + 1):
            A = rv["E0"][n - 1]
            B = rv["F0"][n - 1]
            eprime.append((A @ E1 - E1 @ A / qp.qpow(2)) / two)
            fprime.append((F1 @ B - qp.qpow(2) * B @ F1) / two)
    else:
        raise ValueError(f"unknown imaginary family {family!r}")
    return ImaginaryRootImages(qp=qp, order=n_max, family=family,
                               eprime=eprime, fprime=fprime)


@dataclass(frozen=True)
class ImaginaryRootImages:
    """Imaginary root-vector images: primed generators and their Schur conversion."""

    qp: QParam
    order: int
    family: str = "closed"
    eprime: list = field(default_factory=list)
    fprime: list = field(default_factory=list)
    e: list = field(default_factory=list)
    f: list = field(default_factory=list)

    def commutativity_defect(self) -> float:
        out = 0.0
        for fam in (self.eprime, self.fprime):
            for i in range(len(fam)):
                for j in range(i + 1, len(fam)):
                    out = max(out, float(np.max(np.abs(fam[i] @ fam[j] - fam[j] @ fam[i]))))
        return out


def _weight_diagonals(mats: list, tol: float) -> np.ndarray:
    """Stack the diagonals of weight-diagonal images as an (M, d) array.

    Raises ValueError when an image has an off-diagonal entry above tol times
    its own scale (or any non-finite entry)."""
    stack = np.asarray(mats, dtype=complex)
    diag = np.diagonal(stack, axis1=1, axis2=2)
    off = np.abs(stack - diag[:, :, None] * np.eye(stack.shape[1])).max(axis=(1, 2))
    bound = tol * np.maximum(1.0, np.abs(diag).max(axis=1))
    if not np.all(off <= bound):
        n = int(np.argmin(off <= bound))
        raise ValueError(f"imaginary root image of order {n + 1} is not diagonal on the "
                         f"weight basis (off-diagonal {off[n]:.2e})")
    return diag


def _log_series_diagonal(u: np.ndarray, c: complex) -> np.ndarray:
    """Coefficients l_1..l_M of log(1 + c U(z))/c for U(z) = sum_n u_n z^n.

    u has shape (M, d): one power series per weight.  Differentiating
    log(1 + cU) gives the recurrence n l_n = n u_n - c sum_{k<n} k l_k u_{n-k}."""
    M = u.shape[0]
    kl = np.zeros_like(u)  # row k-1 holds k l_k
    for n in range(1, M + 1):
        kl[n - 1] = n * u[n - 1] - c * (kl[:n - 1] * u[:n - 1][::-1]).sum(axis=0)
    return kl / np.arange(1, M + 1)[:, None]


def schur_to_imaginary(images: ImaginaryRootImages, tol: float = 1e-10) -> ImaginaryRootImages:
    """Recover the unprimed imaginary root images by inverting the Schur relation.

    With P(z) = sum E'_{nd} z^n the generating identity reads
    1 + (q^2 - q^-2) P(z) = exp((q^2 - q^-2) Q(z)).  The images are diagonal
    on the weight basis (EF and q^{nH} are), so the log is taken weight by
    weight as a truncated scalar series; inputs that are not diagonal raise.
    The mirrored family carries the sign flip of q -> q^-1.
    Returns a copy with ``e`` and ``f`` filled in.
    """
    qp = images.qp
    _guard_order(qp)
    if not images.eprime:
        return images
    c = qp.qpow(2) - qp.qpow(-2)
    e = _log_series_diagonal(_weight_diagonals(images.eprime, tol), c)
    f = -_log_series_diagonal(-_weight_diagonals(images.fprime, tol), c)
    return replace(images, e=[np.diag(v) for v in e], f=[np.diag(v) for v in f])


def _partitions(n: int):
    """Partitions of n as (part, multiplicity) dicts."""
    def gen(n, maxpart):
        if n == 0:
            yield {}
            return
        for p in range(min(n, maxpart), 0, -1):
            for rest in gen(n - p, p):
                d = dict(rest)
                d[p] = d.get(p, 0) + 1
                yield d
    yield from gen(n, n)


def schur_forward(e_images: list, qp: QParam, n: int) -> np.ndarray:
    """Partition-sum Schur polynomial expressing E'_{nd} through the E_{kd}.

    E'_{nd} = sum over partitions {k^p} of n of
              (q^2-q^-2)^{sum p - 1} / prod p! * prod E_{kd}^p.
    """
    from math import factorial

    c = qp.qpow(2) - qp.qpow(-2)
    d = e_images[0].shape[0]
    out = np.zeros((d, d), dtype=complex)
    for part in _partitions(n):
        coeff = c ** (sum(part.values()) - 1)
        term = np.eye(d, dtype=complex)
        for k, p in part.items():
            coeff /= factorial(p)
            term = term @ np.linalg.matrix_power(e_images[k - 1], p)
        out += coeff * term
    return out


def _kinv_k_vector(rep1: Rep, rep2: Rep) -> np.ndarray:
    """Eigenvalues of K^-1 (x) K over the flat weight-pair basis."""
    v1 = rep1.qpow_h(-1)
    v2 = rep2.qpow_h(1)
    return (v1[:, None] * v2[None, :]).reshape(-1)


def rplus_closed(z: complex, rep1: Rep, rep2: Rep, pole_tol: float = 1e-12) -> TensorOperator:
    """Raising factor R^+(z): terminating series with spectral denominators.

    Term n:  (q-q^-1)^n  (E^n/(n)_{q^-2}! (x) F^n) * diag(prod_{k=1}^n
             (1 - z q^-2k K^-1 (x) K))^-1, the diagonal acting at the source.
    Equals the ordered product over the raising root family (ascending order);
    finite at roots of unity through the renormalized powers of E.
    """
    qp = rep1.qp
    q = qp.q
    d1, d2 = rep1.dim, rep2.dim
    D = d1 * d2
    W = _kinv_k_vector(rep1, rep2)
    mat = np.eye(D, dtype=complex)
    den = np.ones(D, dtype=complex)
    Fn = np.eye(d2, dtype=complex)
    for n in range(1, d1):
        En = renormalized_raising_power(rep1, n)
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
        mat += (q - 1 / q) ** n * _diag_right(op, 1 / np.where(support, den, 1.0))
    return TensorOperator((d1, d2), mat)


def rminus_closed(z: complex, rep1: Rep, rep2: Rep, pole_tol: float = 1e-12) -> TensorOperator:
    """Lowering factor R^-(z): mirror series with the diagonal acting at the target."""
    qp = rep1.qp
    q = qp.q
    d1, d2 = rep1.dim, rep2.dim
    D = d1 * d2
    W = _kinv_k_vector(rep1, rep2)
    mat = np.eye(D, dtype=complex)
    den = np.ones(D, dtype=complex)
    Fn = np.eye(d1, dtype=complex)
    for n in range(1, d2):
        En = renormalized_raising_power(rep2, n)
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
        mat += z**n * (q - 1 / q) ** n * _diag_left(1 / np.where(support, den, 1.0), op)
    return TensorOperator((d1, d2), mat)


def _cancel_exponents(num: list, den: list) -> tuple:
    """Remove exponents appearing in both lists (exact integer matches)."""
    from collections import Counter
    cn, cd = Counter(num), Counter(den)
    common = cn & cd
    return list((cn - common).elements()), list((cd - common).elements())


def rzero_bar_eigenvalue(z: complex, i: int, j: int, lam1: complex, lam2: complex,
                         qp: QParam, pole_tol: float = 1e-12) -> complex:
    """Diagonal eigenvalue of Rbar^0(z) on v_i (x) v_j.

    With M = lam2 - lam1 and P = lam2 + lam1:

        prod_{l=j-i+1}^{j} (1 - q^{M-2l} z)     prod_{l=0}^{j-1} (1 - q^{P-2l} z)
        --------------------------------------  --------------------------------- .
        prod_{l=i-j+1}^{i} (1 - q^{M+2l} z)     prod_{l=0}^{i-1} (1 - q^{-P+2l} z)

    The two index ranges of the first ratio are mirror images of each other
    (i-j+1..i below, j-i+1..j above); factors shared by the numerator and the
    denominator cancel before evaluation, which keeps the expression finite
    at roots of unity.  Calibrated entry by entry against intertwiners solved
    independently on honest evaluation modules.
    """
    num1 = [-2 * l for l in range(j - i + 1, j + 1)]
    den1 = [2 * l for l in range(i - j + 1, i + 1)]
    num1, den1 = _cancel_exponents(num1, den1)
    w1 = qp.qpow(lam2 - lam1) * z
    w2 = qp.qpow(lam2 + lam1) * z
    w3 = qp.qpow(-lam2 - lam1) * z
    val = 1.0 + 0j
    for e in num1:
        val *= 1 - qp.qpow(e) * w1
    for e in range(0, j):
        val *= 1 - qp.qpow(-2 * e) * w2
    for e in den1:
        d = 1 - qp.qpow(e) * w1
        if abs(d) < pole_tol:
            raise PoleError(f"diagonal factor pole at weight pair ({i},{j}), z={z}",
                            z=z, weight_pair=(i, j))
        val /= d
    for e in range(0, i):
        d = 1 - qp.qpow(2 * e) * w3
        if abs(d) < pole_tol:
            raise PoleError(f"diagonal factor pole at weight pair ({i},{j}), z={z}",
                            z=z, weight_pair=(i, j))
        val /= d
    return val


def rzero_bar(z: complex, rep1: Rep, rep2: Rep, pole_tol: float = 1e-12) -> TensorOperator:
    """Diagonal factor Rbar^0(z) on V1 (x) V2."""
    d1, d2 = rep1.dim, rep2.dim
    diag = np.empty(d1 * d2, dtype=complex)
    for i in range(d1):
        for j in range(d2):
            diag[i * d2 + j] = rzero_bar_eigenvalue(
                z, i, j, rep1.lam, rep2.lam, rep1.qp, pole_tol)
    return TensorOperator((d1, d2), np.diag(diag))


def f_scalar(z: complex, lam1: complex, lam2: complex, qp: QParam,
             terms: int = 40, form: str = "pochhammer") -> complex:
    """Scalar factor relating the diagonal factor to its exponential form.

    form="exponential": exp sum_n (q-1/q) [l1 n][l2 n]/[2n] z^n/n.
    form="pochhammer":  the ratio of four (.; q^-4)-products
        (z q^{l1-l2-2}) (z q^{l2-l1-2}) / ((z q^{l1+l2-2}) (z q^{-l1-l2-2})),
    each truncated at `terms` factors.  (The numerator arguments are the
    symmetric pair; the exponential sum forces that symmetry.)  Singular as q
    approaches a root of unity; generic q is required and divergence raises.
    """
    if qp.is_root:
        raise ValueError("the scalar factor is singular at roots of unity")
    if terms < 1:
        raise ValueError("terms must be >= 1")
    if form == "exponential":
        acc = 0.0 + 0j
        last = np.inf
        for n in range(1, terms + 1):
            cn = ((qp.qpow(lam1 * n) - qp.qpow(-lam1 * n))
                  * (qp.qpow(lam2 * n) - qp.qpow(-lam2 * n))
                  / (qp.qpow(2 * n) - qp.qpow(-2 * n)))
            term = cn * z**n / n
            mag = abs(term)
            if n > 5 and mag > 4 * last and mag > 1e3:
                raise ValueError("exponential form of the scalar factor diverges here")
            last = mag
            acc += term
        return np.exp(acc)
    if form != "pochhammer":
        raise ValueError(f"unknown form {form!r}")
    base = qp.qpow(-4)
    if abs(base) >= 1 - 1e-12:
        raise ValueError("the product form needs |q^-4| < 1 to converge")

    def poch(arg):
        out = 1.0 + 0j
        a = arg
        for _ in range(terms):
            out *= 1 - a
            a *= base
        return out

    num = poch(z * qp.qpow(lam1 - lam2 - 2)) * poch(z * qp.qpow(lam2 - lam1 - 2))
    den = poch(z * qp.qpow(lam1 + lam2 - 2)) * poch(z * qp.qpow(-lam1 - lam2 - 2))
    return num / den


def r_spectral(z: complex, rep1: Rep, rep2: Rep, cartan: str = "normalized",
               pole_tol: float = 1e-12) -> TensorOperator:
    """Renormalized spectral R-matrix on V1 (x) V2.

    cartan="normalized" (default): R^+(z) Rbar^0(z) R^-(z) q^{H(x)H/2} divided
    by the highest-weight Cartan value q^{lam1 lam2/2}; this is the operator
    that fixes v_0 (x) v_0, intertwines the two affine coproducts and obeys
    the spectral Yang-Baxter equation.

    cartan="raw": same without the highest-weight division (matches the full
    evaluation image of the universal construction up to the scalar factor).

    cartan="none": the bare product R^+ Rbar^0 R^-.  Kept for comparison; it
    fixes v_0 (x) v_0 but does not intertwine the affine coproducts.
    """
    if cartan not in CARTAN_MODES:
        raise ValueError(f"unknown cartan mode {cartan!r}")
    rp = rplus_closed(z, rep1, rep2, pole_tol)
    r0 = rzero_bar(z, rep1, rep2, pole_tol)
    rm = rminus_closed(z, rep1, rep2, pole_tol)
    mat = rp.mat @ (np.diag(r0.mat)[:, None] * rm.mat)
    if cartan != "none":
        cart = cartan_weight_vector(rep1, rep2)
        if cartan == "normalized":
            cart = cart / cart[0]
        mat = mat * cart[None, :]
    return TensorOperator((rep1.dim, rep2.dim), mat)


# ---------------------------------------------------------------------------
# independent product/series oracles


def _family_ratio(z: complex, rep1: Rep, rep2: Rep) -> float:
    """Geometric growth ratio of the ordered-product factors on these modules."""
    vals = []
    for hi in rep1.hvec:
        for hj in rep2.hvec:
            vals.append(abs(rep1.qp.qpow(hj - hi)))
    return abs(z) * max(vals)


def _auto_terms(z, rep1, rep2, tail_tol=1e-12, cap=2000):
    import math
    r = _family_ratio(z, rep1, rep2)
    if r >= 0.999:
        raise ValueError(
            f"ordered-product oracle does not converge here (growth ratio {r:.3f})")
    n = max(10, int(math.log(tail_tol) / math.log(r)) + 5) if r > 0 else 10
    return min(n, cap)


def rplus_product(z: complex, rep1: Rep, rep2: Rep, n_max: int | None = None,
                  order: str = "ascending") -> TensorOperator:
    """Ordered product prod_n exp_{q^-2}((q-1/q) z^n (q^{-nH}E (x) F q^{nH})).

    The raising family multiplies in ascending order of n (the closed form
    reproduces exactly this order)."""
    qp = rep1.qp
    q = qp.q
    if n_max is None:
        n_max = _auto_terms(z, rep1, rep2)
    d1, d2 = rep1.dim, rep2.dim
    terms = min(d1, d2)
    rng = range(n_max + 1) if order == "ascending" else range(n_max, -1, -1)
    mat = np.eye(d1 * d2, dtype=complex)
    for n in rng:
        A = kron2(_diag_left(rep1.qpow_h(-n), rep1.E),
                  _diag_right(rep2.F, rep2.qpow_h(n)))
        mat = mat @ qexp_truncated((q - 1 / q) * z**n * A, qp.qpow(-2), terms)
    return TensorOperator((d1, d2), mat)


def rminus_product(z: complex, rep1: Rep, rep2: Rep, n_max: int | None = None,
                   order: str = "descending") -> TensorOperator:
    """Ordered product prod_n exp_{q^-2}((q-1/q) z^{n+1} (F q^{-nH} (x) q^{nH}E)).

    The lowering family multiplies in descending order of n (normal order runs
    back towards the plain lowering root)."""
    qp = rep1.qp
    q = qp.q
    if n_max is None:
        n_max = _auto_terms(z, rep1, rep2)
    d1, d2 = rep1.dim, rep2.dim
    terms = min(d1, d2)
    rng = range(n_max + 1) if order == "ascending" else range(n_max, -1, -1)
    mat = np.eye(d1 * d2, dtype=complex)
    for n in rng:
        B = kron2(_diag_right(rep1.F, rep1.qpow_h(-n)),
                  _diag_left(rep2.qpow_h(n), rep2.E))
        mat = mat @ qexp_truncated((q - 1 / q) * z ** (n + 1) * B, qp.qpow(-2), terms)
    return TensorOperator((d1, d2), mat)


def rzero_exponential(z: complex, rep1: Rep, rep2: Rep,
                      n_max: int | None = None) -> TensorOperator:
    """Exponential form of the full diagonal factor R^0(z) = f(z) Rbar^0(z).

    exp( sum_{n>0} (q^2-q^-2)^2 n z^n / (q^{2n}-q^{-2n}) E_{nd} (x) F_{nd} )
    over the loop-bracket imaginary family; equivalently the pairing
    (q-q^-1)^2 n/(q^{2n}-q^{-2n}) of the rescaled Cartan-current modes.
    The truncation order follows the geometric tail of the mode norms
    unless given explicitly.
    """
    qp = rep1.qp
    if n_max is None:
        n_max = max(30, _auto_terms(z, rep1, rep2))
    im1 = schur_to_imaginary(eval_imaginary_prime(rep1, 1.0, n_max, family="loop"))
    im2 = schur_to_imaginary(eval_imaginary_prime(rep2, 1.0, n_max, family="loop"))
    C = (qp.qpow(2) - qp.qpow(-2)) ** 2
    acc = np.zeros(rep1.dim * rep2.dim, dtype=complex)  # the exponent is diagonal
    for n in range(1, n_max + 1):
        coeff = C * n * z**n / (qp.qpow(2 * n) - qp.qpow(-2 * n))
        acc += coeff * np.kron(np.diagonal(im1.e[n - 1]), np.diagonal(im2.f[n - 1]))
    from scipy.linalg import expm
    return TensorOperator((rep1.dim, rep2.dim), expm(np.diag(acc)))


def decompos_product(z: complex, rep1: Rep, rep2: Rep, n_max: int | None = None,
                     n_imag: int | None = None) -> TensorOperator:
    """Full ordered-product evaluation image R^+ R^0 R^- q^{H(x)H/2}.

    Equals f(z) times the cartan="raw" closed-form spectral R-matrix.
    """
    rp = rplus_product(z, rep1, rep2, n_max)
    r0 = rzero_exponential(z, rep1, rep2, n_imag)
    rm = rminus_product(z, rep1, rep2, n_max)
    mat = rp.mat @ r0.mat @ rm.mat
    mat = mat * cartan_weight_vector(rep1, rep2)[None, :]
    return TensorOperator((rep1.dim, rep2.dim), mat)


# ---------------------------------------------------------------------------
# verifiers


def affine_coproduct_images(rep1: Rep, rep2: Rep, x: complex, y: complex,
                            opposite: bool = False) -> dict:
    """Images of the affine coproduct (or its opposite) on V1(x) (x) V2(y)."""
    g1 = eval_generators(rep1, x)
    g2 = eval_generators(rep2, y)
    I1 = np.eye(rep1.dim, dtype=complex)
    I2 = np.eye(rep2.dim, dtype=complex)
    out = {}
    # D(E_i) = E_i (x) 1 + q^{-H_i} (x) E_i;  D(F_i) = F_i (x) q^{H_i} + 1 (x) F_i
    ks = {"0": (rep1.K, rep2.K), "1": (rep1.Kinv, rep2.Kinv)}
    for i in ("0", "1"):
        K1i, K2i = ks[i]
        if not opposite:
            out["E" + i] = kron2(g1["E" + i], I2) + kron2(np.linalg.inv(K1i), g2["E" + i])
            out["F" + i] = kron2(g1["F" + i], K2i) + kron2(I1, g2["F" + i])
        else:
            out["E" + i] = kron2(I1, g2["E" + i]) + kron2(g1["E" + i], np.linalg.inv(K2i))
            out["F" + i] = kron2(g1["F" + i], I2) + kron2(K1i, g2["F" + i])
        out["K" + i] = kron2(K1i, K2i)
    return out


def affine_intertwine_residual(z: complex, rep1: Rep, rep2: Rep,
                               cartan: str = "normalized", margin: int = 1,
                               R: TensorOperator | None = None) -> float:
    """max over affine generators of || R(z) D(a) - D'(a) R(z) || on the safe window."""
    if R is None:
        R = r_spectral(z, rep1, rep2, cartan=cartan)
    x, y = z, 1.0
    left = affine_coproduct_images(rep1, rep2, x, y, opposite=False)
    right = affine_coproduct_images(rep1, rep2, x, y, opposite=True)
    if rep1.kind == "verma" or rep2.kind == "verma":
        mask = safe_mask((rep1.dim, rep2.dim), margin)
    else:
        mask = None  # honest representations: no truncation defect
    out = 0.0
    for name in ("E0", "F0", "E1", "F1", "K0", "K1"):
        diff = R.mat @ left[name] - right[name] @ R.mat
        out = max(out, masked_max_abs(diff, mask))
    return out


def spectral_ybe_residual(x1: complex, x2: complex, x3: complex,
                          rep1: Rep, rep2: Rep, rep3: Rep,
                          cartan: str = "normalized", margin: int = 1) -> float:
    """|| R12(x1/x2) R13(x1/x3) R23(x2/x3) - reverse || on the safe window."""
    dims = (rep1.dim, rep2.dim, rep3.dim)

    def build(za, ra, rb):
        return r_spectral(za, ra, rb, cartan=cartan).mat

    trunc = [d for d, r in zip(dims, (rep1, rep2, rep3)) if r.kind == "verma"]
    mask = safe_mask(dims, margin) if trunc else None
    return ybe_defect(build(x1 / x2, rep1, rep2), build(x1 / x3, rep1, rep3),
                      build(x2 / x3, rep2, rep3), dims, mask)


def central_affine_check(rep: Rep, x: complex, k_max: int = 1,
                         margin: int | None = None, family: str = "loop") -> list:
    """Commutator residuals of the order-kN imaginary root images, k = 1..k_max.

    At a root of unity these images are expected to be central (and scalar)
    on honest modules; on truncated modules the defect row is masked.
    """
    qp = rep.qp
    if not qp.is_root:
        raise ValueError("centrality of imaginary root vectors is a root-of-unity statement")
    N = qp.N
    images = schur_to_imaginary(eval_imaginary_prime(rep, x, k_max * N, family=family))
    if margin is None:
        margin = 1 if rep.kind == "verma" else 0
    keep = np.ones(rep.dim, dtype=bool)
    if margin:
        keep[-margin:] = False
    gens = {"E": rep.E, "F": rep.F, "K": rep.K}
    out = []
    for k in range(1, k_max + 1):
        for fam, mats in (("E", images.e), ("F", images.f)):
            M = mats[k * N - 1]
            resid = max(float(np.max(np.abs((M @ g - g @ M)[np.ix_(keep, keep)])))
                        for g in gens.values())
            sub = M[np.ix_(keep, keep)]
            mu = np.trace(sub) / sub.shape[0]
            scal = float(np.max(np.abs(sub - mu * np.eye(sub.shape[0]))))
            out.append({"family": fam, "k": k, "order": k * N,
                        "max_commutator": resid, "scalar_deviation": scal,
                        "scalar_value": [mu.real, mu.imag]})
    return out


def noncentral_residual(rep: Rep, x: complex, n: int, family: str = "loop") -> float:
    """Commutator residual of the order-n imaginary root image (negative control)."""
    images = schur_to_imaginary(eval_imaginary_prime(rep, x, n, family=family))
    M = images.e[n - 1]
    keep = np.ones(rep.dim, dtype=bool)
    if rep.kind == "verma":
        keep[-1] = False
    return max(float(np.max(np.abs((M @ g - g @ M)[np.ix_(keep, keep)])))
               for g in (rep.E, rep.F, rep.K))


# ---------------------------------------------------------------------------
# Drinfeld-basis dictionary and relation checks


def drinfeld_generators(rep: Rep, x: complex, n_max: int = 3) -> dict:
    """Loop-generator images at central charge zero.

    Keys: ("xp", n) and ("xm", n) for |n| <= n_max+1, ("a", n) for
    0 < |n| <= n_max, ("psi", n) and ("phi", -n) for 0 <= n <= n_max, and "k".
    The Cartan loop generator is k = q^{H_1} = K^-1 in the evaluation
    representation; the imaginary images come from the loop-bracket family.
    """
    qp = rep.qp
    rv = eval_root_vectors(rep, x, n_max + 1)
    im = schur_to_imaginary(eval_imaginary_prime(rep, x, n_max, family="loop"))
    K, Kinv = rep.K, rep.Kinv
    c = qp.qpow(2) - qp.qpow(-2)
    out = {"k": Kinv}
    for n in range(0, n_max + 1):
        s = (-1) ** n
        out[("xp", n)] = s * qp.qpow(2 * n) * rv["E1"][n]
        out[("xm", -n)] = s * qp.qpow(-2 * n) * rv["F1"][n]
        out[("xm", n + 1)] = s * qp.qpow(2 * n) * rv["E0"][n] @ Kinv
        out[("xp", -n - 1)] = s * qp.qpow(-2 * n) * K @ rv["F0"][n]
    out[("psi", 0)] = Kinv
    out[("phi", 0)] = K
    for n in range(1, n_max + 1):
        s = (-1) ** n
        out[("a", n)] = s * qp.qpow(2 * n) * qnumber(2, qp) * im.e[n - 1]
        out[("a", -n)] = s * qp.qpow(-2 * n) * qnumber(2, qp) * im.f[n - 1]
        out[("psi", n)] = s * qp.qpow(2 * n) * c * im.eprime[n - 1] @ Kinv
        out[("phi", -n)] = -s * qp.qpow(-2 * n) * c * K @ im.fprime[n - 1]
    return out


DRINFELD_RELATIONS = ("aa", "kx", "ax", "xx", "xpxm")


def drinfeld_relation_check(rep: Rep, x: complex, selection=DRINFELD_RELATIONS,
                            n_max: int = 2, margin: int = 2) -> dict:
    """Residuals of selected loop-algebra relations at central charge zero.

    aa:   [a_m, a_n] = 0
    kx:   k x^pm_m k^-1 = q^{pm 2} x^pm_m
    ax:   [a_m, x^pm_n] = pm [2m]/m x^pm_{m+n}
    xx:   x^pm_{m+1} x^pm_n - q^{pm2} x^pm_n x^pm_{m+1}
            = q^{pm2} x^pm_m x^pm_{n+1} - x^pm_{n+1} x^pm_m
    xpxm: [x^+_m, x^-_n] = (psi_{m+n} - phi_{m+n})/(q - q^-1)
    """
    qp = rep.qp
    q = qp.q
    g = drinfeld_generators(rep, x, n_max + 2)
    keep = np.ones(rep.dim, dtype=bool)
    if rep.kind == "verma" and margin:
        keep[-margin:] = False

    def nrm(M):
        return float(np.max(np.abs(M[np.ix_(keep, keep)])))

    out = {}
    if "aa" in selection:
        pairs = [(1, -1), (1, 2), (2, -1), (2, -2)]
        out["aa"] = max(nrm(g[("a", m)] @ g[("a", n)] - g[("a", n)] @ g[("a", m)])
                        for m, n in pairs if abs(m) <= n_max and abs(n) <= n_max)
    if "kx" in selection:
        vals = []
        for sgn, nm in ((1, "xp"), (-1, "xm")):
            for m in (-1, 0, 1):
                M = g[(nm, m)]
                vals.append(nrm(g["k"] @ M @ np.linalg.inv(g["k"]) - qp.qpow(2 * sgn) * M))
        out["kx"] = max(vals)
    if "ax" in selection:
        vals = []
        for m in (1, -1, 2, -2):
            if abs(m) > n_max:
                continue
            for nm, sgn in (("xp", 1), ("xm", -1)):
                for n in (0, 1, -1):
                    lhs = g[("a", m)] @ g[(nm, n)] - g[(nm, n)] @ g[("a", m)]
                    rhs = sgn * qnumber(2 * m, qp) / m * g[(nm, m + n)]
                    vals.append(nrm(lhs - rhs))
        out["ax"] = max(vals)
    if "xx" in selection:
        vals = []
        for nm, sgn in (("xp", 1), ("xm", -1)):
            for m, n in ((0, 0), (1, 0), (0, -1)):
                t = qp.qpow(2 * sgn)
                a, b = g[(nm, m + 1)], g[(nm, n)]
                cc, dd = g[(nm, m)], g[(nm, n + 1)]
                vals.append(nrm(a @ b - t * b @ a - (t * cc @ dd - dd @ cc)))
        out["xx"] = max(vals)
    if "xpxm" in selection:
        vals = []
        for m, n in ((0, 0), (1, 0), (0, 1), (1, 1), (1, -1), (-1, 1), (2, -1), (2, -2)):
            if abs(m) > n_max + 1 or abs(n) > n_max + 1 or abs(m + n) > n_max:
                continue
            lhs = g[("xp", m)] @ g[("xm", n)] - g[("xm", n)] @ g[("xp", m)]
            s = m + n
            psi = g.get(("psi", s)) if s >= 0 else None
            phi = g.get(("phi", s)) if s <= 0 else None
            rhs = np.zeros_like(lhs)
            if psi is not None:
                rhs = rhs + psi
            if phi is not None:
                rhs = rhs - phi
            vals.append(nrm(lhs - rhs / (q - 1 / q)))
        out["xpxm"] = max(vals)
    return out
