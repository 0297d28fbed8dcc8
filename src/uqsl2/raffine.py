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

import cmath
import functools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .qnum import (LOG_MAX_FLOAT, InadmissibleParameters, PowerOverflow, QParam, RefusedInput,
                   qexp_truncated, qnumber, qpochhammer_truncated)
from .reps import Rep, _delta, _row_window, commutator_report, safe_window
from .rfinite import cartan_weight_vector
from .tensorop import (TensorOperator, grading_modulus, intertwine_defect, kron2,
                       sector_plan, ybe_defect)

CARTAN_MODES = ("normalized", "raw", "none")

POLE_TOL = 1e-12  # a denominator factor of smaller modulus raises PoleError
DIAGONAL_TOL = 1e-10  # relative off-diagonal part allowed in an imaginary root image
TAIL_TOL = 1e-12  # each series or product oracle truncates where its geometric tail drops below,
MAX_PRODUCT_TERMS = 2000  # refuses a tail longer than this, and takes at least its floor of terms:
PRODUCT_FLOOR, EXPONENT_FLOOR, SCALAR_FLOOR = 10, 70, 90  # R^+ and R^-, R^0's exponent, f(z)
ORACLE_STACK_ENTRIES = 1 << 14  # entries per stack of ordered-product factors (256 KiB)


class PoleError(RefusedInput, ArithmeticError):
    """A denominator factor vanished on the requested weight window."""

    code = 3


class SpectralOverflow(RefusedInput, ArithmeticError):
    """A value built at spectral parameter z is not finite in float64."""


def _guard_overflow(z, what: str, build):
    """build(), with numpy's floating-point warnings silenced; SpectralOverflow,
    naming z, when it raises OverflowError or returns a non-finite entry."""
    try:
        with np.errstate(all="ignore"):
            out = build()
    except OverflowError:
        out = np.nan
    if not np.isfinite(out).all():
        raise SpectralOverflow(f"overflow in {what} at z={z}", z=z)
    return out


class OracleDiverges(RefusedInput, ValueError):
    """An independent series or product oracle does not converge at these parameters."""


def _finite_rows(stack: np.ndarray, orders, what: str) -> np.ndarray:
    """stack, one entry per order in orders; OracleDiverges names the first entry not finite."""
    finite = np.isfinite(stack).all(axis=(1, 2))
    if not finite.all():
        raise OracleDiverges(f"{what} of order {orders[np.argmin(finite)]} is not finite")
    return stack


def _finite_images(stack: np.ndarray, what: str, qp: QParam) -> np.ndarray:
    """stack of generator images; PowerOverflow, naming q, when an entry left float64."""
    if not np.isfinite(stack).all():
        raise PowerOverflow(f"{what} overflow a float at q={qp.q}")
    return stack


class UnsupportedOrder(RefusedInput, ValueError):
    """The construction needs [2]_q != 0 (root order N' with q^4 != 1)."""


def _require_finite(z):
    """Refuse a non-finite spectral parameter where it enters a factor or an oracle."""
    if not cmath.isfinite(complex(z)):
        raise InadmissibleParameters(f"the spectral parameter z must be finite, got {z}")


def eval_generators(rep: Rep, x: complex) -> dict:
    """Images of the affine Chevalley generators under evaluation at x."""
    if x == 0:
        raise ValueError("the evaluation parameter must be nonzero")
    return {"E0": rep.E, "F0": rep.F, "E1": x * rep.F, "F1": rep.E / x,
            "K0": rep.K, "K1": rep.Kinv}


def _scalars(values) -> np.ndarray:
    """Per-order scalar coefficients as a (k, 1, 1) array, to scale a stack of matrices.

    Each value is computed as a Python scalar, exactly as a per-order loop
    would, and is the left operand of the product: `c * X`, never `X *= c`
    (numpy's complex multiply rounds the two operand orders differently)."""
    return np.array(list(values), dtype=complex).reshape(-1, 1, 1)


def _root_family(rep: Rep, x: complex, n_max: int, key: str) -> np.ndarray:
    """The family E0, F0, E1 or F1 of eval_root_vectors alone, a stack (n_max+1, d, d)."""
    s = 1 if key[0] == "E" else -1  # E: x^n, q^{-nH}; F: x^-n, q^{nH}; a1: one more x
    diag = rep.qpow_h(-s * np.arange(n_max + 1)[:, None])
    with np.errstate(all="ignore"):  # a non-finite image is refused below
        mat = diag[:, :, None] * rep.E if key in ("E0", "F1") else rep.F * diag[:, None, :]
        stack = _scalars((-1) ** n * x ** (s * (n + int(key[1]))) for n in range(n_max + 1)) * mat
    return _finite_images(stack, f"the {key} root vectors", rep.qp)


def eval_root_vectors(rep: Rep, x: complex, n_max: int) -> dict:
    """Real root-vector images, n = 0..n_max, each family a stack of shape (n_max+1, d, d).

    E_{a0+nd} = (-1)^n x^n  q^{-nH} E,      F_{a0+nd} = (-1)^n x^-n  F q^{nH},
    E_{a1+nd} = (-1)^n x^{n+1} F q^{-nH},   F_{a1+nd} = (-1)^n x^-{n+1} q^{nH} E.
    """
    return {key: _root_family(rep, x, n_max, key) for key in ("E0", "F0", "E1", "F1")}


def _guard_order(qp: QParam):
    if abs(qnumber(2, qp)) < 1e-9 or abs(qp.qpow(2) - qp.qpow(-2)) < 1e-9:
        raise UnsupportedOrder("unsupported order: imaginary root vectors need q^4 != 1 "
                               "([2]_q nonzero)")


def eval_imaginary_prime(rep: Rep, x: complex, n_max: int,
                         family: str = "closed") -> "ImaginaryRootImages":
    """First-kind imaginary root images E'_{nd}, F'_{nd} for n = 1..n_max.

    family="closed": E'_{nd} = (-1)^{n-1}/[2] x^n q^{-(n-1)H} (EF - q^-2 FE)
    and the mirrored F'_{nd}; diagonal on weight bases.

    family="loop": the bracket recursion
    E'_{nd} = [2]^-1 (E_{a0+(n-1)d} E_{a1} - q^-2 E_{a1} E_{a0+(n-1)d}) and its
    mirror F'_{nd} = [2]^-1 (F_{a1} F_{a0+(n-1)d} - q^2 F_{a0+(n-1)d} F_{a1}).
    This family obeys the loop-algebra relations; it coincides with "closed"
    at n = 1 only.  Each primed family reads one real-root family alone.

    Both families come as stacks of shape (n_max, d, d), order n at index n-1.
    """
    qp = rep.qp
    _guard_order(qp)
    if family == "closed":
        two = qnumber(2, qp)
        ns = range(1, n_max + 1)
        q2 = qp.qpow(2)
        W = rep.E @ rep.F - rep.F @ rep.E / q2
        Wf = rep.F @ rep.E - rep.E @ rep.F / q2
        shift = np.arange(n_max)[:, None]  # n - 1
        with np.errstate(all="ignore"):  # a non-finite image is refused below
            eprime = (_scalars((-1) ** (n - 1) / two * x**n for n in ns)
                      * (rep.qpow_h(-shift)[:, :, None] * W))
            fprime = (_scalars((-1) ** (n - 1) / two * x ** (-n) for n in ns)
                      * (rep.qpow_h(shift)[:, :, None] * Wf))
        eprime = _finite_images(eprime, "the closed E' images", qp)
        fprime = _finite_images(fprime, "the closed F' images", qp)
    elif family == "loop":
        eprime, fprime = _loop_eprime(rep, x, n_max), _loop_fprime(rep, x, n_max)
    else:
        raise ValueError(f"unknown imaginary family {family!r}")
    return ImaginaryRootImages(qp=qp, eprime=eprime, fprime=fprime)


def _loop_eprime(rep: Rep, x: complex, n_max: int) -> np.ndarray:
    """Loop-family E'_{nd}, n = 1..n_max, from the one real-root family it reads."""
    A = _root_family(rep, x, n_max - 1, "E0")  # E_{a0+(n-1)d}
    E1 = x * rep.F
    return (A @ E1 - E1 @ A / rep.qp.qpow(2)) / qnumber(2, rep.qp)


def _loop_fprime(rep: Rep, x: complex, n_max: int) -> np.ndarray:
    """Loop-family F'_{nd}, n = 1..n_max, from the one real-root family it reads."""
    B = _root_family(rep, x, n_max - 1, "F0")  # F_{a0+(n-1)d}
    F1 = rep.E / x
    return (F1 @ B - rep.qp.qpow(2) * B @ F1) / qnumber(2, rep.qp)


@dataclass(frozen=True)
class ImaginaryRootImages:
    """Imaginary root-vector images: primed generators (stacks over the order n)
    and their Schur conversion (lists of matrices)."""

    qp: QParam
    eprime: np.ndarray | list = field(default_factory=list)
    fprime: np.ndarray | list = field(default_factory=list)
    e: list = field(default_factory=list)
    f: list = field(default_factory=list)


def _weight_diagonals(mats: list, tol: float) -> np.ndarray:
    """Stack the diagonals of weight-diagonal images as an (M, d) array.

    Raises ValueError when an image has an off-diagonal entry above tol times
    its own scale, OracleDiverges when it has a non-finite entry."""
    stack = _finite_rows(np.asarray(mats, complex), range(1, len(mats) + 1), "imaginary root image")
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


def _imaginary_diagonals(eprime, fprime, c: complex) -> tuple:
    """Diagonals (M, d1), (M, d2) of the unprimed images from E' and F', checked to be
    weight-diagonal, by one log series over the columns [E' | -F'] (column by column;
    the mirrored family carries the sign flip of q -> q^-1)."""
    ue, uf = _weight_diagonals(eprime, DIAGONAL_TOL), _weight_diagonals(fprime, DIAGONAL_TOL)
    logs = _log_series_diagonal(np.concatenate([ue, -uf], axis=1), c)
    return logs[:, :ue.shape[1]], -logs[:, ue.shape[1]:]


def schur_to_imaginary(images: ImaginaryRootImages) -> ImaginaryRootImages:
    """Recover the unprimed imaginary root images by inverting the Schur relation.

    With P(z) = sum E'_{nd} z^n the generating identity reads
    1 + (q^2 - q^-2) P(z) = exp((q^2 - q^-2) Q(z)).  The images are diagonal
    on the weight basis (EF and q^{nH} are), so the log is taken weight by
    weight, one truncated series for both families (_imaginary_diagonals);
    inputs not diagonal to DIAGONAL_TOL raise.
    Returns a copy with ``e`` and ``f`` filled in.
    """
    qp = images.qp
    _guard_order(qp)
    if not len(images.eprime):
        return images
    e, f = _imaginary_diagonals(images.eprime, images.fprime, qp.qpow(2) - qp.qpow(-2))
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
    c = qp.qpow(2) - qp.qpow(-2)
    d = e_images[0].shape[0]
    out = np.zeros((d, d), dtype=complex)
    for part in _partitions(n):
        coeff = c ** (sum(part.values()) - 1)
        term = np.eye(d, dtype=complex)
        for k, p in part.items():
            coeff /= math.factorial(p)
            term = term @ np.linalg.matrix_power(e_images[k - 1], p)
        out += coeff * term
    return out


def _closed_factor(z: complex, rep1: Rep, rep2: Rep, lowering: bool) -> TensorOperator:
    """R^+(z) or, with lowering, its mirror R^-(z), one term per entry.

    R^+ = 1 + sum_n (q-q^-1)^n (E^n/(n)_{q^-2}! (x) F^n) diag(w_n) and
    R^- = 1 + sum_n z^n (q-q^-1)^n diag(w_n) (F^n (x) E^n/(n)_{q^-2}!), with
    w_n = 1 / prod_{k=1}^n (1 - z q^-2k K^-1 (x) K) at the source of R^+ and the
    target of R^-.  E^n/(n)_{q^-2}! sends v_s of its ladder module to T[s, n] v_{s-n}
    (Rep.raising_table), so the entry of R^+ from (s, o) to (s-n, o') is the one term
    (q-q^-1)^n T[s, n] (F^n)[o', o] w_n(s, o), R^- mirrors it, and each pair (s, n <= s)
    is scattered once into the identity, for the orders n before E^n or F^n vanishes.
    w_n is taken on the support of term n (its factors' column (R^+) or row (R^-)
    supports), where PoleError reports the first vanishing denominator: first n, then
    the first weight pair in row-major order.  A factor that leaves float64 raises
    SpectralOverflow (_guard_overflow), as r_spectral does.
    """
    _require_finite(z)
    qp = rep1.qp
    q = qp.q
    d1, d2 = rep1.dim, rep2.dim
    ladder, other = (rep2, rep1) if lowering else (rep1, rep2)
    which = "lowering-factor" if lowering else "raising-factor"
    table = ladder.raising_table

    def build():
        F = other.f_powers  # F^n of the other module, n = 1 .. other.dim
        for _ in range(ladder.dim - 1 - len(F)):  # a deeper ladder: F^n on, one product each
            F = np.concatenate([F, (F[-1] @ other.F)[None]])
        # term n is nonzero while E^n/(n)_{q^-2}! (column n of the table, zero above its
        # diagonal) and F^n are
        alive = table.any(axis=0)[1:] & F[:ladder.dim - 1].any(axis=(1, 2))
        F = F[:len(alive) if alive.all() else int(alive.argmin())]
        orders = range(1, len(F) + 1)
        W = np.outer(rep1.qpow_h(-1), rep2.qpow_h(1))  # K^-1 (x) K on the weight pairs
        den = np.cumprod(1 - _scalars(z * qp.qpow(-2 * n) for n in orders) * W, axis=0)
        # the pairs (s, n = k + 1 <= s): E^n/(n)_{q^-2}! sends v_s to T[s, n] v_t, t = s - n
        s, k = np.nonzero(np.arange(ladder.dim)[:, None] > np.arange(len(F)))
        t, T = s - k - 1, table[s, k + 1]
        e_support = np.zeros((len(F), ladder.dim), dtype=bool)
        e_support[k, t if lowering else s] = T != 0
        f_support = F.any(axis=2 if lowering else 1)
        support = (f_support[:, :, None] & e_support[:, None, :] if lowering
                   else e_support[:, :, None] & f_support[:, None, :])
        bad = support & (np.abs(den) < POLE_TOL)
        if bad.any():
            _, i, j = (int(v) for v in np.unravel_index(np.argmax(bad), bad.shape))
            raise PoleError(f"{which} denominator vanished at weight pair ({i},{j}), z={z}",
                            z=z, weight_pair=(i, j))
        w = 1 / np.where(support, den, 1.0)
        coeff = _scalars((z**n if lowering else 1) * (q - 1 / q) ** n for n in orders)[k]
        out = np.eye(d1 * d2, dtype=complex)
        R4 = out.reshape(d1, d2, d1, d2)
        if lowering:
            R4[:, t, :, s] = coeff * F[k] * w[k, :, t][:, :, None] * T[:, None, None]
        else:
            R4[t, :, s, :] = coeff * T[:, None, None] * (F[k] * w[k, s][:, None, :])
        return out

    return TensorOperator((d1, d2), _guard_overflow(z, f"the {which} series", build))


def rplus_closed(z: complex, rep1: Rep, rep2: Rep) -> TensorOperator:
    """Raising factor R^+(z): terminating series with spectral denominators.

    Term n:  (q-q^-1)^n  (E^n/(n)_{q^-2}! (x) F^n) * diag(prod_{k=1}^n
             (1 - z q^-2k K^-1 (x) K))^-1, the diagonal acting at the source.
    Equals the ordered product over the raising root family (ascending order);
    finite at roots of unity through the renormalized powers of E.
    """
    return _closed_factor(z, rep1, rep2, lowering=False)


def rminus_closed(z: complex, rep1: Rep, rep2: Rep) -> TensorOperator:
    """Lowering factor R^-(z): mirror series with the diagonal acting at the target."""
    return _closed_factor(z, rep1, rep2, lowering=True)


def rzero_bar_eigenvalue(z: complex, i: int, j: int, lam1: complex, lam2: complex,
                         qp: QParam) -> complex:
    """Diagonal eigenvalue of Rbar^0(z) on v_i (x) v_j.

    With M = lam2 - lam1 and P = lam2 + lam1:

        prod_{l=j-i+1}^{j} (1 - q^{M-2l} z)     prod_{l=0}^{j-1} (1 - q^{P-2l} z)
        --------------------------------------  --------------------------------- .
        prod_{l=i-j+1}^{i} (1 - q^{M+2l} z)     prod_{l=0}^{i-1} (1 - q^{-P+2l} z)

    The two index ranges of the first ratio are mirror images of each other
    (i-j+1..i below, j-i+1..j above).  No exponent -2l of the numerator
    equals an exponent 2l' of the denominator (that would need l' = -l <=
    i-j-1), so nothing cancels; a vanishing denominator factor raises
    PoleError.  This is the scalar form of one entry of ``rzero_bar``.
    Calibrated entry by entry against intertwiners solved independently on
    honest evaluation modules.
    """
    _require_finite(z)
    w1 = qp.qpow(lam2 - lam1) * z
    w2 = qp.qpow(lam2 + lam1) * z
    w3 = qp.qpow(-lam2 - lam1) * z
    val = 1.0 + 0j
    for l in range(j - i + 1, j + 1):
        val *= 1 - qp.qpow(-2 * l) * w1
    for e in range(0, j):
        val *= 1 - qp.qpow(-2 * e) * w2
    dens = ([1 - qp.qpow(2 * l) * w1 for l in range(i - j + 1, i + 1)]
            + [1 - qp.qpow(2 * e) * w3 for e in range(0, i)])
    for d in dens:
        if abs(d) < POLE_TOL:
            raise PoleError(f"diagonal factor pole at weight pair ({i},{j}), z={z}",
                            z=z, weight_pair=(i, j))
        val /= d
    return val


def _prefix_products(factors: np.ndarray) -> np.ndarray:
    """[1, f_0, f_0 f_1, ...]: entry k is the product of the first k factors."""
    return np.concatenate([[1.0 + 0j], np.cumprod(factors)])


def rzero_bar(z: complex, rep1: Rep, rep2: Rep) -> TensorOperator:
    """Diagonal factor Rbar^0(z) on V1 (x) V2.

    Every entry of ``rzero_bar_eigenvalue`` at once: the first ratio is a
    product over the exponents l, masked to each weight pair's range; the
    other two are prefix products over j and over i.  A pole raises
    PoleError at the first weight pair (row-major) with a vanishing
    denominator factor.
    """
    _require_finite(z)
    qp = rep1.qp
    d1, d2 = rep1.dim, rep2.dim
    lam1, lam2 = rep1.lam, rep2.lam
    i = np.arange(d1)[:, None, None]
    j = np.arange(d2)[None, :, None]
    m = max(d1, d2)
    l = np.arange(1 - m, m)  # covers j-i+1..j and i-j+1..i on the whole grid
    w1 = qp.qpow(lam2 - lam1) * z
    num1 = np.where((j - i < l) & (l <= j), 1 - qp.qpow_array(-2 * l) * w1, 1).prod(axis=2)
    den1 = np.where((i - j < l) & (l <= i), 1 - qp.qpow_array(2 * l) * w1, 1)
    f2 = 1 - qp.qpow_array(-2 * np.arange(d2 - 1)) * (qp.qpow(lam2 + lam1) * z)
    f3 = 1 - qp.qpow_array(2 * np.arange(d1 - 1)) * (qp.qpow(-lam2 - lam1) * z)
    small3 = np.concatenate([[False], np.logical_or.accumulate(np.abs(f3) < POLE_TOL)])
    bad = (np.abs(den1) < POLE_TOL).any(axis=2) | small3[:, None]
    if bad.any():
        a, b = divmod(int(np.argmax(bad)), d2)
        raise PoleError(f"diagonal factor pole at weight pair ({a},{b}), z={z}",
                        z=z, weight_pair=(a, b))
    diag = (num1 * _prefix_products(f2)[None, :]
            / (den1.prod(axis=2) * _prefix_products(f3)[:, None]))
    return TensorOperator((d1, d2), np.diag(diag.reshape(-1)))


def f_scalar(z: complex, lam1: complex, lam2: complex, qp: QParam,
             terms: int | None = None, form: str = "pochhammer") -> complex:
    """Scalar factor relating the diagonal factor to its exponential form.

    form="exponential": exp sum_n (q-1/q) [l1 n][l2 n]/[2n] z^n/n.
    form="pochhammer":  the ratio of four (.; q^-4)-products
        (z q^{l1-l2-2}) (z q^{l2-l1-2}) / ((z q^{l1+l2-2}) (z q^{-l1-l2-2})),
    each truncated at `terms` factors.  (The numerator arguments are the
    symmetric pair; the exponential sum forces that symmetry.)  Singular as q
    approaches a root of unity; generic q is required and divergence raises.
    By default either form takes the products' tail order (|q^-4|, SCALAR_FLOOR).
    """
    _require_finite(z)
    if qp.is_root:
        raise ValueError("the scalar factor is singular at roots of unity")
    terms = _tail_terms(abs(qp.qpow(-4)), SCALAR_FLOOR) if terms is None else terms
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
                raise OracleDiverges("exponential form of the scalar factor diverges here")
            last = mag
            acc += term
        return np.exp(acc)
    if form != "pochhammer":
        raise ValueError(f"unknown form {form!r}")
    base = qp.qpow(-4)
    if abs(base) >= 1 - 1e-12:
        raise OracleDiverges("the product form needs |q^-4| < 1 to converge")
    num = (qpochhammer_truncated(z * qp.qpow(lam1 - lam2 - 2), base, terms)
           * qpochhammer_truncated(z * qp.qpow(lam2 - lam1 - 2), base, terms))
    den = (qpochhammer_truncated(z * qp.qpow(lam1 + lam2 - 2), base, terms)
           * qpochhammer_truncated(z * qp.qpow(-lam1 - lam2 - 2), base, terms))
    return num / den


def r_spectral(z: complex, rep1: Rep, rep2: Rep, cartan: str = "normalized") -> TensorOperator:
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
    return _spectral_product(z, rep1, rep2, cartan, lambda: (
        rplus_closed(z, rep1, rep2), rzero_bar(z, rep1, rep2), rminus_closed(z, rep1, rep2)))


def _spectral_product(z: complex, rep1: Rep, rep2: Rep, cartan: str, factors) -> TensorOperator:
    """R^+ Rbar^0 R^- times the Cartan tail of `cartan`, for factors() = (R^+, Rbar^0, R^-),
    built and multiplied under one overflow guard: r_spectral's product, also read by a
    caller that already holds the three closed factors.

    R^+ and R^- keep the grading tensorop.grading_modulus measures on them (the total
    weight, or its value mod N on semicyclic pairs; one sector when they keep none), and
    Rbar^0 is diagonal, so the product is taken sector by sector: one batched matmul
    over the padded sector blocks of tensorop.sector_plan, scattered into D x D once."""
    def build():
        rp, r0, rm = factors()
        dims = (rep1.dim, rep2.dim)
        plan = sector_plan(dims, grading_modulus([(rp.mat, dims, 0), (rm.mat, dims, 0)], dims))
        blocks = rp.mat.take(plan.gather) @ (r0.mat.diagonal().take(plan.index)[:, :, None]
                                             * rm.mat.take(plan.gather))
        if cartan != "none":
            cart = cartan_weight_vector(rep1, rep2)
            if cartan == "normalized":
                cart = cart / cart[0]
            blocks *= cart.take(plan.index)[:, None, :]
        return plan.scatter(blocks)

    return TensorOperator((rep1.dim, rep2.dim), _guard_overflow(z, "the spectral R-matrix", build))


# ---------------------------------------------------------------------------
# independent product/series oracles


def _tail_terms(r: float, floor: int) -> int:
    """Every oracle's truncation order: max(floor, the terms after which a geometric tail of
    ratio r drops below TAIL_TOL); r >= 1, NaN or a tail over MAX_PRODUCT_TERMS diverges."""
    n = int(math.log(TAIL_TOL) / math.log(r)) + 5 if 0 < r < 1 else 0
    if not (r < 1 and n <= MAX_PRODUCT_TERMS):
        raise OracleDiverges(f"tail of ratio {r:.3g} needs > {MAX_PRODUCT_TERMS} terms to converge")
    return max(floor, n)


def _auto_terms(z, rep1, rep2, floor: int = PRODUCT_FLOOR):
    """Truncation order of the ordered products, from the growth ratio of their factors."""
    r = abs(z) * max(abs(rep1.qp.qpow(hj - hi)) for hi in rep1.hvec for hj in rep2.hvec)
    return _tail_terms(r, floor)


@np.errstate(all="ignore")  # a non-finite factor is refused, naming its order
def _qexp_product(z: complex, rep1: Rep, rep2: Rep, ascending: bool, factors,
                  shift: int) -> TensorOperator:
    """prod_n exp_{q^-2}((q-1/q) z^{n+shift} A_n (x) B_n) over n = 0..n_max, in ascending
    or descending order of n, with n_max from the geometric tail (_auto_terms).

    factors(ns) returns the stacks A_n and B_n for the orders ns.  The factors
    are built and exponentiated as stacks of at most ORACLE_STACK_ENTRIES
    entries (at least one factor each), so memory stays O(D^2) at any n_max;
    the exponentials are then multiplied one by one in that order."""
    _require_finite(z)
    qp = rep1.qp
    q = qp.q
    n_max = _auto_terms(z, rep1, rep2)
    d1, d2 = rep1.dim, rep2.dim
    D = d1 * d2
    ns = np.arange(n_max + 1) if ascending else np.arange(n_max, -1, -1)
    chunk = max(1, ORACLE_STACK_ENTRIES // (D * D))
    mat = np.eye(D, dtype=complex)
    for part in np.split(ns, range(chunk, ns.size, chunk)):
        c = _scalars((q - 1 / q) * z ** (int(n) + shift) for n in part)
        exps = qexp_truncated(c * kron2(*factors(part)), qp.qpow(-2), min(d1, d2))
        mat = functools.reduce(np.matmul, _finite_rows(exps, part, "ordered-product factor"), mat)
    return TensorOperator((d1, d2), mat)


def rplus_product(z: complex, rep1: Rep, rep2: Rep) -> TensorOperator:
    """Ordered product prod_n exp_{q^-2}((q-1/q) z^n (q^{-nH}E (x) F q^{nH})).

    The raising family multiplies in ascending order of n (the closed form
    reproduces exactly this order)."""
    def factors(ns):
        return (rep1.qpow_h(-ns[:, None])[:, :, None] * rep1.E,
                rep2.F * rep2.qpow_h(ns[:, None])[:, None, :])

    return _qexp_product(z, rep1, rep2, True, factors, 0)


def rminus_product(z: complex, rep1: Rep, rep2: Rep) -> TensorOperator:
    """Ordered product prod_n exp_{q^-2}((q-1/q) z^{n+1} (F q^{-nH} (x) q^{nH}E)).

    The lowering family multiplies in descending order of n (normal order runs
    back towards the plain lowering root)."""
    def factors(ns):
        return (rep1.F * rep1.qpow_h(-ns[:, None])[:, None, :],
                rep2.qpow_h(ns[:, None])[:, :, None] * rep2.E)

    return _qexp_product(z, rep1, rep2, False, factors, 1)


@np.errstate(all="ignore")  # a non-finite image or exponent term is refused, naming its order
def rzero_exponential(z: complex, rep1: Rep, rep2: Rep,
                      n_max: int | None = None) -> TensorOperator:
    """Exponential form of the full diagonal factor R^0(z) = f(z) Rbar^0(z).

    exp( sum_{n>0} (q^2-q^-2)^2 n z^n / (q^{2n}-q^{-2n}) E_{nd} (x) F_{nd} )
    over the loop-bracket imaginary family; equivalently the pairing
    (q-q^-1)^2 n/(q^{2n}-q^{-2n}) of the rescaled Cartan-current modes.
    Only the images it pairs, E'_{nd} of V1 and F'_{nd} of V2, are built and
    converted (one log series); [2]_q = 0 raises UnsupportedOrder.
    The exponent is summed over n = 1, 2, ... in order, starting from zero.
    Unless given, n_max is the ordered products' order, at least EXPONENT_FLOOR.
    A non-finite image or exponent term, or an exponent whose real part would
    overflow exp, raises OracleDiverges.
    """
    _require_finite(z)
    qp = rep1.qp
    if n_max is None:
        n_max = _auto_terms(z, rep1, rep2, EXPONENT_FLOOR)
    _guard_order(qp)
    c = qp.qpow(2) - qp.qpow(-2)
    e1, f2 = _imaginary_diagonals(_loop_eprime(rep1, 1.0, n_max),
                                  _loop_fprime(rep2, 1.0, n_max), c)
    coeff = _scalars(c**2 * n * z**n / (qp.qpow(2 * n) - qp.qpow(-2 * n))
                     for n in range(1, n_max + 1))
    terms = _finite_rows(coeff * (e1[:, :, None] * f2[:, None, :]), range(1, n_max + 1),
                         "exponent term")
    # the exponent is diagonal; row k of the cumulative sum adds term k to the
    # sum of the terms before it, and row 0 is the zero it starts from
    acc = np.cumsum(np.concatenate([np.zeros((1, rep1.dim, rep2.dim)), terms]),
                    axis=0)[-1].reshape(-1)
    top = acc.real.max()
    if not top < LOG_MAX_FLOAT:
        raise OracleDiverges(f"exponential form of the diagonal factor does not converge here "
                             f"(exponent real part {top:.3g} overflows exp)")
    return TensorOperator((rep1.dim, rep2.dim), np.diag(np.exp(acc)))


def _assemble_product(rp: TensorOperator, r0: TensorOperator, rm: TensorOperator,
                      rep1: Rep, rep2: Rep) -> TensorOperator:
    """R^+ R^0 R^- q^{H(x)H/2} from the three factors of the ordered-product form."""
    mat = rp.mat @ r0.mat @ rm.mat
    mat = mat * cartan_weight_vector(rep1, rep2)[None, :]
    return TensorOperator((rep1.dim, rep2.dim), mat)


def decompos_product(z: complex, rep1: Rep, rep2: Rep,
                     n_imag: int | None = None) -> TensorOperator:
    """Full ordered-product evaluation image R^+ R^0 R^- q^{H(x)H/2}.

    Equals f(z) times the cartan="raw" closed-form spectral R-matrix.
    """
    return _assemble_product(rplus_product(z, rep1, rep2),
                             rzero_exponential(z, rep1, rep2, n_imag),
                             rminus_product(z, rep1, rep2), rep1, rep2)


# ---------------------------------------------------------------------------
# verifiers


def affine_coproduct_images(rep1: Rep, rep2: Rep, z: complex) -> tuple:
    """Images (left, right) of the affine coproduct and of its opposite on V1(z) (x) V2(1).

    Each Chevalley triple (E_i, F_i, K_i) goes through the finite coproduct,
    with K_0 = K and K_1 = K^-1 on each factor; both dicts are keyed E0 .. K1
    and come from one evaluation of each module's generators."""
    g1 = eval_generators(rep1, z)
    g2 = eval_generators(rep2, 1.0)  # not rep2's own: a product with 1.0 can flip a zero's sign
    left, right = {}, {}
    for i, j in (("0", "1"), ("1", "0")):  # K_i^-1 = K_j
        a, b = ((g["E" + i], g["F" + i], g["K" + i], g["K" + j]) for g in (g1, g2))
        D, Dp = _delta(a, b)
        left.update((gen + i, D[gen]) for gen in "EFK")
        right.update((gen + i, Dp[gen]) for gen in "EFK")
    return left, right


def affine_intertwine_residual(z: complex, rep1: Rep, rep2: Rep,
                               R: TensorOperator | None = None) -> float:
    """max over affine generators of || R D(a) - D'(a) R || on the safe window (one
    generator application: margin 1), R the normalized r_spectral(z, rep1, rep2)
    unless given (say, with another Cartan tail)."""
    if R is None:
        R = r_spectral(z, rep1, rep2)
    left, right = affine_coproduct_images(rep1, rep2, z)
    return intertwine_defect(R.mat, left, right, safe_window((rep1, rep2), 1))


def spectral_ybe_residual(x1: complex, x2: complex, x3: complex,
                          rep1: Rep, rep2: Rep, rep3: Rep) -> float:
    """|| R12(x1/x2) R13(x1/x3) R23(x2/x3) - reverse || on the safe window (margin 1),
    for the normalized r_spectral."""
    reps = (rep1, rep2, rep3)

    def build(za, ra, rb):
        return r_spectral(za, ra, rb).mat

    return ybe_defect(build(x1 / x2, rep1, rep2), build(x1 / x3, rep1, rep3),
                      build(x2 / x3, rep2, rep3), tuple(r.dim for r in reps),
                      safe_window(reps, 1))


def central_affine_check(rep: Rep) -> list:
    """Commutator residuals of the order-N loop-family imaginary root images
    E_N and F_N at x = 1, one row each.

    At a root of unity these images are expected to be central (and scalar)
    on honest modules; on truncated modules the defect row is masked.
    """
    qp = rep.qp
    if not qp.is_root:
        raise ValueError("centrality of imaginary root vectors is a root-of-unity statement")
    N = qp.N
    keep = _row_window(rep, 1)
    images = schur_to_imaginary(eval_imaginary_prime(rep, 1.0, N, family="loop"))
    return [{"family": fam, "k": 1, "order": N, **commutator_report(mats[N - 1], rep, keep)}
            for fam, mats in (("E", images.e), ("F", images.f))]


def noncentral_residual(rep: Rep) -> float:
    """Commutator residual of the order-1 loop-family imaginary root image at x = 1
    (negative control)."""
    keep = _row_window(rep, 1)
    images = schur_to_imaginary(eval_imaginary_prime(rep, 1.0, 1, family="loop"))
    return commutator_report(images.e[0], rep, keep)["max_commutator"]


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


def drinfeld_relation_check(rep: Rep, x: complex, n_max: int = 2) -> dict:
    """Residuals of the five loop-algebra relations at central charge zero, keyed
    by relation name, on the rows and columns kept by a row window of margin 2
    (each relation multiplies two loop generators):

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
    keep = _row_window(rep, 2)

    def nrm(M):
        return np.max(np.abs(M[np.ix_(keep, keep)]))

    out = {}
    pairs = [(1, -1), (1, 2), (2, -1), (2, -2)]
    out["aa"] = float(np.max([nrm(g[("a", m)] @ g[("a", n)] - g[("a", n)] @ g[("a", m)])
                              for m, n in pairs if abs(m) <= n_max and abs(n) <= n_max]))
    vals = []
    for sgn, nm in ((1, "xp"), (-1, "xm")):
        for m in (-1, 0, 1):
            M = g[(nm, m)]
            vals.append(nrm(g["k"] @ M @ np.linalg.inv(g["k"]) - qp.qpow(2 * sgn) * M))
    out["kx"] = float(np.max(vals))
    vals = []
    for m in (1, -1, 2, -2):
        if abs(m) > n_max:
            continue
        for nm, sgn in (("xp", 1), ("xm", -1)):
            for n in (0, 1, -1):
                lhs = g[("a", m)] @ g[(nm, n)] - g[(nm, n)] @ g[("a", m)]
                rhs = sgn * qnumber(2 * m, qp) / m * g[(nm, m + n)]
                vals.append(nrm(lhs - rhs))
    out["ax"] = float(np.max(vals))
    vals = []
    for nm, sgn in (("xp", 1), ("xm", -1)):
        for m, n in ((0, 0), (1, 0), (0, -1)):
            t = qp.qpow(2 * sgn)
            a, b = g[(nm, m + 1)], g[(nm, n)]
            cc, dd = g[(nm, m)], g[(nm, n + 1)]
            vals.append(nrm(a @ b - t * b @ a - (t * cc @ dd - dd @ cc)))
    out["xx"] = float(np.max(vals))
    vals = []
    for m, n in ((0, 0), (1, 0), (0, 1), (1, 1), (1, -1), (-1, 1), (2, -1), (2, -2)):
        if abs(m) > n_max + 1 or abs(n) > n_max + 1 or abs(m + n) > n_max:
            continue
        lhs = g[("xp", m)] @ g[("xm", n)] - g[("xm", n)] @ g[("xp", m)]
        s = m + n
        rhs = (g[("psi", s)] if s >= 0 else 0) - (g[("phi", s)] if s <= 0 else 0)
        vals.append(nrm(lhs - rhs / (q - 1 / q)))
    out["xpxm"] = float(np.max(vals))
    return out
